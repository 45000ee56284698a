package repl

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// The TestFeed* tests hold the log server to what the retention ring it
// replaced promised, over the log itself: which positions are served and
// from where, long polls that wake on a commit and on nothing else, and
// pollers that never hold up a writer.

// TestFeedSinceWindow: every position of the live log is served the records
// after it — each a suffix of the whole log's bytes — through max writes; an
// unknown position is 410; and a checkpoint folds the window into the chain,
// after which only the chain's stamp is served, with nothing.
func TestFeedSinceWindow(t *testing.T) {
	l := newLog(t)
	at := []store.Position{l.r.Base().Position()} // the seed load's write
	for i := 0; i < 6; i++ {
		at = append(at, l.write())
	}
	whole := l.read(at[0], "")
	if whole.code != http.StatusOK || whole.latest != 6 || len(whole.body) == 0 {
		t.Fatalf("from the seed: %d, latest %d, %d bytes", whole.code, whole.latest, len(whole.body))
	}
	for k, from := range at {
		rp := l.read(from, "")
		if rp.code != http.StatusOK || !bytes.HasSuffix(whole.body, rp.body) || rp.latest != 6 {
			t.Fatalf("from write %d: %d, latest %d, %d bytes, not a suffix of the log", k, rp.code, rp.latest, len(rp.body))
		}
		if (k == len(at)-1) != (len(rp.body) == 0) {
			t.Fatalf("from write %d of %d: %d bytes", k, len(at)-1, len(rp.body))
		}
	}
	m := newMirror(t, l.eng)
	if m.f.Position() != at[6] {
		t.Fatalf("the snapshot is at %v, the log at %v", m.f.Position(), at[6])
	}
	// max caps the page: a prefix of the log, ending where the third write
	// from the seed begins — the whole log from the second write's position.
	paged := l.read(at[0], "&max=2")
	if rest := l.read(at[2], ""); paged.code != http.StatusOK || !bytes.Equal(append(paged.body, rest.body...), whole.body) {
		t.Fatalf("max=2 from the seed: %d, %d bytes, then %d bytes from the second write, of %d", paged.code, len(paged.body), len(rest.body), len(whole.body))
	}
	if rp := l.read(store.Position{Gen: 3}, ""); rp.code != http.StatusGone {
		t.Fatalf("an unknown position: %d, want 410", rp.code)
	}
	if err := l.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k, from := range at[:6] {
		if rp := l.read(from, ""); rp.code != http.StatusGone {
			t.Fatalf("from write %d after the checkpoint: %d, want 410", k, rp.code)
		}
	}
	if rp := l.read(at[6], ""); rp.code != http.StatusOK || len(rp.body) != 0 {
		t.Fatalf("from the chain's stamp: %d, %d bytes", rp.code, len(rp.body))
	}
	if st := l.srv.Stats(); st.Latest != 6 || st.Oldest != 6 {
		t.Fatalf("stats after the checkpoint: %+v", st)
	}
}

// TestFeedEmpty: a log that holds no write serves the empty state's
// position, with nothing.
func TestFeedEmpty(t *testing.T) {
	l := newLog(t)
	if err := l.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	at := l.r.Base().Position()
	if rp := l.read(at, ""); rp.code != http.StatusOK || len(rp.body) != 0 || rp.latest != 0 {
		t.Fatalf("a log with no write past the chain: %d, latest %d, %d bytes", rp.code, rp.latest, len(rp.body))
	}
}

// TestFeedWaitSince: a caught-up poll parks, and a commit wakes it with the
// new write long before its wait is up.
func TestFeedWaitSince(t *testing.T) {
	l := newLog(t)
	at := l.write()
	got := make(chan reply, 1)
	go func() { got <- l.poll(context.Background(), at, "&wait=20s") }()
	time.Sleep(20 * time.Millisecond) // let the poll park
	start := time.Now()
	l.write()
	select {
	case rp := <-got:
		if rp.code != http.StatusOK || len(rp.body) == 0 || rp.latest != 2 {
			t.Fatalf("woken poll: %d, latest %d, %d bytes", rp.code, rp.latest, len(rp.body))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the commit did not wake the parked poll")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("the woken poll answered late")
	}
}

// TestFeedWaitSinceAppendRace: a commit racing a poll's read is never
// missed — the poll takes the commit's wake before it reads — so every poll
// launched beside a write answers with it, not at its wait.
func TestFeedWaitSinceAppendRace(t *testing.T) {
	l := newLog(t)
	at := l.write()
	for i := 0; i < 100; i++ {
		done := make(chan reply, 1)
		go func() { done <- l.poll(context.Background(), at, "&wait=20s") }()
		next := l.write()
		select {
		case rp := <-done:
			if rp.code != http.StatusOK || len(rp.body) == 0 {
				t.Fatalf("round %d: %d, %d bytes", i, rp.code, len(rp.body))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: a commit racing the poll was missed", i)
		}
		at = next
	}
}

// TestFeedWaitSinceTimeout: a parked poll with nothing to wake it answers
// empty at its wait.
func TestFeedWaitSinceTimeout(t *testing.T) {
	l := newLog(t)
	at := l.write()
	start := time.Now()
	rp := l.poll(context.Background(), at, "&wait=50ms")
	if rp.code != http.StatusOK || len(rp.body) != 0 || time.Since(start) < 50*time.Millisecond {
		t.Fatalf("timed-out poll: %d, %d bytes after %v", rp.code, len(rp.body), time.Since(start))
	}
}

// TestFeedWaitSinceContext: a parked poll whose request is cancelled answers
// at once.
func TestFeedWaitSinceContext(t *testing.T) {
	l := newLog(t)
	at := l.write()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); l.poll(ctx, at, "&wait=20s") }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	within(t, 5*time.Second, "the cancelled poll's return", done)
}

// TestFeedConcurrent runs a writer beside several mirrors following the log
// with long polls, under the race detector: every mirror applies every write
// once, in order — its digest checked after each — and ends at the writer's
// position.
func TestFeedConcurrent(t *testing.T) {
	const total = 200
	l := newLog(t)
	var wg sync.WaitGroup
	var last store.Position // written before done closes
	done := make(chan struct{})
	for p := 0; p < 4; p++ {
		m := newMirror(t, l.eng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					if m.f.Position() == last {
						return
					}
				default:
				}
				rp := l.poll(context.Background(), m.f.Position(), "&wait=50ms&max=16")
				if rp.code != http.StatusOK {
					t.Errorf("poll from %v: %d", m.f.Position(), rp.code)
					return
				}
				if _, err := m.read(rp.body); err != nil {
					t.Errorf("mirror: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		last = l.write()
	}
	close(done)
	wg.Wait()
}

// TestFeedClose: Close ends a parked poll at once, with nothing, and keeps
// later polls from parking; the log is still served.
func TestFeedClose(t *testing.T) {
	l := newLog(t)
	at := l.write()
	parked := make(chan reply, 1)
	go func() { parked <- l.poll(context.Background(), at, "&wait=25s") }()
	time.Sleep(20 * time.Millisecond) // let the poller park
	l.srv.Close()
	l.srv.Close() // idempotent
	select {
	case rp := <-parked:
		if rp.code != http.StatusOK || len(rp.body) != 0 || rp.latest != 1 {
			t.Fatalf("poll ended by Close: %d, latest %d, %d bytes", rp.code, rp.latest, len(rp.body))
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not end the parked poll")
	}
	start := time.Now()
	if rp := l.poll(context.Background(), at, "&wait=25s"); len(rp.body) != 0 || time.Since(start) > time.Second {
		t.Fatalf("poll on a closed server parked for %v", time.Since(start))
	}
	l.write()
	if rp := l.read(at, ""); rp.code != http.StatusOK || len(rp.body) == 0 {
		t.Fatalf("a write after Close is not served: %d", rp.code)
	}
}
