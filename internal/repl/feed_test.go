package repl

import (
	"context"
	"sync"
	"testing"
	"time"
)

// addFrame builds a one-triple add frame at gen.
func addFrame(gen uint64) Frame {
	return Frame{Gen: gen, Add: []WireTriple{{S: "s", P: "p", O: "o"}}}
}

// read is a Wait that never parks: the window as it stands. (Wait replaced
// Since and WaitSince; the tests below keep those names because the tier-1
// floor list tracks tests by name.)
func read(f *Feed, from uint64, max int) Window {
	return f.Wait(context.Background(), from, 0, max)
}

func TestFeedSinceWindow(t *testing.T) {
	f := newFeed(4)
	for g := uint64(1); g <= 6; g++ {
		f.Append(addFrame(g))
	}
	// Retention 4 keeps generations 3..6.
	win := read(f, 2, 0)
	if win.Gapped {
		t.Fatal("from=2 is exactly the retention edge, not a gap")
	}
	if win.Latest != 6 || win.Oldest != 3 {
		t.Fatalf("latest=%d oldest=%d", win.Latest, win.Oldest)
	}
	if frames := win.Frames; len(frames) != 4 || frames[0].Gen != 3 || frames[3].Gen != 6 {
		t.Fatalf("frames = %+v", frames)
	}

	// A caller behind the window is gapped and gets nothing.
	if win := read(f, 1, 0); !win.Gapped || win.Frames != nil {
		t.Fatalf("from=1 should gap: %+v", win)
	}
	// A caught-up caller gets zero frames, no gap.
	if win := read(f, 6, 0); win.Gapped || len(win.Frames) != 0 {
		t.Fatalf("from=latest: %+v", win)
	}
	// max caps the page.
	if frames := read(f, 2, 2).Frames; len(frames) != 2 || frames[1].Gen != 4 {
		t.Fatalf("max=2 page = %+v", frames)
	}
	st := f.Stats()
	if st.Appends != 6 || st.Dropped != 2 || st.Frames != 4 || st.Latest != 6 || st.Oldest != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFeedEmpty(t *testing.T) {
	f := newFeed(4)
	if win := read(f, 0, 0); win.Gapped || len(win.Frames) != 0 || win.Latest != 0 || win.Oldest != 1 {
		t.Fatalf("empty feed: %+v", win)
	}
}

// TestFeedDiscontinuity: a non-dense append must truncate history so no
// replica can be handed a chain that silently skips generations.
func TestFeedDiscontinuity(t *testing.T) {
	f := newFeed(8)
	f.Append(addFrame(1))
	f.Append(addFrame(2))
	f.Append(addFrame(5)) // skipped 3 and 4
	if win := read(f, 2, 0); !win.Gapped {
		t.Fatalf("from=2 across a discontinuity must gap: %+v", win)
	}
	if win := read(f, 4, 0); win.Gapped || len(win.Frames) != 1 || win.Frames[0].Gen != 5 {
		t.Fatalf("from=4 after the restart: %+v", win)
	}
}

// TestFeedEpoch: every feed mints a distinct, non-empty epoch — the
// identifier that lets a replica tell a restarted primary's generation
// chain from the one it booted from — and reports it in its stats.
func TestFeedEpoch(t *testing.T) {
	a, b := newFeed(4), newFeed(4)
	if a.epoch == "" || b.epoch == "" {
		t.Fatalf("empty epoch: a=%q b=%q", a.epoch, b.epoch)
	}
	if a.epoch == b.epoch {
		t.Fatalf("two feeds minted the same epoch %q", a.epoch)
	}
	if st := a.Stats(); st.Epoch != a.epoch {
		t.Fatalf("stats epoch %q != feed epoch %q", st.Epoch, a.epoch)
	}
}

// TestFeedDiscontinuityFreshBacking: frames handed out in a Window are shared,
// immutable history, so the discontinuity truncation must drop the backing
// array rather than re-slice it — an in-place restart of the chain would
// overwrite frames a poller is still encoding outside the lock.
func TestFeedDiscontinuityFreshBacking(t *testing.T) {
	f := newFeed(8)
	f.Append(addFrame(1))
	f.Append(addFrame(2))
	handed := read(f, 0, 0).Frames
	snap := make([]Frame, len(handed))
	copy(snap, handed)

	f.Append(addFrame(9)) // discontinuity: truncates and restarts the chain

	for i := range handed {
		if handed[i].Gen != snap[i].Gen || len(handed[i].Add) != len(snap[i].Add) ||
			handed[i].Add[0] != snap[i].Add[0] {
			t.Fatalf("handed-out frame %d mutated by the discontinuity: got %+v, want %+v",
				i, handed[i], snap[i])
		}
	}
}

// TestFeedWaitSince: a long poll parked on an up-to-date feed is woken by
// the next append.
func TestFeedWaitSince(t *testing.T) {
	f := newFeed(8)
	f.Append(addFrame(1))
	done := make(chan []Frame, 1)
	go func() {
		done <- f.Wait(context.Background(), 1, 5*time.Second, 0).Frames
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	f.Append(addFrame(2))
	select {
	case frames := <-done:
		if len(frames) != 1 || frames[0].Gen != 2 {
			t.Fatalf("woken poll got %+v", frames)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the poller")
	}
}

// TestFeedWaitSinceAppendRace: an append landing anywhere around the
// poll's empty read must wake the poller promptly — Wait takes the wake
// channel in the read's own critical section precisely so no append can fall
// unobserved between the read and the wait.
func TestFeedWaitSinceAppendRace(t *testing.T) {
	f := newFeed(8)
	var gen uint64
	for i := 0; i < 50; i++ {
		gen++
		go f.Append(addFrame(gen))
		start := time.Now()
		frames := f.Wait(context.Background(), gen-1, 3*time.Second, 0).Frames
		if len(frames) == 0 {
			t.Fatalf("iteration %d: poll returned empty with a concurrent append", i)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("iteration %d: poll took %v to observe a concurrent append", i, elapsed)
		}
	}
}

func TestFeedWaitSinceTimeout(t *testing.T) {
	f := newFeed(8)
	f.Append(addFrame(1))
	start := time.Now()
	win := f.Wait(context.Background(), 1, 30*time.Millisecond, 0)
	if len(win.Frames) != 0 || win.Gapped || win.Latest != 1 {
		t.Fatalf("timed-out poll: %+v", win)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("poll returned before the wait elapsed")
	}
}

func TestFeedWaitSinceContext(t *testing.T) {
	f := newFeed(8)
	f.Append(addFrame(1))
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	f.Wait(ctx, 1, 10*time.Second, 0)
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled poll did not return promptly")
	}
}

// TestFeedConcurrent hammers one feed with a writer and several pollers
// under the race detector: every poller must observe a dense ascending
// chain (no skips, no duplicates) or a gap that restarts it.
func TestFeedConcurrent(t *testing.T) {
	const total = 500
	f := newFeed(64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var applied uint64
			for applied < total {
				win := f.Wait(context.Background(), applied, time.Second, 16)
				if win.Gapped {
					// Re-snapshot stand-in: jump to the window edge.
					applied = win.Oldest - 1
					continue
				}
				for _, fr := range win.Frames {
					if fr.Gen <= applied {
						t.Errorf("duplicate frame %d after %d", fr.Gen, applied)
						return
					}
					if fr.Gen != applied+1 {
						t.Errorf("chain skipped from %d to %d", applied, fr.Gen)
						return
					}
					applied = fr.Gen
				}
			}
		}()
	}
	for g := uint64(1); g <= total; g++ {
		f.Append(addFrame(g))
	}
	wg.Wait()
	if st := f.Stats(); st.Appends != total || st.Latest != total {
		t.Fatalf("stats after the run: %+v", st)
	}
}

// TestFeedClose: Close ends a parked poll at once — zero frames, no gap —
// and keeps later polls from parking; the feed still takes appends and
// serves them.
func TestFeedClose(t *testing.T) {
	f := newFeed(8)
	f.Append(addFrame(1))
	parked := make(chan Window, 1)
	go func() { parked <- f.Wait(context.Background(), 1, 25*time.Second, 0) }()
	time.Sleep(20 * time.Millisecond) // let the poller park
	f.Close()
	f.Close() // idempotent
	select {
	case win := <-parked:
		if len(win.Frames) != 0 || win.Gapped || win.Latest != 1 {
			t.Fatalf("poll ended by Close: %+v", win)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not end the parked poll")
	}
	start := time.Now()
	if win := f.Wait(context.Background(), 1, 25*time.Second, 0); len(win.Frames) != 0 || time.Since(start) > time.Second {
		t.Fatalf("poll on a closed feed parked for %v: %+v", time.Since(start), win)
	}
	f.Append(addFrame(2))
	if frames := read(f, 1, 0).Frames; len(frames) != 1 || frames[0].Gen != 2 {
		t.Fatalf("append after Close: %+v", frames)
	}
}
