package repl_test

// Fault-injection tests: the feed transport misbehaves (connections die
// mid-body, responses are dropped or duplicated) and a stalled consumer
// parks on the feed — the replica must reconnect, never apply a write twice,
// and converge; the primary must keep serving mutations throughout.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reason"
	"repro/internal/repl"
)

// faultTransport wraps a transport and injects deterministic failures on
// /repl/deltas requests: every cycle of four polls sees one dropped
// request (transport error before it is sent), one non-empty response cut
// at a seeded byte — inside a frame, or between the records of a write —
// (the connection dying mid-body), and one response replayed verbatim from
// the previous poll (a duplicated long-poll response, so the replica
// receives records it has already applied). Snapshot requests pass through
// untouched. faulted records, per poll, whether it failed the poll.
type faultTransport struct {
	inner http.RoundTripper
	rng   *rand.Rand

	mu      sync.Mutex
	polls   int
	last    []byte      // previous successful deltas response body
	lastHdr http.Header // ... and its headers (a real duplicate carries both)
	faulted []bool

	drops, truncates, duplicates int
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.Contains(req.URL.Path, "/repl/deltas") {
		return ft.inner.RoundTrip(req)
	}
	ft.mu.Lock()
	n := ft.polls
	ft.polls++
	last, lastHdr := ft.last, ft.lastHdr
	ft.mu.Unlock()

	ft.mu.Lock()
	ft.faulted = append(ft.faulted, false)
	ft.mu.Unlock()
	switch n % 4 {
	case 1: // drop: the request never reaches the primary
		ft.mu.Lock()
		ft.drops++
		ft.faulted[n] = true
		ft.mu.Unlock()
		return nil, fmt.Errorf("faultTransport: injected connection failure")
	case 2: // duplicate: replay the previous response verbatim, headers included
		if last != nil {
			ft.mu.Lock()
			ft.duplicates++
			ft.mu.Unlock()
			return &http.Response{
				StatusCode:    http.StatusOK,
				Status:        "200 OK",
				Header:        lastHdr.Clone(),
				ContentLength: int64(len(last)),
				Body:          io.NopCloser(bytes.NewReader(last)),
				Request:       req,
			}, nil
		}
	}
	resp, err := ft.inner.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	ft.mu.Lock()
	ft.last = append([]byte(nil), body...)
	ft.lastHdr = resp.Header.Clone()
	ft.mu.Unlock()
	if n%4 == 3 && len(body) > 0 {
		// Truncate: the connection dies mid-body. The replica sees fewer
		// bytes than the response's Content-Length — and a torn frame, or a
		// write whose last record is missing — applies the whole writes
		// before the cut and must retry from there.
		ft.mu.Lock()
		ft.truncates++
		ft.faulted[n] = true
		body = body[:ft.rng.Intn(len(body))]
		ft.mu.Unlock()
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestFaultInjectionFeed steps a replica once after each write of a
// mutation schedule while its transport drops, duplicates and truncates
// feed responses. Under steps the fault cycle is exact: every poll with
// n%4 == 1 is dropped and every non-empty one with n%4 == 3 truncated, so
// exactly those rounds fail and count a reconnect, while a duplicate
// (n%4 == 2) replays records already applied and succeeds. The replica must
// converge byte-for-byte with no error left, having applied every write
// exactly once (witnessed by its event count matching the primary's
// generations — a double-applied write would desynchronize the two, and its
// digest check would re-snapshot).
func TestFaultInjectionFeed(t *testing.T) {
	psrv, ts := newPrimary(t)
	primary := psrv.Reasoner()
	ft := &faultTransport{inner: http.DefaultTransport, rng: rand.New(rand.NewSource(5))}
	rep, applier := newReplica(t, ts.URL, repl.Options{Client: &http.Client{Transport: ft}})

	// Count the replica's apply events: one per content-changing write,
	// exactly as the primary emits one frame per write. The hook runs inside
	// Step, on this goroutine.
	applies := 0
	applier.SetOnEvent(func(reason.Delta) { applies++ })

	// One Step after each of 60 writes, then five more, the last of them a
	// clean poll (n = 64) that catches up: 65 polls, 16 full fault cycles.
	const writes, polls = 60, 65
	bootGen := rep.Status().AppliedGeneration
	m := newMutator(97, primary)
	for n := 0; n < polls; n++ {
		if n < writes {
			m.step(t)
		}
		err := rep.Step(context.Background(), applier)
		ft.mu.Lock()
		faulted := ft.faulted[n]
		ft.mu.Unlock()
		if (err != nil) != faulted {
			t.Fatalf("poll %d: err = %v, want an error only on a dropped or truncated poll", n, err)
		}
		st, at := rep.Status(), primary.Base().Position()
		if got := applier.Base().Position().Digest; got != st.AppliedDigest || (st.AppliedGeneration == at.Gen && got != at.Digest) {
			t.Fatalf("poll %d: the replica's digest %v at %d/%v, the primary at %v", n, got, st.AppliedGeneration, st.AppliedDigest, at)
		}
	}
	converged(t, "after the fault schedule", rep, applier, primary)
	if want := int(primary.Generation() - bootGen); applies != want {
		t.Fatalf("replica applied %d events for %d primary frames — a frame was applied twice or skipped", applies, want)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if cycles := polls / 4; ft.drops != cycles || ft.duplicates != cycles || ft.truncates < cycles/2 {
		t.Fatalf("faults injected over %d polls: %d drops, %d duplicates, %d truncations; want %d of each (truncations of the non-empty bodies)",
			polls, ft.drops, ft.duplicates, ft.truncates, cycles)
	}
	if st := rep.Status(); st.Reconnects != int64(ft.drops+ft.truncates) || st.Resnapshots != 0 {
		t.Fatalf("status after %d drops and %d truncations: %+v, want one reconnect each and no re-snapshot",
			ft.drops, ft.truncates, st)
	}
}

// TestStalledConsumerDoesNotBlockPrimary parks a consumer on the feed that
// never reads its response and then times a burst of mutations: a poll only
// reads the log outside the write path, so the mutations must finish
// promptly no matter what any replica is doing.
func TestStalledConsumerDoesNotBlockPrimary(t *testing.T) {
	psrv, ts := newPrimary(t)

	// A raw connection that sends the poll request and then never reads:
	// the rudest possible consumer.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	at := psrv.Reasoner().Base().Position()
	fmt.Fprintf(conn, "GET /repl/deltas?from=%d&digest=%v&wait=25s HTTP/1.1\r\nHost: primary\r\n\r\n", at.Gen, at.Digest)

	m := newMutator(13, psrv.Reasoner())
	start := time.Now()
	for i := 0; i < 100; i++ {
		m.step(t)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("mutations took %v behind a stalled feed consumer", elapsed)
	}
	// The primary applied the burst without waiting for the consumer.
	if gen := psrv.Reasoner().Generation(); gen < 50 {
		t.Fatalf("only %d generations applied", gen)
	}
}
