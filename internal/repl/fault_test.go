package repl_test

// Fault-injection tests: the feed transport misbehaves (connections die
// mid-delta, responses are dropped or duplicated) and a stalled consumer
// parks on the feed — the replica must reconnect, never apply a generation
// twice, and converge; the primary must keep serving mutations throughout.

import (
	"bytes"
	"context"
	"fmt"
	"io"
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
// request (transport error before it is sent), one response truncated
// mid-body (the connection dying mid-delta), and one response replayed
// verbatim from the previous poll (a duplicated long-poll response, so the
// replica receives frames it has already applied). Snapshot requests pass
// through untouched.
type faultTransport struct {
	inner http.RoundTripper

	mu      sync.Mutex
	polls   int
	last    []byte      // previous successful deltas response body
	lastHdr http.Header // ... and its headers (a real duplicate carries both)

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

	switch n % 4 {
	case 1: // drop: the request never reaches the primary
		ft.mu.Lock()
		ft.drops++
		ft.mu.Unlock()
		return nil, fmt.Errorf("faultTransport: injected connection failure")
	case 2: // duplicate: replay the previous response verbatim, headers included
		if last != nil {
			ft.mu.Lock()
			ft.duplicates++
			ft.mu.Unlock()
			return &http.Response{
				StatusCode: http.StatusOK,
				Status:     "200 OK",
				Header:     lastHdr.Clone(),
				Body:       io.NopCloser(bytes.NewReader(last)),
				Request:    req,
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
	if n%4 == 3 && len(body) > 1 {
		// Truncate: the connection dies mid-delta. The replica sees a
		// stream with no trailer (or a torn JSON line) and must retry from
		// its applied generation.
		ft.mu.Lock()
		ft.truncates++
		ft.mu.Unlock()
		body = body[:len(body)/2]
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestFaultInjectionFeed steps a replica once after each write of a
// mutation schedule while its transport drops, duplicates and truncates
// feed responses. Under steps the fault cycle is exact: every poll with
// n%4 == 1 is dropped and n%4 == 3 truncated, so exactly those rounds fail
// and count a reconnect, while a duplicate (n%4 == 2) replays frames
// already applied and succeeds. The replica must converge byte-for-byte
// with no error left, having applied every generation exactly once
// (witnessed by its event count matching the primary's frame count — a
// double-applied frame would desynchronize the two).
func TestFaultInjectionFeed(t *testing.T) {
	psrv, ts := newPrimary(t)
	primary := psrv.Reasoner()
	ft := &faultTransport{inner: http.DefaultTransport}
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
		if faulted := n%4 == 1 || n%4 == 3; (err != nil) != faulted {
			t.Fatalf("poll %d: err = %v, want an error only on a dropped or truncated poll", n, err)
		}
	}
	converged(t, "after the fault schedule", rep, applier, primary)
	if want := int(primary.Generation() - bootGen); applies != want {
		t.Fatalf("replica applied %d events for %d primary frames — a frame was applied twice or skipped", applies, want)
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if cycles := polls / 4; ft.drops != cycles || ft.duplicates != cycles || ft.truncates != cycles {
		t.Fatalf("faults injected over %d polls: %d drops, %d duplicates, %d truncations; want %d of each",
			polls, ft.drops, ft.duplicates, ft.truncates, cycles)
	}
	if st := rep.Status(); st.Reconnects != int64(ft.drops+ft.truncates) || st.Resnapshots != 0 {
		t.Fatalf("status after %d drops and %d truncations: %+v, want one reconnect each and no re-snapshot",
			ft.drops, ft.truncates, st)
	}
}

// TestStalledConsumerDoesNotBlockPrimary parks a consumer on the feed that
// never reads its response and then times a burst of mutations: the
// primary's mutation path only appends to the bounded retention buffer, so
// it must finish promptly no matter what any replica is doing.
func TestStalledConsumerDoesNotBlockPrimary(t *testing.T) {
	psrv, ts := newPrimary(t)

	// A raw connection that sends the poll request and then never reads:
	// the rudest possible consumer.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /repl/deltas?from=0&wait=25s HTTP/1.1\r\nHost: primary\r\n\r\n")

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
