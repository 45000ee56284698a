package repl_test

// Primary-restart tests: a position is a generation and a digest, and the
// log carries both, so a primary restarted on its own data directory knows
// every position its replicas hold and they follow it on without a
// snapshot; a primary restarted on a wiped directory — or any other history
// — knows none of them, answers 410, and its replicas re-snapshot. A
// memory-only primary keeps no log and serves no feed.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// swappable serves whichever primary "process" is live behind one address.
func swappable(t *testing.T, first *server.Server) (*httptest.Server, func(*server.Server)) {
	t.Helper()
	var cur atomic.Value
	cur.Store(first.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, func(next *server.Server) { cur.Store(next.Handler()) }
}

// TestPrimaryRestartKeepsPositions replicates from a primary, shuts it down
// cleanly and restarts it on the same directory behind the same address: the
// replica's next Step is served from its own position — no re-snapshot —
// and replication goes on across the restart.
func TestPrimaryRestartKeepsPositions(t *testing.T) {
	dir := t.TempDir()
	srvA, engA := openPrimary(t, dir, -1)
	ts, swap := swappable(t, srvA)
	rep, applier := newReplica(t, ts.URL, repl.Options{})
	m := newMutator(71, srvA.Reasoner())
	for i := 0; i < 12; i++ {
		m.step(t)
		step(t, rep, applier, srvA.Reasoner())
	}
	converged(t, "before the restart", rep, applier, srvA.Reasoner())
	if err := engA.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, _ := openPrimary(t, dir, -1)
	if got, want := srvB.Reasoner().Base().Position(), srvA.Reasoner().Base().Position(); got != want {
		t.Fatalf("the restarted primary recovered position %v, it stopped at %v", got, want)
	}
	swap(srvB)
	step(t, rep, applier, srvB.Reasoner())
	converged(t, "right after the restart", rep, applier, srvB.Reasoner())
	mB := newMutator(72, srvB.Reasoner())
	for i := 0; i < 8; i++ {
		mB.step(t)
		step(t, rep, applier, srvB.Reasoner())
	}
	converged(t, "after post-restart writes", rep, applier, srvB.Reasoner())
	if st := rep.Status(); st.Resnapshots != 0 || st.DigestMismatches != 0 {
		t.Fatalf("across a restart on the same directory: %+v, want no re-snapshot", st)
	}
}

// TestPrimaryRestartForcesResnapshot replicates from a primary, then swaps
// in one restarted on a wiped directory — same address, same seed corpus,
// its own history — driven past the replica's applied generation, so its
// generations alone would look like a continuation. The replica's position
// is not on the new log: its next Step must re-snapshot and converge on the
// new history byte-for-byte.
func TestPrimaryRestartForcesResnapshot(t *testing.T) {
	srvA, _ := openPrimary(t, t.TempDir(), -1)
	ts, swap := swappable(t, srvA)
	rep, applier := newReplica(t, ts.URL, repl.Options{})
	mA := newMutator(71, srvA.Reasoner())
	for i := 0; i < 12; i++ {
		mA.step(t)
		step(t, rep, applier, srvA.Reasoner())
	}
	converged(t, "history A", rep, applier, srvA.Reasoner())
	appliedA := rep.Status().AppliedGeneration

	srvB, _ := openPrimary(t, t.TempDir(), -1)
	mB := newMutator(83, srvB.Reasoner())
	for srvB.Reasoner().Generation() <= appliedA+4 {
		mB.step(t)
	}
	swap(srvB)
	step(t, rep, applier, srvB.Reasoner())
	if st := rep.Status(); st.Resnapshots != 1 {
		t.Fatalf("after the primary restarted on a wiped directory: %+v, want one re-snapshot", st)
	}
	converged(t, "after the restart", rep, applier, srvB.Reasoner())
	for i := 0; i < 5; i++ {
		mB.step(t)
		step(t, rep, applier, srvB.Reasoner())
	}
	converged(t, "after post-restart writes", rep, applier, srvB.Reasoner())
}

// TestMemoryOnlyPrimaryServesNoFeed: a primary without a data directory has
// no log to serve, so both /repl paths answer 404 and a replica cannot boot
// from it.
func TestMemoryOnlyPrimaryServesNoFeed(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{{Subject: "item-0", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{repl.SnapshotPath, repl.DeltasPath + "?from=0&digest=00000000000000000000000000000000"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on a memory-only primary: %s, want 404", path, resp.Status)
		}
	}
	if _, err := repl.New(repl.Options{Primary: ts.URL}); err == nil || !strings.Contains(err.Error(), "is the primary serving a replication feed?") {
		t.Fatalf("booting from a memory-only primary: %v", err)
	}
}
