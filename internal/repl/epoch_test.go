package repl_test

// Primary-restart (epoch) test: generations come from an in-memory counter
// that restarts at zero with the primary process, so generation N of the
// restarted primary's history is not generation N of the history a replica
// booted from. Without an epoch check a replica at applied=N would report
// itself connected with lag 0 while arbitrarily stale, and — once the new
// history's counter passed N — silently apply the new history's frames on
// top of the old history's state. The epoch carried on every feed response
// is what turns that fork into a re-snapshot.

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// seededServer builds one primary "process": a fresh server (fresh feed
// epoch, generation counter at zero) over the standard seed corpus.
func seededServer(t *testing.T) *server.Server {
	t.Helper()
	base := store.New()
	seed := []store.Triple{
		{Subject: "item-0", Predicate: store.TypePredicate, Object: "c0"},
		{Subject: "item-1", Predicate: store.TypePredicate, Object: "c1"},
		{Subject: "c0", Predicate: "subClassOf", Object: "c1"},
		{Subject: "c1", Predicate: "subClassOf", Object: "c2"},
	}
	if _, err := base.AddBatch(seed); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestPrimaryRestartForcesResnapshot replicates from a primary, then swaps
// in a "restarted" one — same address, same seed corpus, fresh process
// state — whose new history has already been driven past the replica's
// applied generation, so every poll would hand out plausible-looking,
// non-gapped frames from the wrong history. The replica's next Step must
// detect the epoch change, re-snapshot, and converge on the new history
// byte-for-byte.
func TestPrimaryRestartForcesResnapshot(t *testing.T) {
	srvA := seededServer(t)
	var cur atomic.Value // the live primary behind the fixed address
	cur.Store(srvA.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	rep, applier := newReplica(t, ts.URL, repl.Options{})

	// History A: stream a prefix to the replica.
	mA := newMutator(71, srvA.Reasoner())
	for i := 0; i < 12; i++ {
		mA.step(t)
		step(t, rep, applier)
	}
	converged(t, "history A", rep, applier, srvA.Reasoner())
	epochA := rep.Status().PrimaryEpoch
	if epochA == "" {
		t.Fatal("replica did not pin the primary's epoch at boot")
	}
	appliedA := rep.Status().AppliedGeneration

	// "Restart": a new primary process whose history diverges from A's and
	// whose generation counter is driven past the replica's position before
	// the swap — the exact shape that made forked convergence possible.
	srvB := seededServer(t)
	mB := newMutator(83, srvB.Reasoner())
	for srvB.Reasoner().Generation() <= appliedA+4 {
		mB.step(t)
	}
	cur.Store(srvB.Handler())

	step(t, rep, applier)
	if st := rep.Status(); st.PrimaryEpoch == epochA || st.Resnapshots != 1 {
		t.Fatalf("after the primary restart: %+v, want the new epoch pinned by one re-snapshot", st)
	}
	converged(t, "after the primary restart", rep, applier, srvB.Reasoner())

	// Streaming replication continues on the new history.
	for i := 0; i < 5; i++ {
		mB.step(t)
		step(t, rep, applier)
	}
	converged(t, "after post-restart mutations", rep, applier, srvB.Reasoner())
}
