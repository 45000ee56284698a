package repl_test

// Stale-window test: a replica paused for longer than the primary's
// retained delta window must detect the gap (the dense generation chain
// breaks at its resume point), re-snapshot, and converge — never serve
// silently-forked state.

import (
	"testing"

	"repro/internal/repl"
)

// TestStaleWindowResnapshot pauses a replica, pushes more history than the
// primary retains, and resumes: the resume poll answers 410 Gone, the
// replica re-snapshots in the same Step (diffing onto the fresh state
// through its own reasoner), and the views converge byte-for-byte.
func TestStaleWindowResnapshot(t *testing.T) {
	psrv, ts := newPrimary(t)
	primary := psrv.Reasoner()
	rep, applier := newReplica(t, ts.URL, repl.Options{})

	// Phase 1: streaming replication, one Step per write.
	m := newMutator(59, primary)
	for i := 0; i < 6; i++ {
		m.step(t)
		step(t, rep, applier)
	}
	converged(t, "streaming", rep, applier, primary)

	// Phase 2: pause the replica and out-run the retained window — random
	// writes the re-snapshot must reconcile, then one-triple toggles, which
	// are cheaper, for the rest of the window.
	retain := feedStats(t, ts.URL).Retain
	pausedAt := rep.Status().AppliedGeneration
	for i := 0; i < 50; i++ {
		m.step(t)
	}
	toggle(t, primary, retain+1-int(primary.Generation()-pausedAt))

	// Phase 3: resume. The replica's position is gone from the window; one
	// Step detects the gap and recovers through a fresh snapshot.
	step(t, rep, applier)
	if st := rep.Status(); st.Resnapshots != 1 || st.Reconnects != 0 {
		t.Fatalf("resuming past the retained window: %+v, want one re-snapshot and no reconnect", st)
	}
	converged(t, "after the re-snapshot", rep, applier, primary)

	// Phase 4: streaming replication keeps working after the recovery.
	for i := 0; i < 5; i++ {
		m.step(t)
		step(t, rep, applier)
	}
	converged(t, "after post-recovery mutations", rep, applier, primary)
}
