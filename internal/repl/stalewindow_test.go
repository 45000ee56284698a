package repl_test

// Stale-window test: a replica paused while the primary checkpoints its log
// holds a position the live log no longer carries — the writes after it were
// folded into a segment — so it must be told (410), re-snapshot, and
// converge: never serve silently-forked state.

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/repl"
)

// TestStaleWindowResnapshot pauses a replica while writes run past a small
// CheckpointBytes budget, then checkpoints once more, so the paused position
// lies behind the chain's stamp; the resume poll answers 410 Gone, the
// replica re-snapshots in the same Step (diffing onto the fresh state through
// its own reasoner), and the views converge byte-for-byte.
func TestStaleWindowResnapshot(t *testing.T) {
	psrv, _ := openPrimary(t, t.TempDir(), 4<<10)
	ts := httptest.NewServer(psrv.Handler())
	t.Cleanup(ts.Close)
	primary := psrv.Reasoner()
	rep, applier := newReplica(t, ts.URL, repl.Options{})

	// Phase 1: streaming replication, one Step per write.
	m := newMutator(59, primary)
	for i := 0; i < 6; i++ {
		m.step(t)
		step(t, rep, applier, primary)
	}
	converged(t, "streaming", rep, applier, primary)

	// Phase 2: pause the replica and write past the checkpoint budget; the
	// last checkpoint is asked for, so the window has surely moved on.
	pausedAt := rep.Status().AppliedGeneration
	for i := 0; i < 60; i++ {
		m.step(t)
	}
	resp, err := http.Post(ts.URL+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /checkpoint: %s", resp.Status)
	}
	if oldest := feedStats(t, ts.URL).Oldest; oldest <= pausedAt {
		t.Fatalf("the log still serves from generation %d, the replica paused at %d", oldest, pausedAt)
	}

	// Phase 3: resume. The replica's position is gone from the live log; one
	// Step is refused and recovers through a fresh snapshot.
	step(t, rep, applier, primary)
	if st := rep.Status(); st.Resnapshots != 1 || st.Reconnects != 0 {
		t.Fatalf("resuming behind the live log: %+v, want one re-snapshot and no reconnect", st)
	}
	converged(t, "after the re-snapshot", rep, applier, primary)

	// Phase 4: streaming replication keeps working after the recovery.
	for i := 0; i < 5; i++ {
		m.step(t)
		step(t, rep, applier, primary)
	}
	converged(t, "after post-recovery mutations", rep, applier, primary)
}
