package repl_test

// End-to-end harness for the replication tier: a real primary server on a
// loopback listener, real replicas booted from /repl/snapshot and fed by
// /repl/deltas, random mutation schedules, and byte-identical-snapshot
// comparison between the two sides (the PR 3 property, now across
// processes' worth of state). The tests in this package run the full wire
// path — HTTP, ndjson frames, long polls — not in-memory shortcuts.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// newPrimary builds a primary server over a small seeded corpus and serves
// it on a loopback listener. retain sizes the delta window (0 = default).
func newPrimary(t *testing.T, retain int) (*server.Server, *httptest.Server) {
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
	srv, err := server.New(server.Config{Base: base, ReplRetain: retain})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newReplica boots a replica off the primary and materializes its base
// under the same rule set the primary's server uses. The returned reasoner
// is the applier to pass to Run.
func newReplica(t *testing.T, primaryURL string, opts repl.Options) (*repl.Replica, *reason.Reasoner) {
	t.Helper()
	opts.Primary = primaryURL
	if opts.PollWait == 0 {
		opts.PollWait = 200 * time.Millisecond
	}
	if opts.BackoffMin == 0 {
		opts.BackoffMin = 5 * time.Millisecond
	}
	if opts.BackoffMax == 0 {
		opts.BackoffMax = 50 * time.Millisecond
	}
	rep, err := repl.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reason.Materialize(rep.Base(), reason.RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	return rep, r
}

// viewSnapshot renders a reasoner's materialized view in its canonical
// byte-stable form.
func viewSnapshot(t *testing.T, r *reason.Reasoner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.View().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitApplied blocks until the replica has applied through gen.
func waitApplied(t *testing.T, rep *repl.Replica, gen uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := rep.Status()
		if st.AppliedGeneration >= gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at generation %d waiting for %d (connected=%v lastErr=%q)",
				st.AppliedGeneration, gen, st.Connected, st.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mutator drives a deterministic random mutation schedule against the
// primary's reasoner: weighted adds (instances and subclass edges, so the
// rule set derives and DRed retracts), removes of random asserted triples,
// and two-sided writes that do both at once.
type mutator struct {
	rng *rand.Rand
	r   *reason.Reasoner
	n   int
}

func newMutator(seed int64, r *reason.Reasoner) *mutator {
	return &mutator{rng: rand.New(rand.NewSource(seed)), r: r}
}

// step applies one random mutation and reports whether it changed anything.
func (m *mutator) step(t *testing.T) bool {
	t.Helper()
	m.n++
	switch k := m.rng.Intn(13); {
	case k < 5: // assert a batch of instance annotations
		batch := make([]store.Triple, 1+m.rng.Intn(3))
		for i := range batch {
			batch[i] = store.Triple{
				Subject:   "item-" + strconv.Itoa(m.rng.Intn(50)),
				Predicate: store.TypePredicate,
				Object:    "c" + strconv.Itoa(m.rng.Intn(8)),
			}
		}
		n, err := m.r.AddBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		return n > 0
	case k < 7: // assert a subclass edge (fans out derivations)
		lo, hi := m.rng.Intn(8), m.rng.Intn(8)
		n, err := m.r.AddBatch([]store.Triple{{
			Subject:   "c" + strconv.Itoa(lo),
			Predicate: "subClassOf",
			Object:    "c" + strconv.Itoa(hi),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return n > 0
	case k < 10: // retract a random asserted triple (delete-and-rederive)
		triples := m.r.Base().Triples()
		if len(triples) == 0 {
			return false
		}
		return m.r.Remove(triples[m.rng.Intn(len(triples))])
	default: // one write on both sides: re-file an instance, retract a few asserted triples, one of them twice
		item := "item-" + strconv.Itoa(m.rng.Intn(50))
		adds := []store.Triple{
			{Subject: item, Predicate: store.TypePredicate, Object: "c" + strconv.Itoa(m.rng.Intn(8))},
			{Subject: item, Predicate: store.TypePredicate, Object: "c" + strconv.Itoa(m.rng.Intn(8))},
		}
		removes := []store.Triple{adds[m.rng.Intn(2)]} // asserted and retracted by the same write
		if triples := m.r.Base().Triples(); len(triples) > 0 {
			for i, n := 0, 1+m.rng.Intn(3); i < n; i++ {
				removes = append(removes, triples[m.rng.Intn(len(triples))])
			}
			removes = append(removes, removes[len(removes)-1])
		}
		added, removed, err := m.r.Apply(adds, removes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return added+removed > 0
	}
}

// TestReplayProperty is the replication replay property: for a random
// mutation schedule, booting from the snapshot at G and applying the
// deltas (G, G'] yields a replica whose materialized view is
// byte-identical to the primary's at every sampled G' — including after
// the feed loop is torn down and restarted mid-history (reconnect with
// resume from the applied generation). Run under -race in CI.
func TestReplayProperty(t *testing.T) {
	psrv, ts := newPrimary(t, 0)
	rep, applier := newReplica(t, ts.URL, repl.Options{})

	start := func() (stop func()) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = rep.Run(ctx, applier) }()
		return func() { cancel(); <-done }
	}
	stop := start()
	defer func() { stop() }()

	m := newMutator(41, psrv.Reasoner())
	for round := 0; round < 8; round++ {
		for i := 0; i < 5; i++ {
			m.step(t)
		}
		if round == 4 {
			// Tear the feed loop down mid-history and restart it: the
			// replica must resume from its applied generation, not re-apply
			// or skip.
			stop()
			for i := 0; i < 5; i++ {
				m.step(t) // history the replica will have missed
			}
			stop = start()
		}
		// Quiesce: no mutation runs while the snapshots are compared, so
		// the primary's generation is stable and the replica converges to
		// exactly it.
		gen := psrv.Reasoner().Generation()
		waitApplied(t, rep, gen)
		want := viewSnapshot(t, psrv.Reasoner())
		got := viewSnapshot(t, applier)
		if !bytes.Equal(want, got) {
			t.Fatalf("round %d: replica view diverged from primary at generation %d:\nprimary %d bytes, replica %d bytes",
				round, gen, len(want), len(got))
		}
	}
	// One write is one generation, one frame and one local write on the
	// replica: the four counters agree to the unit.
	gen := psrv.Reasoner().Generation()
	if st := rep.Status(); st.AppliedGeneration != gen {
		t.Fatalf("final applied generation %d != primary %d", st.AppliedGeneration, gen)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if feed := stats.Replication.Feed; uint64(feed.Appends) != gen || feed.Latest != gen {
		t.Fatalf("primary at generation %d published %d frames through generation %d", gen, feed.Appends, feed.Latest)
	}
	if applier.Generation() != gen {
		t.Fatalf("the replica applied %d frames as %d local writes", gen, applier.Generation())
	}
}

// TestReplicaBootState pins the boot contract: a fresh replica's base is
// byte-identical to the primary's asserted store, at the generation the
// snapshot header advertised.
func TestReplicaBootState(t *testing.T) {
	psrv, ts := newPrimary(t, 0)
	// Advance past generation 0 so the boot generation is non-trivial.
	m := newMutator(7, psrv.Reasoner())
	for i := 0; i < 10; i++ {
		m.step(t)
	}
	rep, applier := newReplica(t, ts.URL, repl.Options{})
	if got, want := rep.Status().AppliedGeneration, psrv.Reasoner().Generation(); got != want {
		t.Fatalf("boot generation %d, primary at %d", got, want)
	}
	var pb, rb bytes.Buffer
	if _, _, err := psrv.Reasoner().SnapshotBase(&pb); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Base().Snapshot(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), rb.Bytes()) {
		t.Fatal("replica base differs from primary base after boot")
	}
	// And the derived overlay matches too: same asserted store, same rules.
	if !bytes.Equal(viewSnapshot(t, psrv.Reasoner()), viewSnapshot(t, applier)) {
		t.Fatal("replica view differs from primary view after boot")
	}
}
