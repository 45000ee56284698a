package repl_test

// End-to-end harness for the replication tier: a real durable primary server
// on a loopback listener, real replicas booted from /repl/snapshot and fed by
// /repl/deltas, random mutation schedules, and byte-identical-snapshot and
// digest comparison between the two sides. The tests in this package run the
// full wire path — HTTP, the log's own frames — not in-memory shortcuts. They
// advance replicas round by round with Step, so every schedule is exact and
// no test waits on a clock; TestRunFollowsTheFeed is the one test of Run's
// loop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// newPrimary builds a durable primary server over a small seeded corpus in a
// fresh data directory and serves it on a loopback listener.
func newPrimary(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, _ := openPrimary(t, t.TempDir(), -1)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// openPrimary builds one primary "process" over the data directory dir: the
// engine recovered from it, the seed corpus loaded when the directory was
// pristine, and a server over both. checkpointBytes is the engine's
// automatic-checkpoint budget (negative: none). The engine closes with the
// test, and the server is the caller's to serve.
func openPrimary(t *testing.T, dir string, checkpointBytes int64) (*server.Server, *durable.Engine) {
	t.Helper()
	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: dir, Fsync: durable.FsyncOff, CheckpointBytes: checkpointBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if eng.LastSeq() == 0 {
		seed := []store.Triple{
			{Subject: "item-0", Predicate: store.TypePredicate, Object: "c0"},
			{Subject: "item-1", Predicate: store.TypePredicate, Object: "c1"},
			{Subject: "c0", Predicate: "subClassOf", Object: "c1"},
			{Subject: "c1", Predicate: "subClassOf", Object: "c2"},
		}
		if _, err := base.AddBatch(seed); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{Base: base, Durable: eng})
	if err != nil {
		t.Fatal(err)
	}
	return srv, eng
}

// newReplica boots a replica off the primary and materializes its base
// under the same rule set the primary's server uses. The returned reasoner
// is the applier to pass to Step and Run.
func newReplica(t *testing.T, primaryURL string, opts repl.Options) (*repl.Replica, *reason.Reasoner) {
	t.Helper()
	opts.Primary = primaryURL
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

// step advances the replica by one round and fails the test if the round
// fails, if the replica's store is not at the digest of the position it
// reports, or if that position's generation is the primary's but its digest
// is not.
func step(t *testing.T, rep *repl.Replica, applier, primary *reason.Reasoner) {
	t.Helper()
	if err := rep.Step(context.Background(), applier); err != nil {
		t.Fatalf("step: %v (status %+v)", err, rep.Status())
	}
	st := rep.Status()
	if got := applier.Base().Position().Digest; got != st.AppliedDigest {
		t.Fatalf("step: the replica's store has digest %v at the applied position %d/%v", got, st.AppliedGeneration, st.AppliedDigest)
	}
	if at := primary.Base().Position(); st.AppliedGeneration == at.Gen && st.AppliedDigest != at.Digest {
		t.Fatalf("step: the replica is at generation %d with digest %v, the primary with %v", at.Gen, st.AppliedDigest, at.Digest)
	}
}

// converged fails the test unless the replica has applied through the
// primary's position, reports no lag, no error and no digest mismatch, and
// serves a view byte-identical to the primary's.
func converged(t *testing.T, what string, rep *repl.Replica, applier, primary *reason.Reasoner) {
	t.Helper()
	st := rep.Status()
	at := primary.Base().Position()
	if st.AppliedGeneration != at.Gen || st.AppliedDigest != at.Digest || st.Lag != 0 || st.LastError != "" || st.DigestMismatches != 0 {
		t.Fatalf("%s: replica status %+v, primary at %v", what, st, at)
	}
	if got := applier.Base().Position().Digest; got != at.Digest {
		t.Fatalf("%s: the replica's digest is %v, the primary's %v", what, got, at.Digest)
	}
	if want, got := viewSnapshot(t, primary), viewSnapshot(t, applier); !bytes.Equal(want, got) {
		t.Fatalf("%s: replica view diverged from the primary's at generation %d: primary %d bytes, replica %d bytes",
			what, st.AppliedGeneration, len(want), len(got))
	}
}

// feedStats reads the feed block of a durable primary's /stats.
func feedStats(t *testing.T, primaryURL string) repl.FeedStats {
	t.Helper()
	resp, err := http.Get(primaryURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || stats.Replication.Feed == nil {
		t.Fatalf("/stats carries no feed block: %+v", stats.Replication)
	}
	return *stats.Replication.Feed
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
// byte-identical to the primary's at every G'. Staleness is at most one
// generation: one Step after each primary write leaves the replica caught
// up, without error. A replica left behind for several writes resumes from
// its applied generation in one Step, neither re-applying nor skipping. And
// a replica abandoned mid-history while writes continue — all a SIGKILL can
// do to a replica, which keeps no state — is replaced by a fresh boot that
// one Step brings to the primary. Run under -race in CI.
func TestReplayProperty(t *testing.T) {
	psrv, ts := newPrimary(t)
	primary := psrv.Reasoner()
	rep, applier := newReplica(t, ts.URL, repl.Options{})
	abandoned, abandonedApplier := newReplica(t, ts.URL, repl.Options{})
	var fresh *repl.Replica
	var freshApplier *reason.Reasoner

	m := newMutator(41, primary)
	for round := 0; round < 8; round++ {
		switch round {
		case 4:
			for i := 0; i < 5; i++ {
				m.step(t) // history the replica has missed
			}
			step(t, rep, applier, primary)
			converged(t, "after five missed writes", rep, applier, primary)
		case 5:
			if st := abandoned.Status(); st.AppliedGeneration == 0 || st.AppliedGeneration == primary.Generation() {
				t.Fatalf("the abandoned replica is not mid-history: %+v at primary generation %d", st, primary.Generation())
			}
			fresh, freshApplier = newReplica(t, ts.URL, repl.Options{})
		}
		for i := 0; i < 5; i++ {
			m.step(t)
			step(t, rep, applier, primary)
			converged(t, fmt.Sprintf("round %d write %d", round, i), rep, applier, primary)
			if round < 3 {
				step(t, abandoned, abandonedApplier, primary)
			}
		}
	}
	step(t, fresh, freshApplier, primary)
	converged(t, "the replacement replica", fresh, freshApplier, primary)

	// One write is one generation, one record and one local write on the
	// replica: the counters agree to the unit.
	gen := primary.Generation()
	if feed := feedStats(t, ts.URL); feed.Latest != gen || feed.Oldest != 0 {
		t.Fatalf("primary at generation %d serves its log through generation %d from %d", gen, feed.Latest, feed.Oldest)
	}
	if applier.Generation() != gen {
		t.Fatalf("the replica applied %d writes as %d local writes", gen, applier.Generation())
	}
}

// TestReplicaBootState pins the boot contract: a fresh replica's base is
// byte-identical to the primary's asserted store, at the primary's position.
func TestReplicaBootState(t *testing.T) {
	psrv, ts := newPrimary(t)
	// Advance past generation 0 so the boot generation is non-trivial.
	m := newMutator(7, psrv.Reasoner())
	for i := 0; i < 10; i++ {
		m.step(t)
	}
	rep, applier := newReplica(t, ts.URL, repl.Options{})
	if got, want := rep.Base().Position(), psrv.Reasoner().Base().Position(); got != want {
		t.Fatalf("boot position %v, primary at %v", got, want)
	}
	if st := rep.Status(); st.AppliedGeneration != psrv.Reasoner().Generation() {
		t.Fatalf("boot status %+v, primary at generation %d", st, psrv.Reasoner().Generation())
	}
	var pb, rb bytes.Buffer
	if _, err := psrv.Reasoner().Base().Snapshot(&pb); err != nil {
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

// recordingTransport records the wait parameter of every /repl/deltas
// request it passes on, and signals each one on sent when that is set.
type recordingTransport struct {
	sent chan struct{}

	mu    sync.Mutex
	waits []string
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == repl.DeltasPath {
		rt.mu.Lock()
		rt.waits = append(rt.waits, req.URL.Query().Get("wait"))
		rt.mu.Unlock()
		if rt.sent != nil {
			select {
			case rt.sent <- struct{}{}:
			default:
			}
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// polls returns the wait parameters recorded so far, in request order.
func (rt *recordingTransport) polls() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return slices.Clone(rt.waits)
}

// TestCaughtUpStepNeverParks: a Step asks the primary for no wait, so a
// caught-up replica's Step returns at once instead of holding a long poll
// open — what lets a test or a simulation advance a replica step by step.
func TestCaughtUpStepNeverParks(t *testing.T) {
	psrv, ts := newPrimary(t)
	rt := &recordingTransport{}
	rep, applier := newReplica(t, ts.URL, repl.Options{Client: &http.Client{Transport: rt}})
	start := time.Now()
	step(t, rep, applier, psrv.Reasoner())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("a caught-up Step took %v: it parked on the primary", elapsed)
	}
	if waits := rt.polls(); !slices.Equal(waits, []string{"0s"}) {
		t.Fatalf("a Step sent /repl/deltas requests with waits %q, want one with wait=0s", waits)
	}
	converged(t, "a caught-up step", rep, applier, psrv.Reasoner())
}

// TestRunFollowsTheFeed is the one test of Run itself, on a real listener:
// Run long-polls the primary (wait=25s), a commit on the primary wakes the
// parked poll long before its wait is up, and cancelling ctx returns Run.
func TestRunFollowsTheFeed(t *testing.T) {
	psrv, ts := newPrimary(t)
	rt := &recordingTransport{sent: make(chan struct{}, 1)}
	rep, applier := newReplica(t, ts.URL, repl.Options{Client: &http.Client{Transport: rt}})
	applied := make(chan struct{}, 1)
	applier.SetOnEvent(func(reason.Delta) {
		select {
		case applied <- struct{}{}:
		default:
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = rep.Run(ctx, applier) }()

	select {
	case <-rt.sent:
	case <-time.After(10 * time.Second):
		t.Fatal("Run sent no poll")
	}
	// The poll is on the wire; give the primary a moment to park it (the
	// outcome is the same if it has not yet, this only aims the test at the
	// parked case).
	time.Sleep(50 * time.Millisecond)
	if _, err := psrv.Reasoner().AddBatch([]store.Triple{{Subject: "item-9", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-applied:
	case <-time.After(10 * time.Second):
		t.Fatalf("the commit did not wake the parked poll: waits %q, status %+v", rt.polls(), rep.Status())
	}
	if waits := rt.polls(); waits[0] != "25s" {
		t.Fatalf("Run's first poll asked for wait=%s, want 25s", waits[0])
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after its ctx was cancelled")
	}
	converged(t, "after Run", rep, applier, psrv.Reasoner())
}

// TestReplicaExpandReadsTheShippedSchema: a replica is served with no TBox
// of its own, so its mode=expand reads the schema the log ships. After the
// primary takes a subClassOf edge and the replica steps, and again after the
// edge is removed, the replica's expand answer for every class, evaluated
// and then cached, equals the primary's materialized one.
func TestReplicaExpandReadsTheShippedSchema(t *testing.T) {
	psrv, ts := newPrimary(t)
	rep, err := repl.New(repl.Options{Primary: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := server.New(server.Config{Base: rep.Base(), Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(rts.Close)

	edge := store.Triple{Subject: "c2", Predicate: reason.SubClassOfPredicate, Object: "c3"}
	for _, w := range []struct {
		what   string
		adds   []store.Triple
		remove []store.Triple
	}{{"schema add", []store.Triple{edge}, nil}, {"schema remove", nil, []store.Triple{edge}}} {
		if _, _, err := psrv.Reasoner().Apply(w.adds, w.remove, nil); err != nil {
			t.Fatal(err)
		}
		step(t, rep, rsrv.Reasoner(), psrv.Reasoner())
		converged(t, w.what, rep, rsrv.Reasoner(), psrv.Reasoner())
		for _, class := range []string{"c0", "c1", "c2", "c3"} {
			want, _ := classQuery(t, ts.URL, class, server.ModeMaterialized)
			for _, cached := range []bool{false, true} {
				got, hit := classQuery(t, rts.URL, class, server.ModeExpand)
				if !slices.Equal(got, want) || hit != cached {
					t.Fatalf("%s, %s: replica expand = %v (cached %v), primary materialized = %v", w.what, class, got, hit, want)
				}
			}
		}
	}
}

// classQuery asks a server for ?x type class in the given mode and returns
// the sorted bindings of x and whether the answer came from the cache.
func classQuery(t *testing.T, url, class, mode string) ([]string, bool) {
	t.Helper()
	body, err := json.Marshal(server.QueryRequest{BGP: "?x type " + class, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s query: status %d", url, mode, resp.StatusCode)
	}
	xs, cached := []string{}, false
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		var line struct {
			Bind   map[string]string `json:"bind"`
			Error  string            `json:"error"`
			Cached bool              `json:"cached"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Error != "" {
			t.Fatalf("%s %s query: %s", url, mode, line.Error)
		}
		if x, ok := line.Bind["x"]; ok {
			xs = append(xs, x)
		}
		cached = cached || line.Cached
	}
	slices.Sort(xs)
	return xs, cached
}
