package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/store"
)

// postCheckpoint drives /checkpoint through the in-process handler.
func postCheckpoint(t testing.TB, s *Server) (int, CheckpointResponse, ErrorResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/checkpoint", nil))
	var resp CheckpointResponse
	var errResp ErrorResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(rec.Body.Bytes(), &errResp); err != nil {
		t.Fatal(err)
	}
	return rec.Code, resp, errResp
}

// TestDurableServerLifecycle is the serving-stack acceptance path: a server
// whose base store is journaled by a durable engine, mutated over HTTP,
// checkpointed over HTTP, shut down, and recovered — the recovered asserted
// store must byte-match the served one.
func TestDurableServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// Corpus loads AFTER Open, through the journaled store, like ontoserve.
	if _, err := base.AddBatch(carCorpus(t).Triples()); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Base: base, Durable: eng})

	st := getStats(t, s)
	if st.Durability == nil {
		t.Fatal("/stats has no durability block on a durable server")
	}
	if st.Durability.Seq == 0 || st.Durability.Checkpoints != 0 {
		t.Fatalf("durability block before checkpoint: %+v", st.Durability)
	}

	// Mutate over the wire; the journal commits inside the request.
	code, mresp, errResp := postTriples(t, s, MutateRequest{
		Add:    []TripleJSON{{Subject: "t1", Predicate: "locatedIn", Object: "lisbon"}},
		Remove: []TripleJSON{{Subject: "beetle", Predicate: "locatedIn", Object: "rome"}},
	})
	if code != http.StatusOK || mresp.Added != 1 || mresp.Removed != 1 {
		t.Fatalf("/triples = %d %+v %+v", code, mresp, errResp)
	}

	code, cresp, errResp := postCheckpoint(t, s)
	if code != http.StatusOK {
		t.Fatalf("/checkpoint = %d: %+v", code, errResp)
	}
	if cresp.Durability == nil || cresp.Durability.Checkpoints != 1 || cresp.Durability.Segments != 1 {
		t.Fatalf("/checkpoint response: %+v", cresp.Durability)
	}
	if cresp.Durability.WALBytes != 0 {
		t.Fatalf("WALBytes = %d right after a checkpoint, want 0", cresp.Durability.WALBytes)
	}
	if len(cresp.Durability.Tiers) != 1 {
		t.Fatalf("checkpoint reports %d segment tiers, want 1", len(cresp.Durability.Tiers))
	}
	if tier := cresp.Durability.Tiers[0]; tier.Start != 1 || tier.End != cresp.Durability.SegmentSeq || tier.Triples == 0 || tier.Tombstones != 0 || tier.Bytes == 0 {
		t.Fatalf("base tier after first checkpoint: %+v", tier)
	}
	if cresp.Durability.WriteAmplification <= 1 {
		t.Fatalf("write amplification %v after a checkpoint, want > 1 (the segment dump is extra physical bytes)", cresp.Durability.WriteAmplification)
	}
	if st := getStats(t, s); st.Durability.Checkpoints != 1 {
		t.Fatalf("/stats after checkpoint: %+v", st.Durability)
	}

	// Method check mirrors the other endpoints.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/checkpoint", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint = %d, want 405", rec.Code)
	}

	// Shut down and recover: the asserted store must come back byte-equal.
	var before strings.Builder
	if _, err := base.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := store.New()
	eng2, err := durable.Open(recovered, durable.Options{Dir: dir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatalf("recovery after server shutdown: %v", err)
	}
	defer eng2.Close()
	var after strings.Builder
	if _, err := recovered.Snapshot(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatal("recovered asserted store differs from the served one")
	}
}

// deadJournal is a store.Journal whose every commit fails while err is set,
// standing in for a log whose disk stopped taking fsyncs.
type deadJournal struct{ err error }

func (*deadJournal) JournalDict(store.SymbolID, []store.NameRun)                       {}
func (*deadJournal) JournalMutation(adds, removes []store.IDTriple, at store.Position) {}
func (j *deadJournal) JournalWait() error                                              { return j.err }

// TestRemoveDurabilityFailureIs500 pins the removal half of the /triples
// durability contract: a request that retracts — alone or beside adds — and
// whose journal commit fails is answered 500 from the write's own error, with
// no durability engine to poll, matching the add path's ErrJournal mapping.
func TestRemoveDurabilityFailureIs500(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch(carCorpus(t).Triples()); err != nil {
		t.Fatal(err)
	}
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "t2", Predicate: "locatedIn", Object: "lisbon"},
		{Subject: "t3", Predicate: "locatedIn", Object: "lisbon"},
	}); err != nil {
		t.Fatal(err)
	}
	journal := &deadJournal{}
	base.SetJournal(journal)
	defer base.SetJournal(nil)
	s := newTestServer(t, Config{Base: base}) // the 500 comes from the write's own error

	// Healthy log: removals are acknowledged normally.
	code, mresp, errResp := postTriples(t, s, MutateRequest{
		Remove: []TripleJSON{{Subject: "beetle", Predicate: "locatedIn", Object: "rome"}},
	})
	if code != http.StatusOK || mresp.Removed != 1 {
		t.Fatalf("/triples remove on a healthy log = %d %+v %+v", code, mresp, errResp)
	}

	// Dead log: the removal still applies in memory, but acknowledging it
	// as durable would be a lie — the handler must 500.
	journal.err = errors.New("log write: disk on fire")
	for name, req := range map[string]MutateRequest{
		"remove-only": {Remove: []TripleJSON{{Subject: "t2", Predicate: "locatedIn", Object: "lisbon"}}},
		"two-sided": {
			Add:    []TripleJSON{{Subject: "t3", Predicate: "locatedIn", Object: "porto"}},
			Remove: []TripleJSON{{Subject: "t3", Predicate: "locatedIn", Object: "lisbon"}},
		},
	} {
		code, _, errResp = postTriples(t, s, req)
		if code != http.StatusInternalServerError {
			t.Fatalf("%s /triples on a dead log = %d, want 500 (%+v)", name, code, errResp)
		}
		if !strings.Contains(errResp.Error, "not durable") {
			t.Fatalf("%s: error %q does not say the write is not durable", name, errResp.Error)
		}
	}
	for _, gone := range []string{"t2", "t3"} {
		if base.Contains(store.Triple{Subject: gone, Predicate: "locatedIn", Object: "lisbon"}) {
			t.Fatalf("%s's removal was answered 500 but is not applied in memory", gone)
		}
	}
	if !base.Contains(store.Triple{Subject: "t3", Predicate: "locatedIn", Object: "porto"}) {
		t.Fatal("the two-sided write's add was answered 500 but is not applied in memory")
	}
	// Removing a triple that was never present journals nothing — no false
	// 500 for a no-op, even on a dead log.
	code, mresp, errResp = postTriples(t, s, MutateRequest{
		Remove: []TripleJSON{{Subject: "nobody", Predicate: "locatedIn", Object: "nowhere"}},
	})
	if code != http.StatusOK || mresp.Removed != 0 {
		t.Fatalf("/triples no-op remove on a dead log = %d %+v %+v, want 200 with removed=0", code, mresp, errResp)
	}
}

// TestAddDurabilityFailureIs500AndInvalidates pins the add half of the
// /triples durability contract end to end: a batch whose journal commit fails
// is answered 500 — and, because it IS applied in memory, the materialization
// is maintained and the result cache invalidated exactly as for an
// acknowledged write, so no reader is served an answer from before it.
func TestAddDurabilityFailureIs500AndInvalidates(t *testing.T) {
	base := carCorpus(t)
	s := newTestServer(t, Config{Base: base})
	q := QueryRequest{BGP: "?x type vehicle"}
	if first := postQuery(t, s, q); first.trailer.Cached || len(first.rows) != 3 {
		t.Fatalf("first query: cached=%v rows=%v, want 3 uncached", first.trailer.Cached, first.rows)
	}
	if again := postQuery(t, s, q); !again.trailer.Cached {
		t.Fatal("repeated query was not served from cache")
	}

	base.SetJournal(&deadJournal{err: errors.New("fsync: disk on fire")})
	defer base.SetJournal(nil)
	code, _, errResp := postTriples(t, s, MutateRequest{
		Add: []TripleJSON{{Subject: "van1", Predicate: store.TypePredicate, Object: "car"}},
	})
	if code != http.StatusInternalServerError || !strings.Contains(errResp.Error, "not durable") {
		t.Fatalf("/triples add on a dead log = %d %q, want 500 naming the lost durability", code, errResp.Error)
	}
	after := postQuery(t, s, q)
	if after.trailer.Cached {
		t.Fatal("query cached before the failed write was replayed after it")
	}
	if !containsString(after.values("x"), "van1") {
		t.Fatalf("re-evaluated query %v lacks the inference from the applied batch", after.values("x"))
	}
}

func TestCheckpointWithoutDurableEngine(t *testing.T) {
	s := newTestServer(t, Config{})
	code, _, errResp := postCheckpoint(t, s)
	if code != http.StatusConflict {
		t.Fatalf("/checkpoint on an in-memory server = %d, want 409", code)
	}
	if !strings.Contains(errResp.Error, "memory") {
		t.Fatalf("error %q does not say the server is memory-only", errResp.Error)
	}
	if st := getStats(t, s); st.Durability != nil {
		t.Fatalf("in-memory server reports durability: %+v", st.Durability)
	}
}
