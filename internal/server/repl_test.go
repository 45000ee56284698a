package server

// Tests for the server side of the replication tier: the primary's feed
// endpoints, the replica's read-only mode (403s naming the primary), and
// the replication blocks of /stats and /healthz.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/store"
)

// stubReplica feeds a fixed status into the server's replica surfaces.
type stubReplica struct{ st repl.Status }

func (s stubReplica) Status() repl.Status { return s.st }

func (stubReplica) RegisterMetrics(*obs.Registry) {}

// replTestBase builds a tiny asserted store.
func replTestBase(t *testing.T) *store.Store {
	t.Helper()
	base := store.New()
	_, err := base.AddBatch([]store.Triple{
		{Subject: "item-0", Predicate: store.TypePredicate, Object: "c0"},
		{Subject: "c0", Predicate: "subClassOf", Object: "c1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// do runs one request through the full handler chain.
func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	return rec
}

func TestReplicaRejectsWrites(t *testing.T) {
	s, err := New(Config{
		Base:    replTestBase(t),
		Replica: stubReplica{st: repl.Status{Primary: "http://primary.example:8080", Lag: 3, Connected: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mutation, _ := json.Marshal(MutateRequest{Add: []TripleJSON{{Subject: "x", Predicate: "type", Object: "c0"}}})
	for _, tc := range []struct {
		target string
		body   []byte
	}{
		{"/triples", mutation},
		{"/checkpoint", nil},
	} {
		rec := do(t, s, http.MethodPost, tc.target, tc.body)
		if rec.Code != http.StatusForbidden {
			t.Fatalf("POST %s on a replica: got %d, want 403 (%s)", tc.target, rec.Code, rec.Body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("POST %s: non-JSON 403 body %q", tc.target, rec.Body)
		}
		if !strings.Contains(er.Error, "http://primary.example:8080") {
			t.Fatalf("POST %s: 403 error does not name the primary: %q", tc.target, er.Error)
		}
	}
	// Reads still serve.
	q, _ := json.Marshal(QueryRequest{BGP: "?x type c1"})
	if rec := do(t, s, http.MethodPost, "/query", q); rec.Code != http.StatusOK {
		t.Fatalf("replica refused a read: %d %s", rec.Code, rec.Body)
	}
	// A replica serves no feed of its own (replicas do not chain).
	if rec := do(t, s, http.MethodGet, "/repl/snapshot", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /repl/snapshot on a replica: got %d, want 404", rec.Code)
	}
}

func TestReplicaHealthAndStatsReportLag(t *testing.T) {
	st := repl.Status{Primary: "http://p:1", AppliedGeneration: 40, PrimaryGeneration: 47, Lag: 7, Reconnects: 2}
	s, err := New(Config{Base: replTestBase(t), Replica: stubReplica{st: st}})
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	rec := do(t, s, http.MethodGet, "/healthz", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Replication == nil || health.Replication.Role != "replica" {
		t.Fatalf("healthz replication block = %+v", health.Replication)
	}
	if health.Replication.Replica.Lag != 7 {
		t.Fatalf("healthz lag = %d, want 7", health.Replication.Replica.Lag)
	}

	var stats StatsResponse
	rec = do(t, s, http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	r := stats.Replication
	if r == nil || r.Role != "replica" || r.Replica == nil {
		t.Fatalf("stats replication block = %+v", r)
	}
	if r.Replica.AppliedGeneration != 40 || r.Replica.Lag != 7 || r.Replica.Reconnects != 2 {
		t.Fatalf("stats replica status = %+v", r.Replica)
	}
}

func TestPrimaryReplSnapshot(t *testing.T) {
	s, err := New(Config{Base: replTestBase(t)})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodGet, "/repl/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /repl/snapshot: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(repl.GenerationHeader); got != "0" {
		t.Fatalf("%s = %q, want 0 before any mutation", repl.GenerationHeader, got)
	}
	if got := rec.Header().Get(repl.TriplesHeader); got != "2" {
		t.Fatalf("%s = %q, want 2", repl.TriplesHeader, got)
	}
	epoch := rec.Header().Get(repl.EpochHeader)
	if epoch == "" {
		t.Fatalf("snapshot response lacks the %s header", repl.EpochHeader)
	}
	// The body is a restorable store snapshot of the asserted base only.
	scratch := store.New()
	n, err := store.Restore(scratch, rec.Body)
	if err != nil || n != 2 {
		t.Fatalf("restoring the snapshot: n=%d err=%v", n, err)
	}

	// The generation header moves with the engine.
	if _, err := s.Reasoner().AddBatch([]store.Triple{{Subject: "item-1", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, http.MethodGet, "/repl/snapshot", nil)
	if got := rec.Header().Get(repl.GenerationHeader); got != "1" {
		t.Fatalf("%s after one mutation = %q, want 1", repl.GenerationHeader, got)
	}
	// The epoch is stable across requests within one primary process.
	if got := rec.Header().Get(repl.EpochHeader); got != epoch {
		t.Fatalf("%s changed between requests: %q then %q", repl.EpochHeader, epoch, got)
	}
}

func TestPrimaryReplDeltas(t *testing.T) {
	s, err := New(Config{Base: replTestBase(t)})
	if err != nil {
		t.Fatal(err)
	}
	// An up-to-date poll with no wait returns just the trailer.
	rec := do(t, s, http.MethodGet, "/repl/deltas?from=0", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty poll: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(repl.EpochHeader); got == "" {
		t.Fatalf("deltas response lacks the %s header", repl.EpochHeader)
	}
	var tr repl.Trailer
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil || !tr.Done || tr.Gen != 0 {
		t.Fatalf("empty poll line %q: trailer=%+v err=%v", rec.Body, tr, err)
	}

	if _, err := s.Reasoner().AddBatch([]store.Triple{{Subject: "item-9", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, http.MethodGet, "/repl/deltas?from=0", nil)
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("poll after one mutation returned %d lines: %s", len(lines), rec.Body)
	}
	var fr repl.Frame
	if err := json.Unmarshal(lines[0], &fr); err != nil {
		t.Fatalf("first line is not a frame: %v", err)
	}
	if fr.Gen != 1 || len(fr.Add) != 1 || fr.Add[0].S != "item-9" {
		t.Fatalf("frame = %+v", fr)
	}
	if err := json.Unmarshal(lines[1], &tr); err != nil || !tr.Done || tr.Gen != 1 {
		t.Fatalf("trailer = %+v err=%v", tr, err)
	}

	// Outrun the retained window: from=0 is now gone.
	for i := 0; i < s.feed.Stats().Retain; i++ {
		if !s.Reasoner().Remove(store.Triple{Subject: "item-9", Predicate: store.TypePredicate, Object: "c0"}) {
			if _, err := s.Reasoner().AddBatch([]store.Triple{{Subject: "item-9", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rec := do(t, s, http.MethodGet, "/repl/deltas?from=0", nil); rec.Code != http.StatusGone {
		t.Fatalf("poll behind the window: got %d, want 410 (%s)", rec.Code, rec.Body)
	}

	// Bad parameters are 400s.
	for _, target := range []string{"/repl/deltas", "/repl/deltas?from=x", "/repl/deltas?from=0&wait=x", "/repl/deltas?from=0&max=0"} {
		if rec := do(t, s, http.MethodGet, target, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s: got %d, want 400", target, rec.Code)
		}
	}
}

// TestServeEndsParkedPollOnShutdown: a replica's long poll parked on an idle
// primary must not hold the shutdown for the poll's wait — it would outlast
// shutdownGrace, Serve would fail, and the caller would never reach its
// clean-exit path. The poll is answered (200, zero frames, the trailer) the
// moment the shutdown begins, and Serve returns nil within a second.
func TestServeEndsParkedPollOnShutdown(t *testing.T) {
	s, err := New(Config{Base: replTestBase(t)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	type pollResult struct {
		code int
		body []byte
		err  error
	}
	sent, polled := make(chan struct{}), make(chan pollResult, 1)
	go func() {
		trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { close(sent) }}
		req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodGet, "http://"+ln.Addr().String()+"/repl/deltas?from=0&wait=25s", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			polled <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		polled <- pollResult{resp.StatusCode, body, err}
	}()
	<-sent
	// The request is on the wire; give the handler a moment to park (the
	// outcome is the same if it has not yet, this only aims the test at the
	// parked case).
	time.Sleep(50 * time.Millisecond)

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve with a parked long poll: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still waiting a second after cancel: the parked long poll is holding the shutdown")
	}
	res := <-polled
	var tr repl.Trailer
	if res.err != nil || res.code != http.StatusOK || json.Unmarshal(res.body, &tr) != nil || !tr.Done {
		t.Fatalf("parked poll at shutdown: code=%d body=%q err=%v, want 200 and the trailer alone", res.code, res.body, res.err)
	}
}
