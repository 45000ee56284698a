package server

// Tests for the server side of the replication tier: the durable primary's
// feed endpoints, the replica's read-only mode (403s naming the primary),
// and the replication blocks of /stats and /healthz.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
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

// replPrimary is a durable primary over replTestBase's triples in a fresh
// data directory, and its engine.
func replPrimary(t *testing.T) (*Server, *durable.Engine) {
	t.Helper()
	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncOff, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := base.AddBatch(replTestBase(t).Triples()); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Base: base, Durable: eng})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
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
	s, _ := replPrimary(t)
	rec := do(t, s, http.MethodGet, "/repl/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /repl/snapshot: %d %s", rec.Code, rec.Body)
	}
	at := s.Reasoner().Base().Position()
	if got := rec.Header().Get(repl.GenerationHeader); got != "0" {
		t.Fatalf("%s = %q, want 0 before any mutation", repl.GenerationHeader, got)
	}
	if got := rec.Header().Get(repl.DigestHeader); got != at.Digest.String() {
		t.Fatalf("%s = %q, want the base's digest %v", repl.DigestHeader, got, at.Digest)
	}
	// The body loads with the data directory's own checks into the asserted
	// base only.
	scratch := store.New()
	if _, err := durable.LoadSnapshot(scratch, rec.Body.Bytes()); err != nil || scratch.Len() != 2 {
		t.Fatalf("loading the snapshot: %d triples, %v", scratch.Len(), err)
	}

	// The stamp moves with the engine.
	if _, err := s.Reasoner().AddBatch([]store.Triple{{Subject: "item-1", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, http.MethodGet, "/repl/snapshot", nil)
	if got := rec.Header().Get(repl.GenerationHeader); got != "1" {
		t.Fatalf("%s after one mutation = %q, want 1", repl.GenerationHeader, got)
	}

	// A primary without a data directory has no log to serve.
	mem, err := New(Config{Base: replTestBase(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/repl/snapshot", "/repl/deltas?from=0&digest=" + at.Digest.String()} {
		if rec := do(t, mem, http.MethodGet, target, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s on a memory-only primary: %d, want 404", target, rec.Code)
		}
	}
}

// deltas is the /repl/deltas target reading from at.
func deltas(at store.Position, query string) string {
	return "/repl/deltas?from=" + strconv.FormatUint(at.Gen, 10) + "&digest=" + at.Digest.String() + query
}

func TestPrimaryReplDeltas(t *testing.T) {
	s, eng := replPrimary(t)
	snap := do(t, s, http.MethodGet, "/repl/snapshot", nil).Body.Bytes()
	at := s.Reasoner().Base().Position()
	// An up-to-date poll with no wait returns nothing, and the position.
	rec := do(t, s, http.MethodGet, deltas(at, ""), nil)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get(repl.GenerationHeader) != "0" {
		t.Fatalf("empty poll: %d, %d bytes, generation %q", rec.Code, rec.Body.Len(), rec.Header().Get(repl.GenerationHeader))
	}

	if _, err := s.Reasoner().AddBatch([]store.Triple{{Subject: "item-9", Predicate: store.TypePredicate, Object: "c0"}}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, http.MethodGet, deltas(at, ""), nil)
	if rec.Code != http.StatusOK || rec.Header().Get(repl.GenerationHeader) != "1" {
		t.Fatalf("poll after one mutation: %d, generation %q", rec.Code, rec.Header().Get(repl.GenerationHeader))
	}
	follower, err := durable.LoadSnapshot(store.New(), snap)
	if err != nil {
		t.Fatal(err)
	}
	var got []store.Triple
	if n, err := follower.Read(rec.Body.Bytes(), func(adds, removes []store.Triple, _ store.Position) error {
		got = append(append(got, adds...), removes...)
		return nil
	}); n != 1 || err != nil || len(got) != 1 || got[0].Subject != "item-9" {
		t.Fatalf("the body reads as %d writes %v: %v", n, got, err)
	}
	if follower.Position() != s.Reasoner().Base().Position() {
		t.Fatalf("the follower stands at %v, the primary at %v", follower.Position(), s.Reasoner().Base().Position())
	}

	// A checkpoint folds the write into the chain: the old position is gone.
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodGet, deltas(at, ""), nil); rec.Code != http.StatusGone {
		t.Fatalf("poll behind the live log: got %d, want 410 (%s)", rec.Code, rec.Body)
	}

	// Bad parameters are 400s.
	for _, target := range []string{"/repl/deltas", "/repl/deltas?from=x", deltas(at, "&wait=x"), deltas(at, "&max=0"), "/repl/deltas?from=0&digest=zz"} {
		if rec := do(t, s, http.MethodGet, target, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("GET %s: got %d, want 400", target, rec.Code)
		}
	}
}

// TestServeEndsParkedPollOnShutdown: a replica's long poll parked on an idle
// primary must not hold the shutdown for the poll's wait — it would outlast
// shutdownGrace, Serve would fail, and the caller would never reach its
// clean-exit path. The poll is answered (200, nothing new) the moment the
// shutdown begins, and Serve returns nil within a second.
func TestServeEndsParkedPollOnShutdown(t *testing.T) {
	s, _ := replPrimary(t)
	at := s.Reasoner().Base().Position()
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
			http.MethodGet, "http://"+ln.Addr().String()+deltas(at, "&wait=25s"), nil)
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
	if res.err != nil || res.code != http.StatusOK || len(res.body) != 0 {
		t.Fatalf("parked poll at shutdown: code=%d body=%q err=%v, want 200 and nothing", res.code, res.body, res.err)
	}
}
