package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/reason"
	"repro/internal/store"
)

// carCorpus builds a small hierarchy corpus: car ⊑ vehicle, pickup ⊑ car,
// with one instance of each class.
func carCorpus(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	_, err := s.AddBatch([]store.Triple{
		{Subject: "car", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
		{Subject: "pickup", Predicate: reason.SubClassOfPredicate, Object: "car"},
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "hilux", Predicate: store.TypePredicate, Object: "pickup"},
		{Subject: "bus1", Predicate: store.TypePredicate, Object: "vehicle"},
		{Subject: "beetle", Predicate: "locatedIn", Object: "rome"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Base == nil {
		cfg.Base = carCorpus(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// queryResult is a decoded /query response stream.
type queryResult struct {
	status  int
	header  QueryHeader
	rows    []QueryRow
	trailer QueryTrailer
	errBody ErrorResponse
}

// values projects the named variable over the rows, sorted.
func (r *queryResult) values(name string) []string {
	var out []string
	for _, row := range r.rows {
		out = append(out, row.Bind[name])
	}
	sort.Strings(out)
	return out
}

// decodeQueryStream parses an ndjson /query response body.
func decodeQueryStream(t testing.TB, status int, body []byte) *queryResult {
	t.Helper()
	res := &queryResult{status: status}
	if status != http.StatusOK {
		if err := json.Unmarshal(body, &res.errBody); err != nil {
			t.Fatalf("non-200 body is not an ErrorResponse: %v in %q", err, body)
		}
		return res
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			if err := json.Unmarshal(line, &res.header); err != nil {
				t.Fatalf("bad header line %q: %v", line, err)
			}
			first = false
			continue
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &res.trailer); err != nil {
				t.Fatalf("bad trailer %q: %v", line, err)
			}
			continue
		}
		var row QueryRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		res.rows = append(res.rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !res.trailer.Done {
		t.Fatalf("stream ended without a trailer: %q", body)
	}
	if res.trailer.Error == "" && res.trailer.Solutions != len(res.rows) {
		t.Fatalf("trailer reports %d solutions, stream has %d rows", res.trailer.Solutions, len(res.rows))
	}
	return res
}

// postQuery drives /query through the in-process handler.
func postQuery(t testing.TB, s *Server, req QueryRequest) *queryResult {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	return decodeQueryStream(t, rec.Code, rec.Body.Bytes())
}

// postTriples drives /triples through the in-process handler.
func postTriples(t testing.TB, s *Server, req MutateRequest) (int, MutateResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/triples", bytes.NewReader(body)))
	var resp MutateResponse
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

func getStats(t testing.TB, s *Server) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats returned %d: %s", rec.Code, rec.Body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestQueryModesAgreeOnClassRetrieval(t *testing.T) {
	base := carCorpus(t)
	s := newTestServer(t, Config{Base: base})

	mat := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"})
	if want := []string{"beetle", "bus1", "hilux"}; !equalStrings(mat.values("x"), want) {
		t.Fatalf("materialized retrieval = %v, want %v", mat.values("x"), want)
	}
	if mat.trailer.Cached {
		t.Fatal("first query reported cached")
	}

	// Plain mode sees only the literal annotation.
	plain := postQuery(t, s, QueryRequest{BGP: "?x type vehicle", Mode: ModePlain})
	if want := []string{"bus1"}; !equalStrings(plain.values("x"), want) {
		t.Fatalf("plain retrieval = %v, want %v", plain.values("x"), want)
	}

	// Expand mode rewrites through the served schema: no TBox is configured,
	// and it still answers as materialized does.
	exp := postQuery(t, s, QueryRequest{BGP: "?x type vehicle", Mode: ModeExpand})
	if exp.status != http.StatusOK || !equalStrings(exp.values("x"), mat.values("x")) {
		t.Fatalf("expand retrieval = %d %v, want 200 %v", exp.status, exp.values("x"), mat.values("x"))
	}
}

// TestExpandReadsLiveSchema: mode=expand rewrites through the reasoner's
// subClassOf closure, so a schema write reaches it. After every step both
// modes give the same class retrieval, first evaluated and then from the
// cache; the schema add and the schema remove are each one write that
// follows a cached expand answer.
func TestExpandReadsLiveSchema(t *testing.T) {
	s := newTestServer(t, Config{})
	typed := func(subject, class string) TripleJSON {
		return TripleJSON{Subject: subject, Predicate: store.TypePredicate, Object: class}
	}
	truckIsVehicle := TripleJSON{Subject: "truck", Predicate: reason.SubClassOfPredicate, Object: "vehicle"}
	classes := []string{"vehicle", "car", "pickup", "truck"}
	agree := func(step string, want map[string][]string) {
		t.Helper()
		for _, cached := range []bool{false, true} {
			for _, class := range classes {
				bgp := "?x type " + class
				mat := postQuery(t, s, QueryRequest{BGP: bgp})
				exp := postQuery(t, s, QueryRequest{BGP: bgp, Mode: ModeExpand})
				if mat.trailer.Cached != cached || exp.trailer.Cached != cached {
					t.Fatalf("%s, %s: cached = %v (materialized), %v (expand), want %v",
						step, class, mat.trailer.Cached, exp.trailer.Cached, cached)
				}
				if !equalStrings(exp.values("x"), mat.values("x")) {
					t.Fatalf("%s, %s (cached %v): expand = %v, materialized = %v",
						step, class, cached, exp.values("x"), mat.values("x"))
				}
				if w, ok := want[class]; ok && !equalStrings(exp.values("x"), w) {
					t.Fatalf("%s, %s (cached %v): expand = %v, want %v", step, class, cached, exp.values("x"), w)
				}
			}
		}
	}
	write := func(req MutateRequest) {
		t.Helper()
		if code, _, e := postTriples(t, s, req); code != http.StatusOK {
			t.Fatalf("/triples = %d: %s", code, e.Error)
		}
	}

	agree("boot", map[string][]string{"vehicle": {"beetle", "bus1", "hilux"}})
	write(MutateRequest{Add: []TripleJSON{typed("t1", "truck")}})
	agree("instance of a new class", map[string][]string{"vehicle": {"beetle", "bus1", "hilux"}, "truck": {"t1"}})
	write(MutateRequest{Add: []TripleJSON{truckIsVehicle}})
	agree("schema add", map[string][]string{"vehicle": {"beetle", "bus1", "hilux", "t1"}})
	write(MutateRequest{Remove: []TripleJSON{truckIsVehicle}})
	agree("schema remove", map[string][]string{"vehicle": {"beetle", "bus1", "hilux"}})
}

// TestExpandCacheDropsOnSchemaOnlyWrites: a schema write can change an
// expand answer without deriving a type triple, when the type it would
// derive already holds through a domain rule. The cached answer must still
// go.
func TestExpandCacheDropsOnSchemaOnlyWrites(t *testing.T) {
	s := newTestServer(t, Config{})
	code, before, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "drives", Predicate: reason.DomainPredicate, Object: "vehicle"},
		{Subject: "bob", Predicate: "drives", Object: "rome"},
		{Subject: "bob", Predicate: store.TypePredicate, Object: "truck"},
	}})
	if code != http.StatusOK {
		t.Fatalf("/triples = %d: %s", code, e.Error)
	}
	req := QueryRequest{BGP: "?x type vehicle", Mode: ModeExpand}
	postQuery(t, s, req)
	if res := postQuery(t, s, req); !res.trailer.Cached || !equalStrings(res.values("x"), []string{"beetle", "bus1", "hilux"}) {
		t.Fatalf("before the schema write: cached %v, %v", res.trailer.Cached, res.values("x"))
	}
	code, after, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "truck", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
	}})
	if code != http.StatusOK || after.Inferred != before.Inferred {
		t.Fatalf("/triples = %d, %+v: %s; want 200 and no new inferred triple", code, after, e.Error)
	}
	want := []string{"beetle", "bob", "bus1", "hilux"}
	if res := postQuery(t, s, req); res.trailer.Cached || !equalStrings(res.values("x"), want) {
		t.Fatalf("after the schema write: cached %v, %v; want a fresh %v", res.trailer.Cached, res.values("x"), want)
	}
}

func TestQueryJoinAndHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	res := postQuery(t, s, QueryRequest{BGP: "?x type car . ?x locatedIn ?site"})
	if want := []string{"x", "site"}; !equalStrings(res.header.Vars, want) {
		t.Fatalf("header vars = %v, want %v", res.header.Vars, want)
	}
	if len(res.rows) != 1 || res.rows[0].Bind["x"] != "beetle" || res.rows[0].Bind["site"] != "rome" {
		t.Fatalf("join rows = %v", res.rows)
	}
}

func TestQueryValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	var tooMany []string // one pattern past maxPatterns
	for i := 0; i <= maxPatterns; i++ {
		tooMany = append(tooMany, fmt.Sprintf("?v%d p ?v%d", i, i+1))
	}
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"empty BGP", QueryRequest{BGP: ""}},
		{"malformed BGP", QueryRequest{BGP: "?x type"}},
		{"unknown mode", QueryRequest{BGP: "?x type car", Mode: "turbo"}},
		{"too many patterns", QueryRequest{BGP: strings.Join(tooMany, " . ")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := postQuery(t, s, c.req)
			if res.status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", res.status, res.errBody.Error)
			}
			if res.errBody.Error == "" {
				t.Fatal("400 without an error message")
			}
		})
	}

	// Wrong method.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query = %d, want 405", rec.Code)
	}

	// Unknown fields in the body fail loudly.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"bqp":"?x type car"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("typo field = %d, want 400", rec.Code)
	}
}

func TestQueryLimitTruncates(t *testing.T) {
	s := newTestServer(t, Config{})
	res := postQuery(t, s, QueryRequest{BGP: "?x type vehicle", Limit: 2})
	if len(res.rows) != 2 || !res.trailer.Truncated {
		t.Fatalf("limit 2: rows=%d truncated=%v", len(res.rows), res.trailer.Truncated)
	}
	// The full result (3 solutions) must not share a cache slot with the
	// truncated one.
	full := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"})
	if len(full.rows) != 3 || full.trailer.Cached {
		t.Fatalf("full query after truncated: rows=%d cached=%v", len(full.rows), full.trailer.Cached)
	}
}

func TestQueryCacheHitOnReorderedPatterns(t *testing.T) {
	s := newTestServer(t, Config{})
	first := postQuery(t, s, QueryRequest{BGP: "?x type car . ?x locatedIn ?site"})
	if first.trailer.Cached {
		t.Fatal("first evaluation reported cached")
	}
	// Same query with patterns reordered and the same variable names:
	// replaying the stored bytes answers it correctly, so it must hit.
	second := postQuery(t, s, QueryRequest{BGP: "?x locatedIn ?site . ?x type car"})
	if !second.trailer.Cached {
		t.Fatal("reordered-pattern respelling missed the cache")
	}
	if len(second.rows) != len(first.rows) || second.trailer.Solutions != first.trailer.Solutions {
		t.Fatalf("cached replay diverged: %v vs %v", second.rows, first.rows)
	}
	st := getStats(t, s)
	if st.Cache.Hits < 1 || st.Cache.Entries < 1 {
		t.Fatalf("cache stats after hit: %+v", st.Cache)
	}
}

// TestQueryCacheRenamedVariablesGetTheirOwnNames pins the protocol contract
// the cache must not break: a respelling with different variable names
// shares the canonical form but cannot replay the original response — its
// rows must bind the names *this* request used.
func TestQueryCacheRenamedVariablesGetTheirOwnNames(t *testing.T) {
	s := newTestServer(t, Config{})
	first := postQuery(t, s, QueryRequest{BGP: "?x type car . ?x locatedIn ?site"})
	if len(first.rows) != 1 || first.rows[0].Bind["x"] != "beetle" {
		t.Fatalf("unexpected first result: %v", first.rows)
	}
	renamed := postQuery(t, s, QueryRequest{BGP: "?v locatedIn ?where . ?v type car"})
	if renamed.trailer.Cached {
		t.Fatal("renamed-variable respelling replayed a response with foreign variable names")
	}
	if want := []string{"v", "where"}; !equalStrings(renamed.header.Vars, want) {
		t.Fatalf("header vars = %v, want %v", renamed.header.Vars, want)
	}
	if len(renamed.rows) != 1 || renamed.rows[0].Bind["v"] != "beetle" || renamed.rows[0].Bind["where"] != "rome" {
		t.Fatalf("renamed query rows = %v, want bindings under v/where", renamed.rows)
	}
	// And the renamed spelling caches under its own key.
	again := postQuery(t, s, QueryRequest{BGP: "?v locatedIn ?where . ?v type car"})
	if !again.trailer.Cached || again.rows[0].Bind["v"] != "beetle" {
		t.Fatalf("repeat of the renamed spelling: cached=%v rows=%v", again.trailer.Cached, again.rows)
	}
}

func TestPredicateTargetedInvalidation(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "a", Predicate: "p", Object: "b"},
		{Subject: "c", Predicate: "q", Object: "d"},
	}); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Base: base})

	postQuery(t, s, QueryRequest{BGP: "?x p ?y"})
	postQuery(t, s, QueryRequest{BGP: "?x q ?y"})
	// A wildcard-predicate query is invalidated by every mutation.
	postQuery(t, s, QueryRequest{BGP: "a ?p ?y"})

	code, _, errResp := postTriples(t, s, MutateRequest{Add: []TripleJSON{{Subject: "e", Predicate: "p", Object: "f"}}})
	if code != http.StatusOK {
		t.Fatalf("mutation failed: %d %s", code, errResp.Error)
	}

	pRes := postQuery(t, s, QueryRequest{BGP: "?x p ?y"})
	if pRes.trailer.Cached {
		t.Fatal("query on the mutated predicate was served from cache")
	}
	if len(pRes.rows) != 2 {
		t.Fatalf("post-mutation p query has %d rows, want 2", len(pRes.rows))
	}
	qRes := postQuery(t, s, QueryRequest{BGP: "?x q ?y"})
	if !qRes.trailer.Cached {
		t.Fatal("query on the untouched predicate lost its cache entry")
	}
	wild := postQuery(t, s, QueryRequest{BGP: "a ?p ?y"})
	if wild.trailer.Cached {
		t.Fatal("variable-predicate query survived a mutation")
	}
}

// TestPlainModeCacheInvalidatedByProvenanceFlip pins the base-store cache
// hole: asserting a currently-inferred triple changes nothing in the view
// but does change the asserted store, so cached plain-mode results must be
// invalidated.
func TestPlainModeCacheInvalidatedByProvenanceFlip(t *testing.T) {
	s := newTestServer(t, Config{})
	// "beetle type vehicle" is inferred (beetle type car, car ⊑ vehicle):
	// plain mode sees only bus1's literal annotation.
	first := postQuery(t, s, QueryRequest{BGP: "?x type vehicle", Mode: ModePlain})
	if want := []string{"bus1"}; !equalStrings(first.values("x"), want) {
		t.Fatalf("plain retrieval = %v, want %v", first.values("x"), want)
	}
	// Asserting the inferred triple is a provenance flip: the view is
	// unchanged (Added still counts it — the asserted store gained it).
	code, resp, errResp := postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "vehicle"},
	}})
	if code != http.StatusOK || resp.Added != 1 {
		t.Fatalf("flip mutation: code=%d resp=%+v err=%s", code, resp, errResp.Error)
	}
	second := postQuery(t, s, QueryRequest{BGP: "?x type vehicle", Mode: ModePlain})
	if second.trailer.Cached {
		t.Fatal("plain-mode query replayed a result cached before the provenance flip")
	}
	if want := []string{"beetle", "bus1"}; !equalStrings(second.values("x"), want) {
		t.Fatalf("post-flip plain retrieval = %v, want %v", second.values("x"), want)
	}
}

func TestMutations(t *testing.T) {
	s := newTestServer(t, Config{})
	// Every content-changing request is one engine generation, whatever its
	// shape; a request that changes nothing is none.
	gen := getStats(t, s).Engine.Generation
	wantGen := func(step string, delta uint64) {
		t.Helper()
		if got := getStats(t, s).Engine.Generation; got != gen+delta {
			t.Fatalf("%s moved engine.generation %d → %d, want +%d", step, gen, got, delta)
		}
		gen += delta
	}

	// Adding an instance of a subclass derives its superclass annotations.
	code, resp, errResp := postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "kombi", Predicate: store.TypePredicate, Object: "car"},
	}})
	if code != http.StatusOK {
		t.Fatalf("add failed: %d %s", code, errResp.Error)
	}
	if resp.Added != 1 {
		t.Fatalf("added = %d, want 1", resp.Added)
	}
	wantGen("an add", 1)
	res := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"})
	if !containsString(res.values("x"), "kombi") {
		t.Fatalf("vehicle retrieval %v is missing the new kombi", res.values("x"))
	}

	// Duplicate adds change nothing.
	_, resp, _ = postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "kombi", Predicate: store.TypePredicate, Object: "car"},
	}})
	if resp.Added != 0 {
		t.Fatalf("duplicate add reported %d added", resp.Added)
	}
	wantGen("a duplicate add", 0)

	// Remove retracts the assertion and its dead inferences.
	_, resp, _ = postTriples(t, s, MutateRequest{Remove: []TripleJSON{
		{Subject: "kombi", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "ghost", Predicate: store.TypePredicate, Object: "car"},
	}})
	if resp.Removed != 1 {
		t.Fatalf("removed = %d, want 1 (ghost was never present)", resp.Removed)
	}
	res = postQuery(t, s, QueryRequest{BGP: "?x type vehicle"})
	if containsString(res.values("x"), "kombi") {
		t.Fatal("retracted kombi still retrieved")
	}
	wantGen("a remove", 1)

	// A two-sided request is one write: adds first, then removes. van1 is
	// asserted and retracted by the same request — it counts once on each
	// side, as it did when the removes ran one at a time, and ends absent;
	// the remove named twice counts once.
	before := getStats(t, s)
	_, resp, _ = postTriples(t, s, MutateRequest{
		Add: []TripleJSON{
			{Subject: "van1", Predicate: store.TypePredicate, Object: "car"},
			{Subject: "van2", Predicate: store.TypePredicate, Object: "car"},
			{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"}, // already asserted
		},
		Remove: []TripleJSON{
			{Subject: "van1", Predicate: store.TypePredicate, Object: "car"},
			{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
			{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
			{Subject: "ghost", Predicate: store.TypePredicate, Object: "car"},
		},
	})
	if resp.Added != 2 || resp.Removed != 2 || resp.Asserted != before.Asserted {
		t.Fatalf("two-sided request = %+v, want 2 added, 2 removed and %d asserted", resp, before.Asserted)
	}
	xs := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"}).values("x")
	if containsString(xs, "van1") || containsString(xs, "beetle") || !containsString(xs, "van2") {
		t.Fatalf("after the two-sided request the vehicles are %v; want van2 without van1 and beetle", xs)
	}
	wantGen("a two-sided request", 1)

	// Several removes, one generation.
	_, resp, _ = postTriples(t, s, MutateRequest{Remove: []TripleJSON{
		{Subject: "van2", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "beetle", Predicate: "locatedIn", Object: "rome"},
	}})
	if resp.Removed != 2 {
		t.Fatalf("multi-remove = %+v, want 2 removed", resp)
	}
	wantGen("a multi-remove request", 1)
	_, resp, _ = postTriples(t, s, MutateRequest{
		Add:    []TripleJSON{{Subject: "hilux", Predicate: store.TypePredicate, Object: "pickup"}},
		Remove: []TripleJSON{{Subject: "ghost", Predicate: store.TypePredicate, Object: "car"}},
	})
	if resp.Added != 0 || resp.Removed != 0 {
		t.Fatalf("no-op two-sided request = %+v, want nothing changed", resp)
	}
	wantGen("a two-sided request that changes nothing", 0)

	// Validation errors reject the whole batch — the removes beside an
	// invalid add included.
	code, _, errResp = postTriples(t, s, MutateRequest{
		Add:    []TripleJSON{{Subject: "", Predicate: "p", Object: "o"}},
		Remove: []TripleJSON{{Subject: "hilux", Predicate: store.TypePredicate, Object: "pickup"}},
	})
	if code != http.StatusBadRequest || errResp.Error == "" {
		t.Fatalf("invalid triple: code=%d err=%q", code, errResp.Error)
	}
	if xs := postQuery(t, s, QueryRequest{BGP: "?x type pickup"}).values("x"); !containsString(xs, "hilux") {
		t.Fatalf("a rejected request removed hilux: pickups are %v", xs)
	}
	wantGen("a rejected request", 0)

	// Empty mutations are rejected.
	code, _, _ = postTriples(t, s, MutateRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("empty mutation: code=%d, want 400", code)
	}

	// The batch size limit is the body cap: a batch too big for one body is
	// a 413 with nothing applied.
	var big MutateRequest
	for i := 0; i*44 <= maxBodyBytes; i++ { // 44 bytes is the smallest wire triple
		big.Add = append(big.Add, TripleJSON{Subject: "a", Predicate: "p", Object: "b"})
	}
	code, _, errResp = postTriples(t, s, big)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(errResp.Error, "exceeds the server limit") {
		t.Fatalf("oversized batch: code=%d err=%q, want 413 naming the limit", code, errResp.Error)
	}
	wantGen("an oversized batch", 0)
}

func TestQueryTimeoutInterruptsEvaluation(t *testing.T) {
	// A corpus big enough that the three-way cross product cannot finish in
	// a nanosecond but each probe still yields enough triples to reach the
	// interrupt poll.
	base := store.New()
	batch := make([]store.Triple, 0, 3000)
	for i := 0; i < 3000; i++ {
		batch = append(batch, store.Triple{
			Subject:   fmt.Sprintf("s%d", i%1000),
			Predicate: "p",
			Object:    fmt.Sprintf("o%d", i%17),
		})
	}
	if _, err := base.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Base: base, QueryTimeout: time.Nanosecond, Rules: []reason.Rule{}})

	res := postQuery(t, s, QueryRequest{BGP: "?a p ?b . ?c p ?d . ?e p ?f"})
	if res.status != http.StatusOK {
		t.Fatalf("status = %d (streaming errors arrive in the trailer)", res.status)
	}
	if res.trailer.Error == "" || !strings.Contains(res.trailer.Error, "interrupted") {
		t.Fatalf("trailer = %+v, want an interruption error", res.trailer)
	}
	// Interrupted results must not be cached.
	if st := getStats(t, s); st.Cache.Entries != 0 {
		t.Fatalf("interrupted result entered the cache: %+v", st.Cache)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Triples == 0 {
		t.Fatalf("health = %+v", h)
	}

	st := getStats(t, s)
	if st.Asserted == 0 || st.Inferred == 0 || st.Total != st.Asserted+st.Inferred {
		t.Fatalf("stats counts are inconsistent: %+v", st)
	}
	if st.Engine.Derived == 0 {
		t.Fatalf("engine stats empty after materialization: %+v", st.Engine)
	}
}

func TestSnapshotRoundTripsAndTagsProvenance(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/snapshot = %d", rec.Code)
	}
	restored := store.New()
	n, err := store.Restore(restored, rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Reasoner().View().Len(); n != want {
		t.Fatalf("snapshot restored %d triples, view holds %d", n, want)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot?provenance=1", nil))
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"inferred"`)) {
		t.Fatal("provenance snapshot has no inferred tags")
	}
}

// TestEndToEndCacheInvalidationOverHTTP is the acceptance path: a real
// listener on a random port, a cached query whose result changes after a
// mutation batch posted over the wire.
func TestEndToEndCacheInvalidationOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	baseURL := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	httpQuery := func() *queryResult {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{BGP: "?x type vehicle"})
		resp, err := client.Post(baseURL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return decodeQueryStream(t, resp.StatusCode, buf.Bytes())
	}

	// Liveness first.
	hres, err := client.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", hres.StatusCode)
	}

	// Evaluate, then hit the cache.
	first := httpQuery()
	if first.trailer.Cached {
		t.Fatal("first query reported cached")
	}
	second := httpQuery()
	if !second.trailer.Cached {
		t.Fatal("second query missed the cache")
	}
	if containsString(second.values("x"), "kombi") {
		t.Fatal("kombi present before the mutation")
	}

	// Mutate over the wire: the cached result must change.
	mbody, _ := json.Marshal(MutateRequest{Add: []TripleJSON{
		{Subject: "kombi", Predicate: store.TypePredicate, Object: "pickup"},
	}})
	mresp, err := client.Post(baseURL+"/triples", "application/json", bytes.NewReader(mbody))
	if err != nil {
		t.Fatal(err)
	}
	var mr MutateResponse
	if err := json.NewDecoder(mresp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || mr.Added != 1 {
		t.Fatalf("mutation over HTTP: status=%d resp=%+v", mresp.StatusCode, mr)
	}

	third := httpQuery()
	if third.trailer.Cached {
		t.Fatal("query after the mutation was served from the stale cache")
	}
	if !containsString(third.values("x"), "kombi") {
		t.Fatalf("post-mutation retrieval %v is missing kombi (type propagation through pickup ⊑ car ⊑ vehicle)", third.values("x"))
	}

	// Graceful shutdown.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after ctx cancellation")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
