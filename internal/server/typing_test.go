package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/reason"
	"repro/internal/store"
)

// TestTypingHazardsAreRefused: a server answering instance typing from the
// subClassOf closure refuses, with 422 and nothing applied, every write that
// would let a rule body read a propagated type, and takes the rest.
func TestTypingHazardsAreRefused(t *testing.T) {
	s := newTestServer(t, Config{})
	if !s.Reasoner().TypingClosed() {
		t.Fatal("the default server over the car corpus does not close its typing")
	}
	ok := TripleJSON{Subject: "lorry", Predicate: reason.SubClassOfPredicate, Object: "vehicle"}
	for _, hazard := range []TripleJSON{
		{Subject: store.TypePredicate, Predicate: reason.RangePredicate, Object: "vehicle"},
		{Subject: store.TypePredicate, Predicate: reason.SubPropertyOfPredicate, Object: "kind"},
		{Subject: "kind", Predicate: reason.SubPropertyOfPredicate, Object: reason.RangePredicate},
		{Subject: "kind", Predicate: reason.SubPropertyOfPredicate, Object: reason.SubPropertyOfPredicate},
	} {
		gen := s.Reasoner().Generation()
		code, _, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{ok, hazard}})
		if code != http.StatusUnprocessableEntity || e.Error == "" {
			t.Errorf("adding %v: %d %q, want 422 naming it", hazard, code, e.Error)
		}
		if got := s.Reasoner().Generation(); got != gen {
			t.Errorf("adding %v moved the generation %d → %d: part of a refused write was applied", hazard, gen, got)
		}
	}
	if code, _, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{ok}}); code != http.StatusOK {
		t.Fatalf("adding %v: %d %s", ok, code, e.Error)
	}
	res := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"})
	if want := []string{"beetle", "bus1", "hilux"}; !equalStrings(res.values("x"), want) {
		t.Errorf("?x type vehicle = %v, want %v", res.values("x"), want)
	}
}

// TestRulesReadingTypeKeepTypePropagation: a -rules body that reads type
// would see the propagated types, so the server stores them as the full rule
// set does — its typing stays open, the hazard shapes are ordinary writes,
// and the user rule fires on a propagated type.
func TestRulesReadingTypeKeepTypePropagation(t *testing.T) {
	user, err := reason.ParseRules("?x tagged ?c :- ?x type ?c")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Rules: append(reason.RDFSRules(), user...)})
	if s.Reasoner().TypingClosed() {
		t.Fatal("a rule body reading type left the server's typing closed")
	}
	if !s.Reasoner().Overlay().Contains(store.Triple{Subject: "hilux", Predicate: store.TypePredicate, Object: "vehicle"}) {
		t.Error("hilux type vehicle is not stored: type-propagation did not run")
	}
	res := postQuery(t, s, QueryRequest{BGP: "hilux tagged ?c"})
	if want := []string{"car", "pickup", "vehicle"}; !equalStrings(res.values("c"), want) {
		t.Errorf("hilux tagged ?c = %v, want %v", res.values("c"), want)
	}
	hazard := TripleJSON{Subject: store.TypePredicate, Predicate: reason.RangePredicate, Object: "vehicle"}
	if code, _, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{hazard}}); code != http.StatusOK {
		t.Errorf("adding %v with typing open: %d %s, want 200", hazard, code, e.Error)
	}
}

// TestSchemaWriteInvalidatesClosedTypes: with typing closed, a schema write
// changes the answer to ?x type B without a single type triple in its
// delta, so the cached answer must be filed under subClassOf to go.
func TestSchemaWriteInvalidatesClosedTypes(t *testing.T) {
	s := newTestServer(t, Config{})
	if code, _, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "vespa", Predicate: store.TypePredicate, Object: "scooter"},
	}}); code != http.StatusOK {
		t.Fatalf("/triples = %d: %s", code, e.Error)
	}
	req := QueryRequest{BGP: "?x type vehicle"}
	postQuery(t, s, req)
	if res := postQuery(t, s, req); !res.trailer.Cached || !equalStrings(res.values("x"), []string{"beetle", "bus1", "hilux"}) {
		t.Fatalf("before the schema write: cached %v, %v", res.trailer.Cached, res.values("x"))
	}
	if code, _, e := postTriples(t, s, MutateRequest{Add: []TripleJSON{
		{Subject: "scooter", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
	}}); code != http.StatusOK {
		t.Fatalf("/triples = %d: %s", code, e.Error)
	}
	want := []string{"beetle", "bus1", "hilux", "vespa"}
	if res := postQuery(t, s, req); res.trailer.Cached || !equalStrings(res.values("x"), want) {
		t.Fatalf("after the schema write: cached %v, %v; want a fresh %v", res.trailer.Cached, res.values("x"), want)
	}
}

// TestLimitReachesTheLeafScan: a closed `?x type C`, or a closed `?x within
// site-3`, whose plan is its one leaf scan asks the cursor for limit+1
// triples, not a whole batch, so each row's stored-types or
// stored-predicates check stops near the limit. Every row comes from the
// closure: the instances are typed D, with D subClassOf C, or located in
// site-3, with locatedIn subPropertyOf within. The answers at and around
// the limit are unchanged.
func TestLimitReachesTheLeafScan(t *testing.T) {
	const instances = 3000
	for _, c := range []struct {
		bgp, pred, object string
		schema            store.Triple
	}{
		{"?x type C", store.TypePredicate, "D", store.Triple{Subject: "D", Predicate: reason.SubClassOfPredicate, Object: "C"}},
		{"?x within site-3", "locatedIn", "site-3", store.Triple{Subject: "locatedIn", Predicate: reason.SubPropertyOfPredicate, Object: "within"}},
	} {
		base := store.New()
		ts := []store.Triple{c.schema}
		for i := 0; i < instances; i++ {
			ts = append(ts, store.Triple{Subject: fmt.Sprintf("i%04d", i), Predicate: c.pred, Object: c.object})
		}
		if _, err := base.AddBatch(ts); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Base: base})
		if !s.Reasoner().TypingClosed() || !s.Reasoner().PropertiesClosed() {
			t.Fatal("the server does not close its typing and properties")
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?explain=1", strings.NewReader(`{"bgp":"`+c.bgp+`","limit":100}`)))
		var ex ExplainResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ex); err != nil {
			t.Fatalf("%s: %d %s: %v", c.bgp, rec.Code, rec.Body, err)
		}
		if len(ex.Plan.Levels) != 1 || ex.Solutions != 100 || !ex.Truncated {
			t.Fatalf("%s: explain: %d levels, %d solutions, truncated %v; want 1, 100, true", c.bgp, len(ex.Plan.Levels), ex.Solutions, ex.Truncated)
		}
		if rows := ex.Plan.Levels[0].Stat.Rows; rows > 101 {
			t.Errorf("%s: the leaf scan produced %d rows for a limit of 100, want at most 101", c.bgp, rows)
		}
		for _, l := range []struct {
			limit     int
			truncated bool
		}{{100, true}, {instances - 1, true}, {instances, false}} {
			res := postQuery(t, s, QueryRequest{BGP: c.bgp, Limit: l.limit})
			if n := len(res.rows); n != min(l.limit, instances) || res.trailer.Truncated != l.truncated {
				t.Errorf("%s, limit %d: %d rows, truncated %v; want %d, %v", c.bgp, l.limit, n, res.trailer.Truncated, min(l.limit, instances), l.truncated)
			}
		}
	}
}
