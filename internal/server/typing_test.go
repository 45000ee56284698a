package server

import (
	"net/http"
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
