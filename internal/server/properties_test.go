package server

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/reason"
	"repro/internal/store"
)

// sitesCorpus is a base whose locatedIn is a sub-property of within, with
// the instances a0…a{n-1} located in site-3, and whatever extra holds.
func sitesCorpus(t *testing.T, n int, extra ...store.Triple) *store.Store {
	t.Helper()
	base := store.New()
	ts := append([]store.Triple{{Subject: "locatedIn", Predicate: reason.SubPropertyOfPredicate, Object: "within"}}, extra...)
	for i := 0; i < n; i++ {
		ts = append(ts, store.Triple{Subject: fmt.Sprintf("a%04d", i), Predicate: "locatedIn", Object: "site-3"})
	}
	if _, err := base.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestSubPropertyWriteInvalidatesClosedProperties: with properties closed,
// ?x within site-3 is answered from the locatedIn triples, so no write that
// changes it has a within triple in its delta. The cached answer must die on
// a locatedIn add, on a locatedIn remove and on a subPropertyOf write, and
// survive a write to a property it does not read.
func TestSubPropertyWriteInvalidatesClosedProperties(t *testing.T) {
	s := newTestServer(t, Config{Base: sitesCorpus(t, 2)})
	if !s.Reasoner().PropertiesClosed() {
		t.Fatal("the server does not close its properties")
	}
	req := QueryRequest{BGP: "?x within site-3"}
	cached := func(step string, want ...string) {
		t.Helper()
		if res := postQuery(t, s, req); res.trailer.Cached || !equalStrings(res.values("x"), want) {
			t.Fatalf("%s: cached %v, %v; want a fresh %v", step, res.trailer.Cached, res.values("x"), want)
		}
		if res := postQuery(t, s, req); !res.trailer.Cached || !equalStrings(res.values("x"), want) {
			t.Fatalf("%s, asked again: cached %v, %v; want a cached %v", step, res.trailer.Cached, res.values("x"), want)
		}
	}
	write := func(m MutateRequest) {
		t.Helper()
		if code, _, e := postTriples(t, s, m); code != http.StatusOK {
			t.Fatalf("/triples %+v = %d: %s", m, code, e.Error)
		}
	}
	cached("boot", "a0000", "a0001")
	write(MutateRequest{Add: []TripleJSON{{Subject: "b", Predicate: "locatedIn", Object: "site-3"}}})
	cached("after a locatedIn add", "a0000", "a0001", "b")
	write(MutateRequest{Remove: []TripleJSON{{Subject: "a0000", Predicate: "locatedIn", Object: "site-3"}}})
	cached("after a locatedIn remove", "a0001", "b")
	write(MutateRequest{Add: []TripleJSON{{Subject: "c", Predicate: "sitedIn", Object: "site-3"}}})
	if res := postQuery(t, s, req); !res.trailer.Cached {
		t.Fatal("a write to sitedIn, which ?x within site-3 does not read yet, dropped its entry")
	}
	write(MutateRequest{Add: []TripleJSON{{Subject: "sitedIn", Predicate: reason.SubPropertyOfPredicate, Object: "within"}}})
	cached("after a subPropertyOf write", "a0001", "b", "c")
	if !s.Reasoner().PropertiesClosed() {
		t.Fatal("a hazard-free write reopened the properties")
	}
}

// TestPropertyHazardsReopenTheClosure: a write that would let a rule read a
// propagated property triple — in either order of arrival, or both halves at
// once — is applied, and reopens the closure: from then on the server stores
// the propagated triples, and every answer is the full rule set's. A
// hazard-free schema write leaves the properties closed.
func TestPropertyHazardsReopenTheClosure(t *testing.T) {
	sp, dom := reason.SubPropertyOfPredicate, reason.DomainPredicate
	near, err := reason.ParseRules("?x near ?y :- ?x within ?y")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		rules  []reason.Rule
		boot   []store.Triple
		add    []TripleJSON
		closed bool
		query  string
		want   []string
	}{
		{"a domain on a property with a sub-property", nil, nil,
			[]TripleJSON{{Subject: "within", Predicate: dom, Object: "Placed"}},
			false, "?x type Placed", []string{"a0000", "a0001"}},
		{"a sub-property of a property with a domain", nil, []store.Triple{{Subject: "hosts", Predicate: dom, Object: "Host"}},
			[]TripleJSON{{Subject: "houses", Predicate: sp, Object: "hosts"}, {Subject: "h", Predicate: "houses", Object: "a0000"}},
			false, "?x type Host", []string{"h"}},
		{"both at once", nil, nil,
			[]TripleJSON{{Subject: "houses", Predicate: sp, Object: "hosts"}, {Subject: "hosts", Predicate: reason.RangePredicate, Object: "Guest"}, {Subject: "h", Predicate: "houses", Object: "a0000"}},
			false, "?x type Guest", []string{"a0000"}},
		{"a vocabulary predicate under subPropertyOf", nil, nil,
			[]TripleJSON{{Subject: "locatedIn", Predicate: sp, Object: store.TypePredicate}},
			false, "?x type site-3", []string{"a0000", "a0001"}},
		{"a sub-property of a predicate a rule reads", near, []store.Triple{{Subject: "b", Predicate: "within", Object: "site-9"}},
			[]TripleJSON{{Subject: "locatedIn", Predicate: sp, Object: "within"}},
			false, "?x near ?y", []string{"a0000", "a0001", "b"}},
		{"a domain on a leaf property", nil, nil,
			[]TripleJSON{{Subject: "locatedIn", Predicate: dom, Object: "Placed"}},
			true, "?x within site-3", []string{"a0000", "a0001"}},
		{"a new sub-property of a property without a domain", nil, nil,
			[]TripleJSON{{Subject: "sitedIn", Predicate: sp, Object: "within"}, {Subject: "c", Predicate: "sitedIn", Object: "site-3"}},
			true, "?x within site-3", []string{"a0000", "a0001", "c"}},
	} {
		base := sitesCorpus(t, 2, c.boot...)
		if c.rules != nil {
			// The rule reads within, which has no sub-property yet.
			base = store.New()
			if _, err := base.AddBatch(append([]store.Triple{{Subject: "a0000", Predicate: "locatedIn", Object: "site-3"}, {Subject: "a0001", Predicate: "locatedIn", Object: "site-3"}}, c.boot...)); err != nil {
				t.Fatal(err)
			}
		}
		s := newTestServer(t, Config{Base: base, Rules: append(reason.RDFSRules(), c.rules...)})
		if !s.Reasoner().PropertiesClosed() {
			t.Fatalf("%s: the server does not close its properties at boot", c.name)
		}
		fullBase := store.New()
		if _, err := fullBase.AddBatch(s.Reasoner().Base().Triples()); err != nil {
			t.Fatal(err)
		}
		full, err := reason.Materialize(fullBase, s.Reasoner().Rules())
		if err != nil {
			t.Fatal(err)
		}
		if code, _, e := postTriples(t, s, MutateRequest{Add: c.add}); code != http.StatusOK {
			t.Fatalf("%s: /triples = %d: %s", c.name, code, e.Error)
		}
		if _, err := full.AddBatch(toTriples(c.add)); err != nil {
			t.Fatal(err)
		}
		if got := s.Reasoner().PropertiesClosed(); got != c.closed {
			t.Errorf("%s: properties closed %v after the write, want %v", c.name, got, c.closed)
		}
		res := postQuery(t, s, QueryRequest{BGP: c.query})
		if got := res.values(firstVar(c.query)); !equalStrings(got, c.want) {
			t.Errorf("%s: %s = %v, want %v", c.name, c.query, got, c.want)
		}
		if got, want := s.Reasoner().View().Triples(), full.View().Triples(); !slices.Equal(got, want) {
			t.Errorf("%s: the server's view\n%v\nthe full rule set's\n%v", c.name, got, want)
		}
		if got, want := s.Reasoner().InferredCount(), full.InferredCount(); got != want {
			t.Errorf("%s: %d inferred, the full rule set %d", c.name, got, want)
		}
	}
}

// toTriples converts wire triples.
func toTriples(ts []TripleJSON) []store.Triple {
	out := make([]store.Triple, len(ts))
	for i, t := range ts {
		out[i] = store.Triple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object}
	}
	return out
}

// firstVar is the first variable of a BGP text, without its ?.
func firstVar(bgp string) string {
	return strings.TrimPrefix(strings.Fields(bgp)[0], "?")
}
