package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// fill builds a store from (s, p, o) string triples.
func fill(t testing.TB, triples ...[3]string) *store.Store {
	t.Helper()
	s := store.New()
	batch := make([]store.Triple, len(triples))
	for i, tr := range triples {
		batch[i] = store.Triple{Subject: tr[0], Predicate: tr[1], Object: tr[2]}
	}
	if _, err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	return s
}

// bindings drains sols and canonicalizes the solutions for comparison:
// "k=v k=v" strings sorted by variable name, the whole multiset sorted.
func bindings(t testing.TB, sols *Solutions) []string {
	t.Helper()
	all, err := sols.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	return canonicalize(all)
}

func canonicalize(all []Binding) []string {
	out := make([]string, 0, len(all))
	for _, b := range all {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		row := ""
		for _, k := range keys {
			row += k + "=" + b[k] + " "
		}
		out = append(out, row)
	}
	sort.Strings(out)
	return out
}

func TestSinglePattern(t *testing.T) {
	s := fill(t,
		[3]string{"a", "type", "car"},
		[3]string{"b", "type", "car"},
		[3]string{"c", "type", "dog"},
	)
	got, err := Eval(s, MustParseBGP("?x type car")).Project("x")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Project = %v, want %v", got, want)
	}
	// All three components variable: every triple, once.
	all, err := Eval(s, MustParseBGP("?s ?p ?o")).All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("?s ?p ?o yielded %d solutions, want 3", len(all))
	}
}

func TestJoin(t *testing.T) {
	s := fill(t,
		[3]string{"a", "type", "car"},
		[3]string{"b", "type", "car"},
		[3]string{"c", "type", "dog"},
		[3]string{"a", "locatedIn", "garage"},
		[3]string{"c", "locatedIn", "garage"},
		[3]string{"b", "locatedIn", "kennel"},
		[3]string{"garage", "partOf", "house"},
	)
	got := bindings(t, Eval(s, MustParseBGP("?x type car . ?x locatedIn ?w")))
	want := []string{"w=garage x=a ", "w=kennel x=b "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("2-pattern join = %v, want %v", got, want)
	}
	// Three patterns, chained variables.
	got = bindings(t, Eval(s, MustParseBGP("?x type car . ?x locatedIn ?w . ?w partOf ?h")))
	want = []string{"h=house w=garage x=a "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("3-pattern join = %v, want %v", got, want)
	}
}

func TestRepeatedVariableWithinPattern(t *testing.T) {
	s := fill(t,
		[3]string{"a", "sameAs", "a"},
		[3]string{"a", "sameAs", "b"},
		[3]string{"b", "sameAs", "b"},
	)
	got, err := Eval(s, MustParseBGP("?x sameAs ?x")).Project("x")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("?x sameAs ?x = %v, want %v", got, want)
	}
}

func TestUnsatisfiableAndEmpty(t *testing.T) {
	s := fill(t, [3]string{"a", "type", "car"})
	// A literal the store has never seen: no solutions, no error.
	if got := bindings(t, Eval(s, MustParseBGP("?x type spaceship"))); len(got) != 0 {
		t.Errorf("unsatisfiable pattern yielded %v", got)
	}
	// One unsatisfiable pattern kills the whole conjunction.
	if got := bindings(t, Eval(s, MustParseBGP("?x type car . ?x made-of unobtainium"))); len(got) != 0 {
		t.Errorf("conjunction with unsatisfiable pattern yielded %v", got)
	}
	// Empty store.
	if got := bindings(t, Eval(store.New(), MustParseBGP("?s ?p ?o"))); len(got) != 0 {
		t.Errorf("empty store yielded %v", got)
	}
	// Empty BGP: exactly one empty solution.
	sols := Eval(s, nil)
	n := 0
	for sols.Next() {
		n++
		if len(sols.Bind()) != 0 {
			t.Errorf("empty BGP solution = %v, want empty", sols.Bind())
		}
	}
	if n != 1 || sols.Err() != nil {
		t.Errorf("empty BGP: %d solutions, err %v; want exactly 1, nil", n, sols.Err())
	}
}

func TestErrors(t *testing.T) {
	s := fill(t, [3]string{"a", "type", "car"})
	sols := Eval(s, BGP{Pat(Var("x"), Lit("type"), Lit(""))})
	if sols.Next() {
		t.Error("Next succeeded on a BGP with an empty literal")
	}
	if sols.Err() == nil {
		t.Error("empty literal not reported through Err")
	}
	sols = Eval(s, BGP{Pat(Var(""), Lit("type"), Lit("car"))})
	if sols.Next() || sols.Err() == nil {
		t.Error("empty variable name not reported through Err")
	}
	if _, err := Eval(s, MustParseBGP("?x type car")).Project("nope"); err == nil {
		t.Error("unknown projection variable not reported")
	}
}

func TestValueAndVars(t *testing.T) {
	s := fill(t, [3]string{"a", "type", "car"}, [3]string{"a", "locatedIn", "garage"})
	sols := Eval(s, MustParseBGP("?x type car . ?x locatedIn ?w"))
	if got, want := sols.Vars(), []string{"x", "w"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Vars = %v, want %v (BGP order, not plan order)", got, want)
	}
	if _, ok := sols.Value("x"); ok {
		t.Error("Value answered before the first Next")
	}
	for sols.Next() {
		if v, ok := sols.Value("x"); !ok || v != "a" {
			t.Errorf("Value(x) = %q, %v", v, ok)
		}
		if v, ok := sols.Value("w"); !ok || v != "garage" {
			t.Errorf("Value(w) = %q, %v", v, ok)
		}
		if _, ok := sols.Value("zzz"); ok {
			t.Error("Value answered for an unknown variable")
		}
	}
}

func TestParseBGP(t *testing.T) {
	bgp, err := ParseBGP("?x type car .\n ?x locatedIn ?w; garage partOf house")
	if err != nil {
		t.Fatal(err)
	}
	if len(bgp) != 3 {
		t.Fatalf("parsed %d patterns, want 3", len(bgp))
	}
	if got := bgp.String(); got != "?x type car . ?x locatedIn ?w . garage partOf house" {
		t.Errorf("String = %q", got)
	}
	for _, bad := range []string{"", "a b", "a b c d", "?x type ?"} {
		if _, err := ParseBGP(bad); err == nil {
			t.Errorf("ParseBGP(%q) succeeded, want error", bad)
		}
	}
}

// expandedReference computes ontology-expanded class retrieval straight off
// the store's raw reads — the algorithm the retired InstancesOfExpanded
// helper ran — as the independent reference the Expand option is checked
// against.
func expandedReference(s *store.Store, oi *store.OntologyIndex, class string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range oi.Subsumees(class) {
		s.ForEachSubject(store.TypePredicate, c, func(subj string) bool {
			if !seen[subj] {
				seen[subj] = true
				out = append(out, subj)
			}
			return true
		})
	}
	sort.Strings(out)
	return out
}

// TestExpansionMatchesRawReadsOnE5Corpus is the acceptance check for the
// Expand option: on the E5 corpus, the one-pattern expanded query must
// return exactly the subsumee-union the store's raw POS reads produce, for
// every class, at every drift level; and the unexpanded query must match
// the subjects of Store.Query's sorted matches.
func TestExpansionMatchesRawReadsOnE5Corpus(t *testing.T) {
	for _, drift := range []float64{0, 0.2, 0.5} {
		rng := rand.New(rand.NewSource(5))
		corpus := workload.SyntheticCorpus(rng, workload.CorpusParams{
			Hierarchy:         workload.HierarchyParams{Classes: 40, MaxParents: 2},
			InstancesPerClass: 25,
			Drift:             drift,
		})
		oi, err := store.NewOntologyIndex(corpus.TBox)
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range corpus.Classes {
			bgp := BGP{Pat(Var("x"), Lit(store.TypePredicate), Lit(class))}
			expanded, err := Eval(corpus.Store, bgp, Expand(oi)).Project("x")
			if err != nil {
				t.Fatal(err)
			}
			if want := expandedReference(corpus.Store, oi, class); !reflect.DeepEqual(expanded, want) {
				t.Fatalf("drift %.1f, class %s: expanded query = %v, raw reads = %v", drift, class, expanded, want)
			}
			plain, err := Eval(corpus.Store, bgp).Project("x")
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, tr := range corpus.Store.Query(store.Pattern{Predicate: store.TypePredicate, Object: class}) {
				want = append(want, tr.Subject)
			}
			if !reflect.DeepEqual(plain, want) {
				t.Fatalf("drift %.1f, class %s: plain query = %v, raw reads = %v", drift, class, plain, want)
			}
		}
	}
}

func TestExpansionWithVariableObjectIsLiteral(t *testing.T) {
	s := fill(t,
		[3]string{"a", "type", "car"},
		[3]string{"b", "type", "roadvehicle"},
	)
	// Build a tiny index through the real classifier so car ⊑ roadvehicle.
	corpus := workload.SyntheticCorpus(rand.New(rand.NewSource(1)), workload.CorpusParams{
		Hierarchy:         workload.HierarchyParams{Classes: 5, MaxParents: 1},
		InstancesPerClass: 1,
	})
	oi, err := store.NewOntologyIndex(corpus.TBox)
	if err != nil {
		t.Fatal(err)
	}
	// With a variable object there is no class to expand: the pattern matches
	// the stored annotations literally, binding the annotation class.
	got, err := Eval(s, MustParseBGP("?x type ?c"), Expand(oi)).Project("c")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"car", "roadvehicle"}; !reflect.DeepEqual(got, want) {
		t.Errorf("variable-object type pattern = %v, want %v", got, want)
	}
}

// TestPlanOrderIndependence checks that the selectivity-ordered plan returns
// the same solution multiset as every permutation of the same BGP.
func TestPlanOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var triples [][3]string
	for i := 0; i < 400; i++ {
		triples = append(triples, [3]string{
			fmt.Sprintf("s%d", rng.Intn(40)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(25)),
		})
	}
	s := fill(t, triples...)
	base := MustParseBGP("?a p0 ?b . ?b p1 ?c . ?a p2 ?c")
	want := bindings(t, Eval(s, base))
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		bgp := make(BGP, len(base))
		for i, j := range perm {
			bgp[i] = base[j]
		}
		if got := bindings(t, Eval(s, bgp)); !reflect.DeepEqual(got, want) {
			t.Errorf("permutation %v: %d solutions, want %d", perm, len(got), len(want))
		}
	}
}

// TestConcurrentEvalAndWriters backs the Solutions concurrency claim: joins
// running against a store under concurrent ingest must never race or error
// (run under -race in CI). Solution sets are only checked for sanity — the
// docs promise consistency only against a quiescent store.
func TestConcurrentEvalAndWriters(t *testing.T) {
	s := store.New()
	base := make([]store.Triple, 0, 2000)
	for i := 0; i < 1000; i++ {
		inst := fmt.Sprintf("inst-%d", i)
		base = append(base,
			store.Triple{Subject: inst, Predicate: store.TypePredicate, Object: fmt.Sprintf("class-%d", i%20)},
			store.Triple{Subject: inst, Predicate: "locatedIn", Object: fmt.Sprintf("site-%d", i%13)},
		)
	}
	if _, err := s.AddBatch(base); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			inst := fmt.Sprintf("extra-%d", i)
			s.MustAdd(store.Triple{Subject: inst, Predicate: store.TypePredicate, Object: "class-1"})
			s.MustAdd(store.Triple{Subject: inst, Predicate: "locatedIn", Object: "site-1"})
		}
	}()
	bgp := MustParseBGP("?x type class-1 . ?x locatedIn ?w")
	for i := 0; i < 50; i++ {
		sols := Eval(s, bgp)
		n := 0
		for sols.Next() {
			n++
		}
		if err := sols.Err(); err != nil {
			t.Fatal(err)
		}
		if n < 50 { // 1000/20 instances of class-1 were present before the writer started
			t.Fatalf("iteration %d: %d solutions, want at least the 50 pre-existing", i, n)
		}
	}
	close(stop)
	wg.Wait()
}
