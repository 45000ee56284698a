package query

// The join evaluator is checked against the dumbest possible reference: the
// model's string-level backtracking evaluator (internal/model), which, for
// each pattern in BGP order, scans every triple of the store. The reference knows nothing about
// indexes, dictionaries, plans or probes, so any agreement between the two
// is evidence the planner's ordering and the id-level probing are
// semantics-preserving. The comparison runs as a seeded property test over
// random stores and BGPs (shared-variable joins, repeated variables,
// unsatisfiable literals, empty stores, ontology expansion) and as a fuzz
// target over the same generator.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/query/exec"
	"repro/internal/store"
	"repro/internal/tboxio"
)

// modelPattern converts a pattern to the model's.
func modelPattern(p TriplePattern) model.Pattern {
	return model.Pattern{Subject: model.Term(p.Subject), Predicate: model.Term(p.Predicate), Object: model.Term(p.Object)}
}

// modelEval is the model's answer to the BGP over ts (internal/model: a
// backtracking matcher over the triple list, in the BGP's own pattern order),
// expanded through oi when it is set.
func modelEval(ts []store.Triple, bgp BGP, oi *store.OntologyIndex) []Binding {
	// Reject the same malformed inputs Eval reports through Err.
	var ps []model.Pattern
	for _, p := range bgp {
		for _, term := range p.terms() {
			if term.Value == "" {
				return nil
			}
		}
		ps = append(ps, modelPattern(p))
	}
	set := model.Set{}
	for _, t := range ts {
		set.Add(model.Triple(t))
	}
	var subsumees func(string) []string
	if oi != nil {
		subsumees = oi.Subsumees
	}
	var out []Binding
	for _, b := range set.Eval(ps, subsumees) {
		out = append(out, Binding(b))
	}
	return out
}

// refHierarchy is the fixed class hierarchy the random cases annotate under:
// c2 ⊑ c1 ⊑ c0, c3 ⊑ c0, c4 unrelated.
const refHierarchy = `
c0 <= exists r.a0
c1 <= c0 and exists r.a1
c2 <= c1 and exists r.a2
c3 <= c0 and exists r.a3
c4 <= exists r.a4
`

func refIndex(t testing.TB) *store.OntologyIndex {
	t.Helper()
	tb, err := tboxio.ParseString(refHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		t.Fatal(err)
	}
	return oi
}

// randomCase generates one store and one BGP from the rng. The vocabulary is
// deliberately tiny so joins, repeated variables and empty answers all occur
// with useful frequency; a sprinkle of never-interned literals exercises the
// unsatisfiable path.
func randomCase(rng *rand.Rand) ([]store.Triple, BGP) {
	subjects := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	predicates := []string{"p0", "p1", "p2", store.TypePredicate}
	objects := []string{"o0", "o1", "s0", "s1", "c0", "c1", "c2", "c3", "c4"}
	vars := []string{"a", "b", "c", "d"}

	n := rng.Intn(60) // sometimes zero: the empty store
	triples := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		triples = append(triples, store.Triple{
			Subject:   subjects[rng.Intn(len(subjects))],
			Predicate: predicates[rng.Intn(len(predicates))],
			Object:    objects[rng.Intn(len(objects))],
		})
	}

	term := func(pool []string) Term {
		r := rng.Float64()
		switch {
		case r < 0.40:
			return Var(vars[rng.Intn(len(vars))])
		case r < 0.45:
			return Lit("never-seen")
		default:
			return Lit(pool[rng.Intn(len(pool))])
		}
	}
	bgp := make(BGP, 1+rng.Intn(4))
	for i := range bgp {
		bgp[i] = Pat(term(subjects), term(predicates), term(objects))
	}
	return triples, bgp
}

// fanoutCase generates a store and BGP whose join probes each fan out past one
// batch: a few hubs with more than exec.BatchSize spokes apiece, reached
// through an owner, so the spoke join must emit one probe's matches across
// several output batches (and, with the planner's estimate, probes in
// windows narrower than its child batch). randomCase's 60-triple stores can
// never get there. A marked handful of spokes gives some cases a selective
// third pattern, written first so the reference stays cheap.
func fanoutCase(rng *rand.Rand) ([]store.Triple, BGP) {
	hubs := 1 + rng.Intn(3)
	var triples []store.Triple
	for h := 0; h < hubs; h++ {
		hub := fmt.Sprintf("hub%d", h)
		triples = append(triples, store.Triple{Subject: "g", Predicate: "owns", Object: hub})
		for i, n := 0, exec.BatchSize+1+rng.Intn(300); i < n; i++ {
			spoke := fmt.Sprintf("x%d-%d", h, i)
			triples = append(triples, store.Triple{Subject: hub, Predicate: "spoke", Object: spoke})
			if rng.Intn(200) == 0 {
				triples = append(triples, store.Triple{Subject: spoke, Predicate: "mark", Object: "m"})
			}
		}
	}
	bgp := BGP{Pat(Lit("g"), Lit("owns"), Var("h")), Pat(Var("h"), Lit("spoke"), Var("x"))}
	if rng.Intn(2) == 0 {
		bgp = append(BGP{Pat(Var("x"), Lit("mark"), Var("m"))}, bgp...)
	}
	return triples, bgp
}

// checkAgainstReference evaluates one case both ways and compares the
// canonicalized solution multisets.
func checkAgainstReference(t *testing.T, triples []store.Triple, bgp BGP, oi *store.OntologyIndex) {
	t.Helper()
	s := store.New()
	if _, err := s.AddBatch(triples); err != nil {
		t.Fatal(err)
	}
	var opts []Option
	if oi != nil {
		opts = append(opts, Expand(oi))
	}
	got, err := Eval(s, bgp, opts...).All()
	if err != nil {
		t.Fatalf("BGP %q: %v", bgp, err)
	}
	want := modelEval(s.Triples(), bgp, oi)
	gotC, wantC := canonicalize(got), canonicalize(want)
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatalf("BGP %q over %d triples:\n planner: %v\n reference: %v", bgp, len(triples), gotC, wantC)
	}
}

func TestEvalMatchesReference(t *testing.T) {
	oi := refIndex(t)
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		triples, bgp := randomCase(rng)
		var idx *store.OntologyIndex
		if seed%2 == 1 {
			idx = oi
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			checkAgainstReference(t, triples, bgp, idx)
		})
	}
	for seed := int64(-1); seed >= -6; seed-- {
		triples, bgp := fanoutCase(rand.New(rand.NewSource(seed)))
		t.Run(fmt.Sprintf("fanout-seed%d", seed), func(t *testing.T) {
			checkAgainstReference(t, triples, bgp, nil)
		})
	}
}

// FuzzEvalMatchesReference fuzzes the generators' seed: non-negative seeds
// draw a randomCase, negative ones a fanoutCase.
func FuzzEvalMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%3 == 0)
	}
	f.Add(int64(-1), false)
	f.Add(int64(-2), false)
	tb, err := tboxio.ParseString(refHierarchy)
	if err != nil {
		f.Fatal(err)
	}
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, expand bool) {
		rng := rand.New(rand.NewSource(seed))
		triples, bgp := randomCase(rng)
		if seed < 0 {
			triples, bgp = fanoutCase(rng)
		}
		var idx *store.OntologyIndex
		if expand {
			idx = oi
		}
		checkAgainstReference(t, triples, bgp, idx)
	})
}

// TestInterruptMidBatch cancels an evaluation from inside the stream — the
// hook flips after a prefix of solutions has been read, which with the
// batched evaluator lands mid-batch — and checks that the iteration stops
// within the documented poll throttle instead of draining the rest of the
// current batch, and that Err reports ErrInterrupted.
func TestInterruptMidBatch(t *testing.T) {
	s := store.New()
	ts := make([]store.Triple, 0, 40_000)
	for i := 0; i < 40_000; i++ {
		ts = append(ts, store.Triple{
			Subject:   fmt.Sprintf("s%d", i),
			Predicate: "p",
			Object:    fmt.Sprintf("o%d", i%13),
		})
	}
	if _, err := s.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	const prefix = 1500 // more than one 1024-row batch
	cancelled := false
	sols := Eval(s, MustParseBGP("?s p ?o"), Interrupt(func() bool { return cancelled }))
	n := 0
	for sols.Next() {
		n++
		if n == prefix {
			cancelled = true
		}
		if n > prefix+4*interruptTickMask {
			t.Fatal("iterator kept producing solutions long after mid-stream cancellation")
		}
	}
	if !reflect.DeepEqual(sols.Err(), ErrInterrupted) {
		t.Fatalf("Err = %v, want ErrInterrupted", sols.Err())
	}
	if n < prefix {
		t.Fatalf("iterator stopped after %d solutions, before the cancellation point", n)
	}
}

// TestEmptyBatchPipelines covers the empty-batch path: a leaf whose rows are
// entirely (or partially) eliminated by an intra-pattern repeated-variable
// filter hands empty (or short) batches to the join above, which must skip
// them without ending the stream. Checked against the reference evaluator,
// with and without a surviving self-loop.
func TestEmptyBatchPipelines(t *testing.T) {
	base := []store.Triple{
		{Subject: "a", Predicate: "p", Object: "b"},
		{Subject: "b", Predicate: "p", Object: "c"},
		{Subject: "c", Predicate: "p", Object: "a"},
		{Subject: "a", Predicate: "q", Object: "x"},
		{Subject: "b", Predicate: "q", Object: "y"},
	}
	selfLoop := store.Triple{Subject: "b", Predicate: "p", Object: "b"}
	bgps := []BGP{
		MustParseBGP("?x p ?x"),           // filter-everything leaf
		MustParseBGP("?x p ?x . ?x q ?y"), // empty batches feeding a join
		MustParseBGP("?x q ?y . ?x p ?x"), // repeated-var pattern as the probe side
	}
	for _, withLoop := range []bool{false, true} {
		triples := base
		if withLoop {
			triples = append(append([]store.Triple(nil), base...), selfLoop)
		}
		for _, bgp := range bgps {
			t.Run(fmt.Sprintf("loop=%v/%s", withLoop, bgp), func(t *testing.T) {
				checkAgainstReference(t, triples, bgp, nil)
			})
		}
	}
}

// TestGreedyPlannerMatchesReference covers the n > maxExhaustive planner
// branch, which the random generator (≤4 patterns) never reaches: 7- and
// 8-pattern BGPs over a path-plus-hub graph, deterministic and seeded-random,
// compared against the reference evaluator. The graph keeps the reference's
// exhaustive backtracking tractable (every pattern is predicate-anchored).
func TestGreedyPlannerMatchesReference(t *testing.T) {
	var triples []store.Triple
	for i := 0; i < 10; i++ {
		a := fmt.Sprintf("a%d", i)
		triples = append(triples,
			store.Triple{Subject: a, Predicate: store.TypePredicate, Object: fmt.Sprintf("t%d", i%3)},
			store.Triple{Subject: "h", Predicate: "spoke", Object: a},
		)
		if i+1 < 10 {
			triples = append(triples, store.Triple{Subject: a, Predicate: "next", Object: fmt.Sprintf("a%d", i+1)})
		}
	}
	chain := func(n int, subst map[string]Term) BGP {
		termFor := func(name string) Term {
			if t, ok := subst[name]; ok {
				return t
			}
			return Var(name)
		}
		var bgp BGP
		for i := 0; i < n; i++ {
			bgp = append(bgp, Pat(termFor(fmt.Sprintf("v%d", i)), Lit("next"), termFor(fmt.Sprintf("v%d", i+1))))
		}
		return bgp
	}

	// A 7-pattern pure chain and an 8-pattern chain+hub+type mix.
	cases := []BGP{
		chain(7, nil),
		append(chain(5, nil),
			Pat(Lit("h"), Lit("spoke"), Var("v0")),
			Pat(Var("v0"), Lit(store.TypePredicate), Lit("t0")),
			Pat(Var("v5"), Lit(store.TypePredicate), Var("tv"))),
	}
	// Seeded-random 8-pattern cases: a 7-chain with one variable pinned to a
	// random node, plus a hub pattern.
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		subst := map[string]Term{fmt.Sprintf("v%d", rng.Intn(8)): Lit(fmt.Sprintf("a%d", rng.Intn(10)))}
		bgp := append(chain(7, subst), Pat(Lit("h"), Lit("spoke"), Var("v3")))
		cases = append(cases, bgp)
	}
	for i, bgp := range cases {
		if len(bgp) <= maxExhaustive {
			t.Fatalf("case %d has %d patterns; this test must exercise the greedy branch (> %d)", i, len(bgp), maxExhaustive)
		}
		t.Run(fmt.Sprintf("case-%d", i), func(t *testing.T) {
			checkAgainstReference(t, triples, bgp, nil)
		})
	}
}
