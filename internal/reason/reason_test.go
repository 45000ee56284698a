package reason

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dl"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// cyclicTBox defines two names whose (test-supplied) subsumption relation
// will be made cyclic.
func cyclicTBox(t *testing.T) *dl.TBox {
	t.Helper()
	tb := dl.NewTBox()
	tb.MustDefine("alpha", dl.SubsumedBy, dl.Atomic("m1"))
	tb.MustDefine("beta", dl.SubsumedBy, dl.Atomic("m2"))
	return tb
}

func errorsAs(err error, target any) bool { return errors.As(err, target) }

// vehicleBase builds the paper-flavoured hierarchy as triples: car and
// pickup under roadvehicle and motorvehicle, with a couple of instances.
func vehicleBase(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	if _, err := s.AddBatch([]store.Triple{
		{Subject: "car", Predicate: SubClassOfPredicate, Object: "roadvehicle"},
		{Subject: "car", Predicate: SubClassOfPredicate, Object: "motorvehicle"},
		{Subject: "pickup", Predicate: SubClassOfPredicate, Object: "roadvehicle"},
		{Subject: "roadvehicle", Predicate: SubClassOfPredicate, Object: "vehicle"},
		{Subject: "herbie", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "truck-1", Predicate: store.TypePredicate, Object: "pickup"},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReasonRDFSSubClassMaterialization(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	// subClassOf transitivity: car ⊑ vehicle is derived.
	derived := store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"}
	if !r.View().Contains(derived) {
		t.Fatalf("materialization misses transitive %v", derived)
	}
	if prov, ok := r.Provenance(derived); !ok || prov != store.ProvInferred {
		t.Fatalf("Provenance(%v) = %v, %v; want inferred, true", derived, prov, ok)
	}
	// Type propagation: herbie is a roadvehicle, motorvehicle and vehicle.
	for _, class := range []string{"roadvehicle", "motorvehicle", "vehicle"} {
		tr := store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: class}
		if !r.View().Contains(tr) {
			t.Errorf("materialization misses %v", tr)
		}
	}
	// The asserted annotation stays asserted.
	if prov, ok := r.Provenance(store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "car"}); !ok || prov != store.ProvAsserted {
		t.Errorf("asserted annotation reported as %v, %v", prov, ok)
	}
	// Retrieval through the materialized view needs no expansion.
	if got := r.Instances("roadvehicle"); !reflect.DeepEqual(got, []string{"herbie", "truck-1"}) {
		t.Errorf("Instances(roadvehicle) = %v, want [herbie truck-1]", got)
	}
	// The base store was never written: asserted count unchanged.
	if base.Len() != 6 {
		t.Errorf("base store has %d triples, want the 6 asserted", base.Len())
	}
	if r.InferredCount() == 0 {
		t.Error("nothing was inferred")
	}
}

func TestReasonSubPropertyDomainRange(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "hasEngine", Predicate: SubPropertyOfPredicate, Object: "hasPart"},
		{Subject: "hasPart", Predicate: SubPropertyOfPredicate, Object: "relatedTo"},
		{Subject: "hasEngine", Predicate: DomainPredicate, Object: "vehicle"},
		{Subject: "hasEngine", Predicate: RangePredicate, Object: "engine"},
		{Subject: "herbie", Predicate: "hasEngine", Object: "flat4"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []store.Triple{
		{Subject: "hasEngine", Predicate: SubPropertyOfPredicate, Object: "relatedTo"}, // transitivity
		{Subject: "herbie", Predicate: "hasPart", Object: "flat4"},                     // propagation
		{Subject: "herbie", Predicate: "relatedTo", Object: "flat4"},                   // propagation, twice
		{Subject: "herbie", Predicate: store.TypePredicate, Object: "vehicle"},         // domain
		{Subject: "flat4", Predicate: store.TypePredicate, Object: "engine"},           // range
	} {
		if !r.View().Contains(want) {
			t.Errorf("materialization misses %v", want)
		}
	}
}

func TestReasonIncrementalAddRemove(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	// A new annotation propagates immediately.
	if _, err := r.Add(store.Triple{Subject: "kitt", Predicate: store.TypePredicate, Object: "car"}); err != nil {
		t.Fatal(err)
	}
	if !r.View().Contains(store.Triple{Subject: "kitt", Predicate: store.TypePredicate, Object: "vehicle"}) {
		t.Error("Add did not propagate kitt's types")
	}
	// Removing it retracts exactly its derivations.
	if !r.Remove(store.Triple{Subject: "kitt", Predicate: store.TypePredicate, Object: "car"}) {
		t.Fatal("Remove found nothing")
	}
	if r.View().Contains(store.Triple{Subject: "kitt", Predicate: store.TypePredicate, Object: "vehicle"}) {
		t.Error("Remove left a dangling derivation")
	}
	if !r.View().Contains(store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "vehicle"}) {
		t.Error("Remove retracted an unrelated derivation")
	}
	// Removing a hierarchy edge retracts the types that depended on it but
	// keeps those with an independent derivation.
	if !r.Remove(store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "roadvehicle"}) {
		t.Fatal("Remove found nothing")
	}
	if r.View().Contains(store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "roadvehicle"}) {
		t.Error("herbie is still a roadvehicle after the edge supporting it went away")
	}
	if !r.View().Contains(store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "motorvehicle"}) {
		t.Error("herbie lost motorvehicle, which never depended on the removed edge")
	}
	if !r.View().Contains(store.Triple{Subject: "truck-1", Predicate: store.TypePredicate, Object: "roadvehicle"}) {
		t.Error("truck-1 lost roadvehicle, whose derivation does not use the removed edge")
	}
	// Asserting a triple that was only inferred flips provenance without
	// changing the view; removing it flips it back.
	inferred := store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "motorvehicle"}
	if prov, _ := r.Provenance(inferred); prov != store.ProvInferred {
		t.Fatalf("setup: %v should be inferred", inferred)
	}
	before := r.View().Len()
	if added, err := r.Add(inferred); err != nil || !added {
		t.Fatalf("Add(%v) = %v, %v", inferred, added, err)
	}
	if prov, _ := r.Provenance(inferred); prov != store.ProvAsserted {
		t.Error("asserting an inferred triple did not flip provenance")
	}
	if r.View().Len() != before {
		t.Errorf("asserting an inferred triple changed the view size: %d -> %d", before, r.View().Len())
	}
	if !r.Remove(inferred) {
		t.Fatal("Remove of the asserted copy found nothing")
	}
	if prov, ok := r.Provenance(inferred); !ok || prov != store.ProvInferred {
		t.Errorf("after removing the asserted copy, %v = %v, %v; want inferred true (it is still entailed)", inferred, prov, ok)
	}
}

func TestReasonRemoveInferredIsRefused(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	inferred := store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "vehicle"}
	if r.Remove(inferred) {
		t.Error("Remove of an inferred triple reported success")
	}
	if !r.View().Contains(inferred) {
		t.Error("Remove of an inferred triple mutated the view")
	}
}

func TestReasonAddBatch(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.AddBatch([]store.Triple{
		{Subject: "kitt", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "bumblebee", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "kitt", Predicate: store.TypePredicate, Object: "car"}, // duplicate
	})
	if err != nil || n != 2 {
		t.Fatalf("AddBatch = %d, %v; want 2, nil", n, err)
	}
	for _, subj := range []string{"kitt", "bumblebee"} {
		if !r.View().Contains(store.Triple{Subject: subj, Predicate: store.TypePredicate, Object: "vehicle"}) {
			t.Errorf("batch propagation missed %s type vehicle", subj)
		}
	}
	// Batch validation is all-or-nothing, like the store's.
	if _, err := r.AddBatch([]store.Triple{{Subject: "x"}}); err == nil {
		t.Error("AddBatch accepted an invalid triple")
	}
}

func TestReasonUserRules(t *testing.T) {
	rules := append(RDFSRules(), MustParseRules(
		"?x inSameRegion ?y :- ?x locatedIn ?s . ?y locatedIn ?s",
	)...)
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "plant-1", Predicate: "locatedIn", Object: "site-a"},
		{Subject: "plant-2", Predicate: "locatedIn", Object: "site-a"},
		{Subject: "plant-3", Predicate: "locatedIn", Object: "site-b"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, rules)
	if err != nil {
		t.Fatal(err)
	}
	if !r.View().Contains(store.Triple{Subject: "plant-1", Predicate: "inSameRegion", Object: "plant-2"}) {
		t.Error("user rule did not fire")
	}
	if r.View().Contains(store.Triple{Subject: "plant-1", Predicate: "inSameRegion", Object: "plant-3"}) {
		t.Error("user rule fired across sites")
	}
}

// TestReasonExpandEquivalenceE5Corpus is the cross-layer equivalence proof
// the Materialized query mode rests on: on the E5 corpus, for every class,
// query-time Expand rewriting over the asserted store returns exactly the
// same instance set as a literal (Materialized-mode) query over the
// materialized view — whether asked through the BGP evaluator or through the
// reasoner's direct index read.
func TestReasonExpandEquivalenceE5Corpus(t *testing.T) {
	for _, drift := range []float64{0, 0.3} {
		rng := rand.New(rand.NewSource(5))
		corpus := workload.SyntheticCorpus(rng, workload.CorpusParams{
			Hierarchy:         workload.HierarchyParams{Classes: 25, MaxParents: 2},
			InstancesPerClass: 12,
			Drift:             drift,
		})
		oi, err := store.NewOntologyIndex(corpus.TBox)
		if err != nil {
			t.Fatal(err)
		}
		base := corpus.Store
		if _, err := base.AddBatch(OntologyTriples(oi)); err != nil {
			t.Fatal(err)
		}
		r, err := Materialize(base, RDFSRules())
		if err != nil {
			t.Fatal(err)
		}
		for _, class := range corpus.Classes {
			expanded, err := query.Instances(base, oi, class)
			if err != nil {
				t.Fatal(err)
			}
			bgp := query.BGP{query.Pat(query.Var("x"), query.Lit(store.TypePredicate), query.Lit(class))}
			materialized, err := query.Eval(r.View(), bgp, query.Expand(oi), query.Materialized()).Project("x")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(expanded, materialized) {
				t.Fatalf("drift %v class %s: Expand gave %v, materialized BGP gave %v", drift, class, expanded, materialized)
			}
			if direct := r.Instances(class); !reflect.DeepEqual(expanded, direct) {
				t.Fatalf("drift %v class %s: Expand gave %v, Reasoner.Instances gave %v", drift, class, expanded, direct)
			}
			// The served schema is the boot index's hierarchy, as a set.
			live := r.Subsumees(class)
			sort.Strings(live)
			if want := oi.Subsumees(class); !reflect.DeepEqual(live, want) {
				t.Fatalf("drift %v class %s: Reasoner.Subsumees = %v, the ontology index's = %v", drift, class, live, want)
			}
		}
	}
}

// TestSubsumeesReadsTheLiveClosure: Reasoner.Subsumees is the class and
// each class the view puts below it, once — a subClassOf cycle derives
// vehicle subClassOf vehicle, which is not listed twice — and it follows
// schema writes.
func TestSubsumeesReadsTheLiveClosure(t *testing.T) {
	sub := func(a, b string) store.Triple {
		return store.Triple{Subject: a, Predicate: SubClassOfPredicate, Object: b}
	}
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{sub("car", "vehicle"), sub("pickup", "car")}); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want ...string) {
		t.Helper()
		got := r.Subsumees("vehicle")
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Subsumees(vehicle) = %v, want %v", step, got, want)
		}
	}
	check("boot", "car", "pickup", "vehicle")
	if _, _, err := r.Apply([]store.Triple{sub("vehicle", "pickup")}, nil, nil); err != nil {
		t.Fatal(err)
	}
	check("a cycle", "car", "pickup", "vehicle")
	if _, _, err := r.Apply(nil, []store.Triple{sub("vehicle", "pickup"), sub("pickup", "car")}, nil); err != nil {
		t.Fatal(err)
	}
	check("two removes", "car", "vehicle")
}

// TestReasonCyclicHierarchyRefused checks the graceful-refusal path: a
// subsumption test that relates two classes both ways yields the typed
// SubsumptionCycleError from the ontology index, so a reasoner fed by
// OntologyTriples never sees the collapsed hierarchy.
func TestReasonCyclicHierarchyRefused(t *testing.T) {
	tb := cyclicTBox(t)
	_, err := store.NewOntologyIndexWith(tb, func(sub, super string) (bool, error) {
		// Everything subsumes everything: maximal cycles.
		return true, nil
	})
	if err == nil {
		t.Fatal("cyclic subsumption accepted")
	}
	var cycErr *store.SubsumptionCycleError
	if !errorsAs(err, &cycErr) {
		t.Fatalf("error %v is not a *store.SubsumptionCycleError", err)
	}
	if len(cycErr.Cycles) == 0 {
		t.Error("cycle error lists no cycles")
	}
}

func TestReasonStats(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Derived != r.InferredCount() {
		t.Errorf("Derived = %d, InferredCount = %d; want equal before any deletion", st.Derived, r.InferredCount())
	}
	if st.Rounds == 0 {
		t.Error("no rounds recorded")
	}
	r.Remove(store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "roadvehicle"})
	if st2 := r.Stats(); st2.Overdeleted == 0 {
		t.Error("removal of a hierarchy edge overdeleted nothing")
	}
}

func TestReasonRuleValidation(t *testing.T) {
	base := store.New()
	bad := []Rule{{
		Name: "unrestricted",
		Head: query.Pat(query.Var("x"), query.Lit("p"), query.Var("nowhere")),
		Body: []query.TriplePattern{query.Pat(query.Var("x"), query.Lit("q"), query.Var("y"))},
	}}
	if _, err := Materialize(base, bad); err == nil {
		t.Error("range-unrestricted rule accepted")
	}
	if _, err := Materialize(base, []Rule{{Name: "bodyless", Head: query.Pat(query.Lit("a"), query.Lit("b"), query.Lit("c"))}}); err == nil {
		t.Error("bodyless rule accepted")
	}
	if _, err := Materialize(nil, RDFSRules()); err == nil {
		t.Error("nil base accepted")
	}
}

// TestApplyLargeRetractionIsNotQuadratic: retracting k·n instances of car ⊑
// vehicle, each named twice, costs about as much in one write as in k writes
// of n, not the k× of a pass over the batch, a posting list or the overlay
// per removed triple. Without rules the cost is the retracted set's: its
// de-duplication and its removal from the (type, car) list. Under the RDFS
// rules DRed also overdeletes and rederives the inferred vehicle
// annotations. Each side is the fastest of a few rounds on the test thread's
// CPU clock, which a loaded machine does not advance.
func TestApplyLargeRetractionIsNotQuadratic(t *testing.T) {
	const k, rounds = 20, 3
	for _, c := range []struct {
		name  string
		rules []Rule
		n     int
	}{{"asserted", nil, 1000}, {"rdfs", RDFSRules(), 500}} {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled {
				// The detector's overhead is not linear in the work: check
				// the outcome only.
				retractInstances(t, c.rules, k*c.n)
				return
			}
			whole, split := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for range rounds {
				var sum time.Duration
				for range k {
					sum += retractInstances(t, c.rules, c.n)
				}
				split = min(split, sum)
				whole = min(whole, retractInstances(t, c.rules, k*c.n))
			}
			ratio := float64(whole) / float64(split)
			t.Logf("retracting %d instances in one write: %v; in %d writes of %d: %v (%.1f×)", k*c.n, whole, k, c.n, split, ratio)
			if ratio > 3 {
				t.Errorf("one write of %d took %.1f× the time of %d writes of %d, want about 1× (≤ 3×; quadratic is %d×)", k*c.n, ratio, k, c.n, k)
			}
		})
	}
}

// retractInstances returns the thread CPU time of one write that retracts n
// asserted instances of car (named twice each) from a materialization of car
// ⊑ vehicle under rules, and checks its outcome.
func retractInstances(t *testing.T, rules []Rule, n int) time.Duration {
	t.Helper()
	base := store.New()
	asserted := []store.Triple{{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"}}
	for i := 0; i < n; i++ {
		asserted = append(asserted, store.Triple{Subject: fmt.Sprintf("i%d", i), Predicate: store.TypePredicate, Object: "car"})
	}
	if _, err := base.AddBatch(asserted); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, rules)
	if err != nil {
		t.Fatal(err)
	}
	removes := append(append([]store.Triple(nil), asserted[1:]...), asserted[1:]...)
	runtime.GC()
	runtime.LockOSThread()
	start := threadCPU()
	added, removed, err := r.Apply(nil, removes, nil)
	elapsed := threadCPU() - start
	runtime.UnlockOSThread()
	if err != nil || added != 0 || removed != n {
		t.Fatalf("Apply = %d, %d, %v; want 0, %d, nil", added, removed, err, n)
	}
	if base.Len() != 1 || r.InferredCount() != 0 {
		t.Fatalf("after the retraction: %d asserted and %d inferred, want 1 and 0", base.Len(), r.InferredCount())
	}
	return elapsed
}
