package store

import (
	"sort"
	"testing"

	"repro/internal/dl"
)

// vehiclesTBox is the paper's eq. (4) plus explicit subclass structure so
// that ontology expansion has something to expand: car and pickup are both
// road vehicles and motor vehicles.
func vehiclesTBox(t *testing.T) *dl.TBox {
	t.Helper()
	tb := dl.NewTBox()
	tb.MustDefine("motorvehicle", dl.SubsumedBy, dl.Exists("uses", dl.Atomic("gasoline")))
	tb.MustDefine("roadvehicle", dl.SubsumedBy, dl.AtLeast(4, "has", dl.Atomic("wheels")))
	tb.MustDefine("car", dl.SubsumedBy, dl.And(
		dl.Atomic("motorvehicle"), dl.Atomic("roadvehicle"), dl.Exists("size", dl.Atomic("small")),
	))
	tb.MustDefine("pickup", dl.SubsumedBy, dl.And(
		dl.Atomic("motorvehicle"), dl.Atomic("roadvehicle"), dl.Exists("size", dl.Atomic("big")),
	))
	return tb
}

func TestOntologyIndexSubsumption(t *testing.T) {
	oi, err := NewOntologyIndex(vehiclesTBox(t))
	if err != nil {
		t.Fatal(err)
	}
	subs := oi.Subsumees("roadvehicle")
	want := map[string]bool{"car": true, "pickup": true, "roadvehicle": true}
	if len(subs) != len(want) {
		t.Fatalf("Subsumees(roadvehicle) = %v, want car, pickup, roadvehicle", subs)
	}
	for _, s := range subs {
		if !want[s] {
			t.Errorf("unexpected subsumee %q", s)
		}
	}
	sups := oi.Subsumers("car")
	if len(sups) != 3 { // car, motorvehicle, roadvehicle
		t.Errorf("Subsumers(car) = %v, want 3 classes", sups)
	}
	// Unknown classes degrade to themselves.
	if got := oi.Subsumees("boat"); len(got) != 1 || got[0] != "boat" {
		t.Errorf("Subsumees(boat) = %v, want [boat]", got)
	}
	if got := oi.Subsumers("boat"); len(got) != 1 || got[0] != "boat" {
		t.Errorf("Subsumers(boat) = %v, want [boat]", got)
	}
	if got := oi.Classes(); len(got) != 4 {
		t.Errorf("Classes = %v, want the 4 defined names", got)
	}
}

// expandedInstances is the expansion the query layer performs, phrased over
// the store's raw reads: the deduplicated sorted union of each subsumee's
// annotated subjects. It stands in for the removed InstancesOfExpanded
// helper so the subsumption index's retrieval semantics stay covered at the
// store level (the query package proves its Expand option equivalent).
func expandedInstances(s *Store, oi *OntologyIndex, class string) []string {
	seen := map[string]bool{}
	var out []string
	v, err := NewView(s, s.NewOverlay())
	if err != nil {
		panic(err)
	}
	for _, c := range oi.Subsumees(class) {
		v.ForEachSubject(TypePredicate, c, func(subj string) bool {
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

func TestExpandedRetrievalThroughIndex(t *testing.T) {
	oi, err := NewOntologyIndex(vehiclesTBox(t))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	for _, a := range [][2]string{{"c1", "car"}, {"c2", "car"}, {"p1", "pickup"}, {"r1", "roadvehicle"}} {
		s.MustAdd(Triple{Subject: a[0], Predicate: TypePredicate, Object: a[1]})
	}

	plain := s.Query(Pattern{Predicate: TypePredicate, Object: "roadvehicle"})
	if len(plain) != 1 || plain[0].Subject != "r1" {
		t.Errorf("unexpanded Query(? type roadvehicle) = %v, want r1 only", plain)
	}
	expanded := expandedInstances(s, oi, "roadvehicle")
	if len(expanded) != 4 {
		t.Errorf("expanded retrieval of roadvehicle = %v, want all four instances", expanded)
	}
	// Expansion of a leaf class adds nothing.
	if got := expandedInstances(s, oi, "car"); len(got) != 2 {
		t.Errorf("expanded retrieval of car = %v, want [c1 c2]", got)
	}
	// Expansion never loses the unexpanded answers.
	for _, tr := range plain {
		found := false
		for _, e := range expanded {
			if e == tr.Subject {
				found = true
			}
		}
		if !found {
			t.Errorf("expansion lost subject %q", tr.Subject)
		}
	}
}

func TestNewOntologyIndexWithFailingReasoner(t *testing.T) {
	tb := vehiclesTBox(t)
	fails := func(sub, super string) (bool, error) {
		return false, dl.ErrNotConjunctive
	}
	if _, err := NewOntologyIndexWith(tb, fails); err == nil {
		t.Error("expected the reasoner error to propagate")
	}
}

func TestEvaluateAndMacro(t *testing.T) {
	r := Evaluate([]string{"a", "b", "c"}, []string{"b", "c", "d"})
	if r.TruePositive != 2 || r.Retrieved != 3 || r.Relevant != 3 {
		t.Fatalf("Evaluate = %+v", r)
	}
	if p := r.Precision(); p < 0.666 || p > 0.667 {
		t.Errorf("Precision = %f", p)
	}
	if rec := r.Recall(); rec < 0.666 || rec > 0.667 {
		t.Errorf("Recall = %f", rec)
	}
	if f1 := r.F1(); f1 < 0.66 || f1 > 0.67 {
		t.Errorf("F1 = %f", f1)
	}
	// Edge cases.
	empty := Evaluate(nil, nil)
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Errorf("empty Evaluate P/R = %f/%f, want 1/1", empty.Precision(), empty.Recall())
	}
	zero := Evaluate([]string{"x"}, []string{"y"})
	if zero.F1() != 0 {
		t.Errorf("disjoint F1 = %f, want 0", zero.F1())
	}
	agg := Macro([]RetrievalResult{r, empty})
	if agg.Queries != 2 {
		t.Errorf("Macro queries = %d, want 2", agg.Queries)
	}
	if agg.Recall <= 0.8 || agg.Recall > 1 {
		t.Errorf("Macro recall = %f", agg.Recall)
	}
	if Macro(nil).Queries != 0 {
		t.Error("Macro(nil) should be zero-valued")
	}
	if r.String() == "" || agg.String() == "" {
		t.Error("empty String renderings")
	}
}
