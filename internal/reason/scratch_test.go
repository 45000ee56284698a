package reason

import (
	"strconv"
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// TestApplySteadyStateAllocs pins what a warmed write allocates: a retype
// flipped between two classes (one add plus one remove, so the index does not
// grow) runs its propagation, overdeletion and rederivation entirely on the
// reasoner's write scratch and the pooled operators. What is left is the
// store's — the fresh triples AddBatch returns and their buckets, and the
// write transaction's journal lists.
func TestApplySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const classes = 12
	s := store.New()
	if _, err := s.AddBatch(servingCorpusN(t, classes, 2000)); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(s, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	typeOf := func(c int) []store.Triple {
		return []store.Triple{{Subject: "inst-7", Predicate: store.TypePredicate, Object: workload.ClassName(c)}}
	}
	from, to := typeOf(7%classes), typeOf((7+5)%classes)
	flip := func() {
		if added, removed, err := r.Apply(to, from, nil); err != nil || added != 1 || removed != 1 {
			t.Fatalf("Apply = %d added, %d removed, %v; want 1, 1, nil", added, removed, err)
		}
		from, to = to, from
	}
	for i := 0; i < 10; i++ {
		flip()
	}
	before := r.Stats()
	const want = 5
	allocs := testing.AllocsPerRun(100, flip)
	t.Logf("%.1f allocs per retype", allocs)
	if allocs > want {
		t.Errorf("%.1f allocs per retype, want at most %d", allocs, want)
	}
	if after := r.Stats(); after.Overdeleted == before.Overdeleted || after.Rederived == before.Rederived {
		t.Fatalf("the retypes overdeleted %d and rederived %d triples: the write path under test never ran", after.Overdeleted-before.Overdeleted, after.Rederived-before.Rederived)
	}
}

// TestScratchIsBounded holds the write scratch to scratchCap: a bulk load and
// a bulk retraction grow it far past the cap, and the write that grew it
// drops what it cannot keep, so after them and one small write every
// retained buffer is within the cap — and the boot fixpoint leaves nothing
// behind at all.
func TestScratchIsBounded(t *testing.T) {
	s := store.New()
	if _, err := s.AddBatch(servingCorpusN(t, 40, 100)); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(s, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	caps := func() map[string]int {
		sc := &r.scratch
		return map[string]int{
			"heads": cap(sc.heads), "added": cap(sc.added), "removed": cap(sc.removed),
			"gone": cap(sc.gone), "marked": cap(sc.marked), "restored": cap(sc.restored),
		}
	}
	for name, c := range caps() {
		if c != 0 {
			t.Errorf("after Materialize the %s buffer keeps %d entries, want none", name, c)
		}
	}

	bulk := make([]store.Triple, 0, 20_000)
	for i := 0; len(bulk) < cap(bulk); i++ {
		name := "bulk-" + strconv.Itoa(i)
		bulk = append(bulk,
			store.Triple{Subject: name, Predicate: store.TypePredicate, Object: workload.ClassName(i % 40)},
			store.Triple{Subject: name, Predicate: "locatedIn", Object: "site-" + strconv.Itoa(i%89)})
	}
	largest := 0
	r.SetOnEvent(func(d Delta) { largest = max(largest, len(d.Added), len(d.Removed)) })
	if n, err := r.AddBatch(bulk); err != nil || n != len(bulk) {
		t.Fatalf("AddBatch = %d, %v; want %d, nil", n, err, len(bulk))
	}
	if largest <= scratchCap {
		t.Fatalf("the bulk load's Delta listed %d triples, not past the cap of %d: the test grows nothing", largest, scratchCap)
	}
	if _, removed, err := r.Apply(nil, bulk, nil); err != nil || removed != len(bulk) {
		t.Fatalf("bulk retraction removed %d, %v; want %d, nil", removed, err, len(bulk))
	}
	if r.scratch.seen != nil {
		t.Errorf("the retraction set held %d+ triples and was kept; want it dropped", len(bulk))
	}
	if _, err := r.Add(store.Triple{Subject: "small", Predicate: store.TypePredicate, Object: workload.ClassName(3)}); err != nil {
		t.Fatal(err)
	}
	for name, c := range caps() {
		if c > scratchCap {
			t.Errorf("after a bulk load and a small write the %s buffer keeps %d entries, past the cap of %d", name, c, scratchCap)
		}
	}
}
