package reason

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/store"
)

// deltaLog collects the events SetOnEvent delivers in one test, copying the
// slices (the reasoner owns them only for the duration of the call) and
// resolving ids back to triples for readable assertions. Attached to the base
// as its journal, it also collects the replayable mutation of every write —
// the record the write stages — and answers every commit with err.
type deltaLog struct {
	res            store.Resolver
	fires          int
	added, removed []store.Triple
	// assertedAdded and assertedRemoved are the journaled records' sides.
	assertedAdded, assertedRemoved []store.Triple
	err                            error
}

func (l *deltaLog) JournalDict(store.SymbolID, []store.NameRun) {}

func (l *deltaLog) JournalMutation(adds, removes []store.IDTriple, _ store.Position) {
	l.assertedAdded = append(l.assertedAdded, l.resolve(adds)...)
	l.assertedRemoved = append(l.assertedRemoved, l.resolve(removes)...)
}

func (l *deltaLog) JournalWait() error { return l.err }

func (l *deltaLog) resolve(ts []store.IDTriple) []store.Triple {
	var out []store.Triple
	for _, t := range ts {
		out = append(out, store.Triple{Subject: l.res.Name(t.S), Predicate: l.res.Name(t.P), Object: l.res.Name(t.O)})
	}
	return out
}

func (l *deltaLog) hook(d Delta) {
	l.fires++
	l.added = append(l.added, l.resolve(d.Added)...)
	l.removed = append(l.removed, l.resolve(d.Removed)...)
}

func (l *deltaLog) reset() {
	*l = deltaLog{res: l.res, err: l.err}
}

func contains(ts []store.Triple, want store.Triple) bool {
	for _, t := range ts {
		if t == want {
			return true
		}
	}
	return false
}

func TestOnDeltaCoversAssertedAndInferredChanges(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		{Subject: "vehicle", Predicate: SubClassOfPredicate, Object: "artifact"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnEvent(log.hook)
	base.SetJournal(log)

	typed := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"}
	inferred := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "vehicle"}
	top := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "artifact"}

	// Add: one notification covering the asserted triple and both inferred
	// consequences.
	if _, err := r.Add(typed); err != nil {
		t.Fatal(err)
	}
	if log.fires != 1 {
		t.Fatalf("Add fired %d notifications, want 1", log.fires)
	}
	for _, want := range []store.Triple{typed, inferred, top} {
		if !contains(log.added, want) {
			t.Fatalf("Add delta %v is missing %v", log.added, want)
		}
	}
	if len(log.removed) != 0 {
		t.Fatalf("Add reported removals: %v", log.removed)
	}

	// Re-adding a present triple leaves the view unchanged: no notification.
	log.reset()
	if _, err := r.Add(typed); err != nil {
		t.Fatal(err)
	}
	if log.fires != 0 {
		t.Fatalf("re-Add fired %d notifications, want 0", log.fires)
	}

	// A provenance flip (asserting a currently-inferred triple) leaves the
	// view unchanged but moves the triple from the overlay to the base; the
	// hook reports it in both lists so caches over either member alone stay
	// correct.
	log.reset()
	if _, err := r.Add(inferred); err != nil {
		t.Fatal(err)
	}
	if log.fires != 1 {
		t.Fatalf("provenance-flip Add fired %d notifications, want 1", log.fires)
	}
	if !contains(log.added, inferred) || !contains(log.removed, inferred) {
		t.Fatalf("flip delta added=%v removed=%v should carry the flipped triple in both lists", log.added, log.removed)
	}

	// Remove: the union of the two lists covers everything whose membership
	// may have changed. Removing the asserted "beetle type car" retracts it
	// but "beetle type vehicle" survives (it was asserted by the flip above).
	log.reset()
	if !r.Remove(typed) {
		t.Fatal("Remove(typed) reported the triple absent")
	}
	if log.fires != 1 {
		t.Fatalf("Remove fired %d notifications, want 1", log.fires)
	}
	if !contains(log.removed, typed) {
		t.Fatalf("Remove delta %v is missing the retracted %v", log.removed, typed)
	}
	if r.View().Contains(typed) {
		t.Fatal("view still contains the retracted triple")
	}

	// AddBatch: one notification for the whole batch, inferred consequences
	// included.
	log.reset()
	batch := []store.Triple{
		{Subject: "pickup1", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "pickup2", Predicate: store.TypePredicate, Object: "car"},
	}
	if _, err := r.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if log.fires != 1 {
		t.Fatalf("AddBatch fired %d notifications, want 1", log.fires)
	}
	for _, subj := range []string{"pickup1", "pickup2"} {
		for _, class := range []string{"car", "vehicle", "artifact"} {
			want := store.Triple{Subject: subj, Predicate: store.TypePredicate, Object: class}
			if !contains(log.added, want) {
				t.Fatalf("AddBatch delta %v is missing %v", log.added, want)
			}
		}
	}

	// An all-duplicate batch leaves the view unchanged: no notification.
	log.reset()
	if _, err := r.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	if log.fires != 0 {
		t.Fatalf("duplicate AddBatch fired %d notifications, want 0", log.fires)
	}

	// A two-sided Apply: one notification covering both sides. pickup3 is
	// asserted and retracted by the same write, so it and its consequences
	// are in both lists; pickup1's retraction kills its inferences.
	log.reset()
	both := store.Triple{Subject: "pickup3", Predicate: store.TypePredicate, Object: "car"}
	added, removed, err := r.Apply([]store.Triple{both}, []store.Triple{batch[0], both, batch[0]}, nil)
	if err != nil || added != 1 || removed != 2 {
		t.Fatalf("Apply = %d, %d, %v; want 1 added, 2 removed", added, removed, err)
	}
	if log.fires != 1 {
		t.Fatalf("two-sided Apply fired %d notifications, want 1", log.fires)
	}
	for _, subj := range []string{"pickup1", "pickup3"} {
		for _, class := range []string{"car", "vehicle", "artifact"} {
			want := store.Triple{Subject: subj, Predicate: store.TypePredicate, Object: class}
			if !contains(log.removed, want) || (subj == "pickup3") != contains(log.added, want) {
				t.Fatalf("two-sided delta added=%v removed=%v mishandles %v", log.added, log.removed, want)
			}
		}
	}
	if !reflect.DeepEqual(log.assertedAdded, []store.Triple{both}) || !reflect.DeepEqual(log.assertedRemoved, []store.Triple{batch[0], both}) {
		t.Fatalf("replayable mutation is +%v −%v, want +[%v] −[%v %v]", log.assertedAdded, log.assertedRemoved, both, batch[0], both)
	}
	if r.View().Contains(both) || r.View().Contains(batch[0]) {
		t.Fatal("a triple retracted by the write survived in the view")
	}
}

// TestOnDeltaRemoveCoversRetractedInferences checks the conservative-superset
// contract on the DRed path: when retracting an asserted triple kills an
// inference, the inference appears in the removed list.
func TestOnDeltaRemoveCoversRetractedInferences(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnEvent(log.hook)
	base.SetJournal(log)

	typed := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"}
	inferred := store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "vehicle"}
	if !r.Remove(typed) {
		t.Fatal("Remove reported the triple absent")
	}
	if !contains(log.removed, typed) || !contains(log.removed, inferred) {
		t.Fatalf("Remove delta %v should cover both the asserted triple and its dead inference", log.removed)
	}
	if r.View().Contains(inferred) {
		t.Fatal("dead inference survived in the view")
	}
}

// sameSet reports whether two triple lists hold the same triples, each once.
// The journaled records' sides are sets, compared here without
// regard to order.
func sameSet(got, want []store.Triple) bool {
	if len(got) != len(want) {
		return false
	}
	for _, w := range want {
		if !contains(got, w) {
			return false
		}
	}
	return true
}

// TestAddBatchJournalFailureStillMaintains: a write whose journal commit fails
// is applied in memory, so the reasoner must finish it — overlay maintained,
// one Delta delivered — before reporting store.ErrJournal, whether the write
// asserts, retracts or does both; a validation error, which applies nothing,
// delivers nothing. Add, AddBatch and Remove share the body.
func TestAddBatchJournalFailureStillMaintains(t *testing.T) {
	asserted := []store.Triple{
		{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		{Subject: "vehicle", Predicate: SubClassOfPredicate, Object: "artifact"},
	}
	base := store.New()
	if _, err := base.AddBatch(asserted); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver(), err: errors.New("disk gone")}
	r.SetOnEvent(log.hook)
	base.SetJournal(log)
	defer base.SetJournal(nil)
	checkClosure := func(stage string) {
		t.Helper()
		if got, want := provenanceSnapshot(t, r), taggedSnapshot(t, closure(asserted, RDFSRules()), asserted); !bytes.Equal(got, want) {
			t.Fatalf("%s: after failed commits the view is not the closure of the base:\n%s\nwant:\n%s", stage, got, want)
		}
	}

	invalid := []store.Triple{{Subject: "x", Predicate: store.TypePredicate, Object: ""}}
	if n, err := r.AddBatch(invalid); err == nil || errors.Is(err, store.ErrJournal) || n != 0 || log.fires != 0 {
		t.Fatalf("invalid batch: n=%d err=%v events=%d, want a validation error and nothing else", n, err, log.fires)
	}
	if a, rm, err := r.Apply(invalid, asserted[:1], nil); err == nil || errors.Is(err, store.ErrJournal) || a != 0 || rm != 0 || log.fires != 0 || !base.Contains(asserted[0]) {
		t.Fatalf("invalid two-sided write: %d, %d, %v, %d events; want a validation error and nothing applied on either side", a, rm, err, log.fires)
	}

	batch := []store.Triple{
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "pickup", Predicate: store.TypePredicate, Object: "car"},
	}
	n, err := r.AddBatch(batch)
	if !errors.Is(err, store.ErrJournal) || n != len(batch) {
		t.Fatalf("AddBatch = %d, %v; want %d newly asserted and ErrJournal", n, err, len(batch))
	}
	if log.fires != 1 || !sameSet(log.assertedAdded, batch) {
		t.Fatalf("AddBatch delivered %d events asserting %v, want exactly one asserting the batch", log.fires, log.assertedAdded)
	}
	single := store.Triple{Subject: "van", Predicate: store.TypePredicate, Object: "vehicle"}
	if added, err := r.Add(single); !errors.Is(err, store.ErrJournal) || !added {
		t.Fatalf("Add = %v, %v; want true and ErrJournal", added, err)
	}
	asserted = append(append(asserted, batch...), single)
	checkClosure("adds")
	if want := append(batch, single); log.fires != 2 || !sameSet(log.assertedAdded, want) {
		t.Fatalf("%d events asserting %v, want one per applied write asserting %v", log.fires, log.assertedAdded, want)
	}

	// Remove-only: the retraction is applied, its dead inferences are gone,
	// and the error that Remove has no slot for comes back from Apply.
	log.reset()
	a, rm, err := r.Apply(nil, []store.Triple{batch[0], {Subject: "nobody", Predicate: store.TypePredicate, Object: "car"}}, nil)
	if !errors.Is(err, store.ErrJournal) || a != 0 || rm != 1 {
		t.Fatalf("remove-only Apply = %d, %d, %v; want 0, 1 and ErrJournal", a, rm, err)
	}
	if log.fires != 1 || len(log.assertedAdded) != 0 || !sameSet(log.assertedRemoved, batch[:1]) {
		t.Fatalf("remove-only Apply delivered %d events, +%v −%v", log.fires, log.assertedAdded, log.assertedRemoved)
	}
	asserted = append(asserted[:2:2], batch[1], single)
	checkClosure("remove-only")

	// Two-sided: one event for both sides.
	log.reset()
	moved := store.Triple{Subject: "pickup", Predicate: store.TypePredicate, Object: "vehicle"}
	a, rm, err = r.Apply([]store.Triple{moved}, []store.Triple{batch[1]}, nil)
	if !errors.Is(err, store.ErrJournal) || a != 1 || rm != 1 {
		t.Fatalf("two-sided Apply = %d, %d, %v; want 1, 1 and ErrJournal", a, rm, err)
	}
	if log.fires != 1 || !sameSet(log.assertedAdded, []store.Triple{moved}) || !sameSet(log.assertedRemoved, batch[1:]) {
		t.Fatalf("two-sided Apply delivered %d events, +%v −%v", log.fires, log.assertedAdded, log.assertedRemoved)
	}
	asserted = append(asserted[:2:2], single, moved)
	checkClosure("two-sided")
}
