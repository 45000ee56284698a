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
// resolving ids back to triples for readable assertions.
type deltaLog struct {
	res   store.Resolver
	fires int
	// global records a Reset "everything may have changed" event.
	global         bool
	added, removed []store.Triple
	// assertedAdded is the replayable subset of added.
	assertedAdded []store.Triple
}

func (l *deltaLog) resolve(ts []store.IDTriple) []store.Triple {
	var out []store.Triple
	for _, t := range ts {
		out = append(out, store.Triple{Subject: l.res.Name(t.S), Predicate: l.res.Name(t.P), Object: l.res.Name(t.O)})
	}
	return out
}

func (l *deltaLog) hook(d Delta) {
	l.fires++
	if d.Reset {
		l.global = d.Added == nil && d.Removed == nil
		return
	}
	l.added = append(l.added, l.resolve(d.Added)...)
	l.removed = append(l.removed, l.resolve(d.Removed)...)
	l.assertedAdded = append(l.assertedAdded, l.resolve(d.AssertedAdded)...)
}

func (l *deltaLog) reset() {
	l.fires, l.global = 0, false
	l.added, l.removed, l.assertedAdded = nil, nil, nil
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
	if _, err := base.AddAll(
		store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		store.Triple{Subject: "vehicle", Predicate: SubClassOfPredicate, Object: "artifact"},
	); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnEvent(log.hook)

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

	// Rematerialize reports the unknown-extent change as nil lists.
	log.reset()
	r.Rematerialize()
	if log.fires != 1 || !log.global {
		t.Fatalf("Rematerialize fired %d notifications (global=%v), want one Reset with nil lists", log.fires, log.global)
	}
}

// TestOnDeltaRemoveCoversRetractedInferences checks the conservative-superset
// contract on the DRed path: when retracting an asserted triple kills an
// inference, the inference appears in the removed list.
func TestOnDeltaRemoveCoversRetractedInferences(t *testing.T) {
	base := store.New()
	if _, err := base.AddAll(
		store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"},
		store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
	); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnEvent(log.hook)

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

// failingJournal is a store.Journal whose commit always fails: the disk that
// stopped taking fsyncs.
type failingJournal struct{}

func (failingJournal) JournalDict(store.SymbolID, []string) {}
func (failingJournal) JournalAdd([]store.IDTriple)          {}
func (failingJournal) JournalRemove(store.IDTriple)         {}
func (failingJournal) JournalCommit() error                 { return errors.New("disk gone") }

// TestAddBatchJournalFailureStillMaintains: a batch whose journal commit fails
// is applied in memory, so the reasoner must finish the write — overlay
// maintained, one Delta delivered — before reporting store.ErrJournal; a
// validation error, which applies nothing, delivers nothing. Add shares the
// body.
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
	log := &deltaLog{res: base.NewResolver()}
	r.SetOnEvent(log.hook)
	base.SetJournal(failingJournal{})
	defer base.SetJournal(nil)

	if n, err := r.AddBatch([]store.Triple{{Subject: "x", Predicate: store.TypePredicate, Object: ""}}); err == nil || errors.Is(err, store.ErrJournal) || n != 0 || log.fires != 0 {
		t.Fatalf("invalid batch: n=%d err=%v events=%d, want a validation error and nothing else", n, err, log.fires)
	}

	batch := []store.Triple{
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "pickup", Predicate: store.TypePredicate, Object: "car"},
	}
	n, err := r.AddBatch(batch)
	if !errors.Is(err, store.ErrJournal) || n != len(batch) {
		t.Fatalf("AddBatch = %d, %v; want %d newly asserted and ErrJournal", n, err, len(batch))
	}
	if log.fires != 1 || !reflect.DeepEqual(log.assertedAdded, batch) {
		t.Fatalf("AddBatch delivered %d events asserting %v, want exactly one asserting the batch", log.fires, log.assertedAdded)
	}
	single := store.Triple{Subject: "van", Predicate: store.TypePredicate, Object: "vehicle"}
	if added, err := r.Add(single); !errors.Is(err, store.ErrJournal) || !added {
		t.Fatalf("Add = %v, %v; want true and ErrJournal", added, err)
	}
	asserted = append(append(asserted, batch...), single)
	if got, want := provenanceSnapshot(t, r), taggedSnapshot(t, naiveClosure(asserted, RDFSRules()), asserted); !bytes.Equal(got, want) {
		t.Fatalf("after failed commits the view is not the closure of the base:\n%s\nwant:\n%s", got, want)
	}
	if want := append(batch, single); log.fires != 2 || !reflect.DeepEqual(log.assertedAdded, want) {
		t.Fatalf("%d events asserting %v, want one per applied write asserting %v", log.fires, log.assertedAdded, want)
	}
}
