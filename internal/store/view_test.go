package store

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func viewFixture(t *testing.T) (*Store, *Store, *View) {
	t.Helper()
	base := New()
	base.MustAdd(Triple{"a", "p", "b"})
	base.MustAdd(Triple{"a", "type", "car"})
	overlay := base.NewOverlay()
	if !base.SharesDictionary(overlay) {
		t.Fatal("overlay does not share the dictionary")
	}
	if _, err := overlay.Add(Triple{"a", "type", "vehicle"}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	return base, overlay, v
}

func TestViewUnionAndProvenance(t *testing.T) {
	base, _, v := viewFixture(t)
	if v.Len() != 3 {
		t.Errorf("view Len = %d, want 3", v.Len())
	}
	want := []Triple{{"a", "p", "b"}, {"a", "type", "car"}, {"a", "type", "vehicle"}}
	if got := v.Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Triples = %v, want %v", got, want)
	}
	if got := v.Query(Pattern{Predicate: "type"}); len(got) != 2 {
		t.Errorf("Query(type) = %v, want 2 triples", got)
	}
	if prov, ok := v.Provenance(Triple{"a", "type", "car"}); !ok || prov != ProvAsserted {
		t.Errorf("asserted triple: %v, %v", prov, ok)
	}
	if prov, ok := v.Provenance(Triple{"a", "type", "vehicle"}); !ok || prov != ProvInferred {
		t.Errorf("inferred triple: %v, %v", prov, ok)
	}
	if _, ok := v.Provenance(Triple{"z", "z", "z"}); ok {
		t.Error("absent triple reported present")
	}
	ip, _ := base.encodePattern(Pattern{Subject: "a"})
	if n := v.StatsID(ip).Count; n != 3 {
		t.Errorf("StatsID(a ? ?).Count = %d, want 3", n)
	}
}

// TestViewForEachSubject checks class retrieval through the view — each
// subject of (? type car) once, whichever member holds the annotation — on the
// string-level Query and on the id-level callback it resolves from.
func TestViewForEachSubject(t *testing.T) {
	base, overlay, v := viewFixture(t)
	overlayOnly := Triple{"b", "type", "car"}
	if _, err := overlay.Add(overlayOnly); err != nil {
		t.Fatal(err)
	}
	p := Pattern{Predicate: "type", Object: "car"}
	ip, _ := base.encodePattern(p)
	res := v.NewResolver()
	var got []string
	v.QueryIDFunc(ip, func(t IDTriple) bool {
		got = append(got, res.Name(t.S))
		return true
	})
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("QueryIDFunc subjects = %v, want [a b]", got)
	}
	if ts := v.Query(p); !reflect.DeepEqual(ts, []Triple{{"a", "type", "car"}, overlayOnly}) {
		t.Errorf("Query = %v, want a then b", ts)
	}
}

func TestViewSnapshots(t *testing.T) {
	_, _, v := viewFixture(t)
	var plain bytes.Buffer
	if n, err := v.Snapshot(&plain); err != nil || n != 3 {
		t.Fatalf("Snapshot = %d, %v", n, err)
	}
	// The plain form restores into an ordinary store.
	s2 := New()
	if n, err := Restore(s2, strings.NewReader(plain.String())); err != nil || n != 3 {
		t.Fatalf("Restore = %d, %v", n, err)
	}
	var tagged bytes.Buffer
	if n, err := v.SnapshotProvenance(&tagged); err != nil || n != 3 {
		t.Fatalf("SnapshotProvenance = %d, %v", n, err)
	}
	if !strings.Contains(tagged.String(), `"Provenance":"inferred"`) ||
		!strings.Contains(tagged.String(), `"Provenance":"asserted"`) {
		t.Errorf("tagged snapshot missing provenance tags:\n%s", tagged.String())
	}
}

func TestDisjointViewFastPaths(t *testing.T) {
	base := New()
	base.MustAdd(Triple{"a", "p", "b"})
	base.MustAdd(Triple{"a", "type", "car"})
	overlay := base.NewOverlay()
	if _, err := overlay.Add(Triple{"a", "type", "vehicle"}); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Errorf("Len = %d, want 3", v.Len())
	}
	ip, _ := base.encodePattern(Pattern{Predicate: "type"})
	if n := v.StatsID(ip).Count; n != 2 {
		t.Errorf("StatsID(? type ?).Count = %d, want 2", n)
	}
	want := []Triple{{"a", "p", "b"}, {"a", "type", "car"}, {"a", "type", "vehicle"}}
	if got := v.Triples(); !reflect.DeepEqual(got, want) {
		t.Errorf("Triples = %v, want %v", got, want)
	}
	if ts := v.Query(Pattern{Predicate: "type", Object: "vehicle"}); !reflect.DeepEqual(ts, []Triple{{"a", "type", "vehicle"}}) {
		t.Errorf("Query(? type vehicle) = %v, want a only", ts)
	}
}

func TestViewRequiresSharedDictionary(t *testing.T) {
	if _, err := NewView(New(), New()); err == nil {
		t.Error("NewView accepted stores with separate dictionaries")
	}
	if _, err := NewView(nil, New()); err == nil {
		t.Error("NewView accepted a nil base")
	}
}

func TestInternAndIDWrites(t *testing.T) {
	s := New()
	id, err := s.Intern("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.SymbolID("fresh"); !ok || got != id {
		t.Errorf("SymbolID(fresh) = %d, %v; want %d, true", got, ok, id)
	}
	if _, err := s.Intern(""); err == nil {
		t.Error("Intern accepted the empty string")
	}
	// Interning alone adds no triple.
	if s.Len() != 0 {
		t.Errorf("Len after Intern = %d, want 0", s.Len())
	}
	a, _ := s.Intern("a")
	p, _ := s.Intern("p")
	b, _ := s.Intern("b")
	idt := IDTriple{S: a, P: p, O: b}
	tx := s.Begin()
	if added, err := tx.AddID(idt); err != nil || !added {
		t.Fatalf("AddID = %v, %v", added, err)
	}
	if added, err := tx.AddID(idt); err != nil || added {
		t.Fatalf("second AddID = %v, %v; want false, nil", added, err)
	}
	if !s.Contains(Triple{"a", "p", "b"}) || !s.ContainsID(idt) {
		t.Error("AddID triple not visible")
	}
	if _, err := tx.AddID(IDTriple{S: 9999, P: p, O: b}); err == nil {
		t.Error("AddID accepted an unminted id")
	}
	if !tx.RemoveID(idt) {
		t.Error("RemoveID missed the triple")
	}
	if tx.RemoveID(idt) {
		t.Error("second RemoveID reported success")
	}
	if tx.RemoveID(IDTriple{S: 9999, P: 9999, O: 9999}) {
		t.Error("RemoveID of unminted ids reported success")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestOntologyIndexRejectsSubsumptionCycles(t *testing.T) {
	tb := vehiclesTBox(t)
	// A subsumption test that relates every pair both ways: one big cycle.
	_, err := NewOntologyIndexWith(tb, func(sub, super string) (bool, error) {
		return true, nil
	})
	if err == nil {
		t.Fatal("cyclic subsumption accepted")
	}
	var cycErr *SubsumptionCycleError
	if !errors.As(err, &cycErr) {
		t.Fatalf("error %v (%T) is not a *SubsumptionCycleError", err, err)
	}
	if len(cycErr.Cycles) != 1 || len(cycErr.Cycles[0]) != 4 {
		t.Errorf("Cycles = %v, want one 4-class component", cycErr.Cycles)
	}
	if msg := cycErr.Error(); !strings.Contains(msg, "cycle") {
		t.Errorf("Error() = %q, want a mention of cycles", msg)
	}
	// The legitimate acyclic hierarchy still classifies.
	if _, err := NewOntologyIndex(tb); err != nil {
		t.Errorf("acyclic TBox rejected: %v", err)
	}
}
