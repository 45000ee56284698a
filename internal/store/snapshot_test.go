package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"a", "type", "car"})
	s.MustAdd(Triple{"b", "type", "dog"})
	s.MustAdd(Triple{"a", "color", "red"})

	var buf bytes.Buffer
	n, err := s.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Snapshot wrote %d triples, want 3", n)
	}

	restored := New()
	added, err := Restore(restored, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || restored.Len() != 3 {
		t.Errorf("Restore added %d, Len %d; want 3 and 3", added, restored.Len())
	}
	for _, tr := range s.Query(Pattern{}) {
		if !restored.Contains(tr) {
			t.Errorf("restored store is missing %v", tr)
		}
	}
}

func TestRestoreIntoNonEmptyStoreIgnoresDuplicates(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"a", "type", "car"})
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	added, err := Restore(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || s.Len() != 1 {
		t.Errorf("restoring a snapshot into its own store added %d (Len %d), want 0 (1)", added, s.Len())
	}
}

func TestRestoreMalformedInput(t *testing.T) {
	s := New()
	if _, err := Restore(s, strings.NewReader("{not json}\n")); err == nil {
		t.Error("Restore accepted malformed JSON")
	}
	// A structurally valid but semantically invalid triple (empty component).
	if _, err := Restore(New(), strings.NewReader(`{"Subject":"","Predicate":"p","Object":"o"}`)); err == nil {
		t.Error("Restore accepted a triple with an empty component")
	}
	// Valid prefix before the malformed entry is preserved.
	partial := New()
	added, err := Restore(partial, strings.NewReader(`{"Subject":"a","Predicate":"p","Object":"o"}`+"\n{bad"))
	if err == nil {
		t.Error("Restore should report the malformed tail")
	}
	if added != 1 || !partial.Contains(Triple{"a", "p", "o"}) {
		t.Errorf("valid prefix should be preserved: added=%d", added)
	}
}

// TestSnapshotRestoreProperty checks the round trip over random stores.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < 40; i++ {
			s.MustAdd(Triple{
				Subject:   fmt.Sprintf("s%d", rng.Intn(10)),
				Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
				Object:    fmt.Sprintf("o%d", rng.Intn(10)),
			})
		}
		var buf bytes.Buffer
		if _, err := s.Snapshot(&buf); err != nil {
			return false
		}
		restored := New()
		if _, err := Restore(restored, &buf); err != nil {
			return false
		}
		if restored.Len() != s.Len() {
			return false
		}
		for _, tr := range s.Query(Pattern{}) {
			if !restored.Contains(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotByteStabilityAtScale is the satellite check for the canonical
// export order: at 10⁵ triples, a snapshot, its restore into a fresh store,
// and a snapshot of a store ingested in a completely different order must
// all be byte-identical, and the restored store must hold exactly the
// original triples.
func TestSnapshotByteStabilityAtScale(t *testing.T) {
	const n = 100_000
	triples := make([]Triple, n)
	for i := range triples {
		triples[i] = Triple{
			Subject:   fmt.Sprintf("inst-%d", i),
			Predicate: TypePredicate,
			Object:    fmt.Sprintf("class-%d", i%317),
		}
	}
	s := New()
	if _, err := s.AddBatch(triples); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if _, err := s.Snapshot(&first); err != nil {
		t.Fatal(err)
	}

	restored := New()
	added, err := Restore(restored, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if added != n || restored.Len() != n {
		t.Fatalf("restore added %d triples into a store of %d, want %d", added, restored.Len(), n)
	}
	var second bytes.Buffer
	if _, err := restored.Snapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("snapshot of the restored store differs byte-for-byte from the original")
	}

	// A third store, ingested in reverse order so every symbol gets a
	// different id and lands in a different place of each index.
	reversed := New()
	for i := n - 1; i >= 0; i-- {
		if _, err := reversed.Add(triples[i]); err != nil {
			t.Fatal(err)
		}
	}
	var third bytes.Buffer
	if _, err := reversed.Snapshot(&third); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), third.Bytes()) {
		t.Fatal("snapshots differ across ingest orders")
	}
}
