// The concurrent-snapshot test lives in the external test package so it can
// drive writes through the real materialization engine (repro/internal/reason
// imports store; an internal test would be an import cycle).
package store_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/reason"
	"repro/internal/store"
)

// TestViewSnapshotUnderConcurrentEngineWrites snapshots a materialized view
// while a reasoner concurrently adds and removes triples — the serving
// layer's GET /snapshot racing POST /triples. Run under -race (CI does),
// this is primarily a data-race probe; the semantic assertions are the
// documented weak ones: every snapshot line is a well-formed triple
// (Restore parses the whole stream), and a quiescent snapshot afterwards is
// exact and byte-stable.
func TestViewSnapshotUnderConcurrentEngineWrites(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "car", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
		{Subject: "vehicle", Predicate: reason.SubClassOfPredicate, Object: "artifact"},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := reason.Materialize(base, reason.RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	view := r.View()

	const (
		writers = 2
		rounds  = 150
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tr := store.Triple{
					Subject:   fmt.Sprintf("item-%d-%d", w, i),
					Predicate: store.TypePredicate,
					Object:    "car",
				}
				if _, err := r.Add(tr); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%3 == 0 {
					r.Remove(tr)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if _, err := view.Snapshot(&buf); err != nil {
				t.Errorf("snapshot under writes: %v", err)
				return
			}
			// Every line must still be a well-formed triple.
			if _, err := store.Restore(store.New(), &buf); err != nil {
				t.Errorf("snapshot under writes does not restore: %v", err)
				return
			}
			if _, err := view.SnapshotProvenance(io.Discard); err != nil {
				t.Errorf("provenance snapshot under writes: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: the snapshot is exact and byte-stable.
	var a, b bytes.Buffer
	na, err := view.Snapshot(&a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := view.Snapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("quiescent snapshots differ: %d vs %d triples", na, nb)
	}
	if na != view.Len() {
		t.Fatalf("snapshot wrote %d triples, view holds %d", na, view.Len())
	}
}

// TestReadsDuringLoadSortedAndClear reads the base and the view while the
// overlay behind the view is bulk-loaded and cleared again — triple by triple
// through a write handle in one write section, the only way back to empty —
// over and over. Under
// -race it probes the all-at-once publication of LoadSorted against
// readers and the handle's removals; the assertions are the weak documented
// ones: the base always answers in full, and the view never yields a triple
// that is in neither member's final contents.
func TestReadsDuringLoadSortedAndClear(t *testing.T) {
	base := store.New()
	var asserted []store.Triple
	for i := 0; i < 400; i++ {
		asserted = append(asserted, store.Triple{Subject: fmt.Sprintf("s%d", i%40), Predicate: fmt.Sprintf("p%d", i%7), Object: fmt.Sprintf("o%d", i)})
	}
	if _, err := base.AddBatch(asserted); err != nil {
		t.Fatal(err)
	}
	// The overlay's contents: the base's triples with subject and object
	// swapped, so both stores index the same ids differently.
	var inferred []store.IDTriple
	base.QueryIDFunc(store.IDPattern{}, func(t store.IDTriple) bool {
		inferred = append(inferred, store.IDTriple{S: t.O, P: t.P, O: t.S})
		return true
	})
	store.SortIDTriples(inferred)
	overlay := base.NewOverlay()
	view, err := store.NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := base.StatsID(store.IDPattern{}).Count; n != len(asserted) {
					t.Errorf("base answered %d of %d triples during an overlay load", n, len(asserted))
					return
				}
				seen := 0
				view.QueryIDFunc(store.IDPattern{}, func(store.IDTriple) bool {
					seen++
					return true
				})
				if seen < len(asserted) || seen > len(asserted)+len(inferred) {
					t.Errorf("view yielded %d triples; want between %d and %d", seen, len(asserted), len(asserted)+len(inferred))
					return
				}
				pt := view.Scan(store.IDPattern{P: inferred[0].P, BoundP: true})
				buf := make([]store.IDTriple, 32)
				for done := false; !done; {
					_, done = pt.NextBatch(buf)
				}
				pt.Release()
			}
		}()
	}
	for i := 0; i < 15; i++ {
		if err := overlay.LoadSorted(inferred); err != nil {
			t.Fatal(err)
		}
		tx := overlay.Begin()
		overlay.Write(func() bool {
			for _, it := range inferred {
				tx.RemoveID(it)
			}
			return false
		})
	}
	close(stop)
	wg.Wait()
}
