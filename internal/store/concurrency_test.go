package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentWritersAndReaders runs many writers on disjoint subject
// ranges (single adds, batches, and removals of their own triples) against
// many readers on every read path; half the writers remove in one RemoveIDs
// batch, compacting the class runs the others write into. Run with -race;
// the final state is checked exactly.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const (
		writers          = 8
		triplesPerWriter = 400
		removedPerWriter = 100
		readers          = 8
	)
	s := New()
	v, err := NewView(s, s.NewOverlay())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the triples via a batch, half via single adds, then
			// remove a slice of what this writer inserted.
			batch := make([]Triple, 0, triplesPerWriter/2)
			for i := 0; i < triplesPerWriter/2; i++ {
				batch = append(batch, writerTriple(w, i))
			}
			if _, err := s.AddBatch(batch); err != nil {
				t.Error(err)
				return
			}
			for i := triplesPerWriter / 2; i < triplesPerWriter; i++ {
				s.MustAdd(writerTriple(w, i))
			}
			if w%2 == 1 {
				// Odd writers remove theirs in one compacting batch.
				ids := make([]IDTriple, 0, removedPerWriter)
				for i := 0; i < removedPerWriter; i++ {
					e, _ := s.syms.lookupTriple(writerTriple(w, i))
					ids = append(ids, e)
				}
				tx := s.Begin()
				s.Write(func() bool {
					if n := tx.RemoveIDs(ids); n != removedPerWriter {
						t.Errorf("writer %d: RemoveIDs removed %d of its %d triples", w, n, removedPerWriter)
					}
					return false
				})
				return
			}
			for i := 0; i < removedPerWriter; i++ {
				if !s.Remove(writerTriple(w, i)) {
					t.Errorf("writer %d: own triple %d missing at removal", w, i)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				class := fmt.Sprintf("class%d", i%7)
				_ = s.Query(Pattern{Predicate: "type", Object: class})
				if ip, ok := s.encodePattern(Pattern{Subject: fmt.Sprintf("w%d-s%d", i%writers, i)}); ok {
					s.QueryIDFunc(ip, func(IDTriple) bool { return true })
				}
				v.ForEachSubject("type", class, func(string) bool { return true })
				_ = s.Count(Pattern{Predicate: "type"})
				_ = s.Len()
			}
		}(r)
	}
	wg.Wait()

	want := writers * (triplesPerWriter - removedPerWriter)
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	if got := s.Count(Pattern{Predicate: "type"}); got != want {
		t.Fatalf("Count(type) = %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < triplesPerWriter; i++ {
			tr := writerTriple(w, i)
			if s.Contains(tr) != (i >= removedPerWriter) {
				t.Fatalf("writer %d triple %d: wrong final presence", w, i)
			}
		}
	}
}

func writerTriple(w, i int) Triple {
	return Triple{
		Subject:   fmt.Sprintf("w%d-s%d", w, i),
		Predicate: "type",
		Object:    fmt.Sprintf("class%d", i%7),
	}
}

// TestBatchIsAtomicToReaders: add-only batch writers race readers that probe
// one batch at a time. A batch is filed in both indexes under one write lock
// and a probe batch is answered under one read-lock, so a reader's probe of a
// batch's subjects sees all of its triples or none of them, and every triple
// an SPO probe returns, a POS probe after it returns too. Run with -race.
func TestBatchIsAtomicToReaders(t *testing.T) {
	const writers, batches, size, readers = 4, 40, 64, 4
	s := New()
	name := func(w, b, i int) string { return fmt.Sprintf("w%d-b%d-s%d", w, b, i) }
	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			batch := make([]Triple, size)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = Triple{name(w, b, i), TypePredicate, fmt.Sprintf("class%d", i%5)}
				}
				if _, err := s.AddBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			ps := make([]IDPattern, 0, size)
			var seen []IDTriple
			for writing.Load() > 0 {
				w, b := rng.Intn(writers), rng.Intn(batches)
				typ, ok := s.SymbolID(TypePredicate)
				if !ok {
					continue
				}
				// A batch's names are all interned before any of it is filed,
				// so once one of its triples is visible every subject probed
				// must answer, whichever names were interned when looked up.
				ps = ps[:0]
				for i := 0; i < size; i++ {
					if id, ok := s.SymbolID(name(w, b, i)); ok {
						ps = append(ps, IDPattern{S: id, P: typ, BoundS: true, BoundP: true})
					}
				}
				seen = seen[:0]
				s.QueryIDBatch(ps, func(_ int, tr IDTriple) bool {
					seen = append(seen, tr)
					return true
				})
				if len(seen) != 0 && len(seen) != len(ps) {
					t.Errorf("one probe of %d subjects of batch %d of writer %d saw %d triples", len(ps), b, w, len(seen))
					return
				}
				for _, tr := range seen {
					found := false
					s.QueryIDFunc(IDPattern{P: tr.P, O: tr.O, BoundP: true, BoundO: true}, func(u IDTriple) bool {
						found = u == tr
						return !found
					})
					if !found {
						t.Errorf("SPO returned %v and POS, probed after it, did not", tr)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if want := writers * batches * size; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}
