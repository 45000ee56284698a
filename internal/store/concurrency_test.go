package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentShardedWritersAndReaders exercises the sharded engine the way
// the global-lock engine never could be: many writers on disjoint subject
// ranges (single adds, batches, and removals of their own triples) racing
// many readers on every read path; half the writers remove in one RemoveIDs
// batch, compacting the class runs the others write into. Run with -race;
// the final state is checked exactly.
func TestConcurrentShardedWritersAndReaders(t *testing.T) {
	const (
		writers          = 8
		triplesPerWriter = 400
		removedPerWriter = 100
		readers          = 8
	)
	s := New()
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
				if n := tx.RemoveIDs(ids); n != removedPerWriter {
					t.Errorf("writer %d: RemoveIDs removed %d of its %d triples", w, n, removedPerWriter)
				}
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
				s.ForEachSubject("type", class, func(string) bool { return true })
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
