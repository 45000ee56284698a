package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// seedEngine replicates the pre-dictionary engine this package shipped with —
// triple-nested map[string] permutation indexes behind one store-wide RWMutex,
// locked once per triple — so the benchmarks below can measure the rebuild
// against the exact baseline it replaced.
type seedEngine struct {
	mu   sync.RWMutex
	size int
	spo  map[string]map[string]map[string]bool
	pos  map[string]map[string]map[string]bool
	osp  map[string]map[string]map[string]bool
}

func newSeedEngine() *seedEngine {
	return &seedEngine{
		spo: map[string]map[string]map[string]bool{},
		pos: map[string]map[string]map[string]bool{},
		osp: map[string]map[string]map[string]bool{},
	}
}

func seedIndexAdd(ix map[string]map[string]map[string]bool, a, b, c string) {
	l2, ok := ix[a]
	if !ok {
		l2 = map[string]map[string]bool{}
		ix[a] = l2
	}
	l3, ok := l2[b]
	if !ok {
		l3 = map[string]bool{}
		l2[b] = l3
	}
	l3[c] = true
}

func (s *seedEngine) add(t Triple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.spo[t.Subject][t.Predicate][t.Object] {
		seedIndexAdd(s.spo, t.Subject, t.Predicate, t.Object)
		seedIndexAdd(s.pos, t.Predicate, t.Object, t.Subject)
		seedIndexAdd(s.osp, t.Object, t.Subject, t.Predicate)
		s.size++
	}
}

func (s *seedEngine) subjects(predicate, object string) []string {
	s.mu.RLock()
	var out []string
	for subj := range s.pos[predicate][object] {
		out = append(out, subj)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ingestWorkload builds n distinct type-annotation triples shaped like the
// E5/E5b corpora: many instances spread over a few hundred classes.
func ingestWorkload(n int) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{
			Subject:   fmt.Sprintf("inst-%d", i),
			Predicate: TypePredicate,
			Object:    fmt.Sprintf("class-%d", i%317),
		}
	}
	return ts
}

// BenchmarkStoreIngest measures bulk ingest at 1e5 and 1e6 triples:
// the batch path, the per-triple path, and the seed's nested string-map
// engine it replaced.
func BenchmarkStoreIngest(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		ts := ingestWorkload(n)
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				if _, err := s.AddBatch(ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
		b.Run(fmt.Sprintf("single-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				for _, t := range ts {
					if _, err := s.Add(t); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
		b.Run(fmt.Sprintf("seedmaps-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newSeedEngine()
				for _, t := range ts {
					s.add(t)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

// BenchmarkStoreQuery measures the E5-shaped read pattern over a 1e5-triple
// store: retrieving one class's instances through the POS index, via the
// sorted materializing paths (new and seed) and the streaming iterator.
func BenchmarkStoreQuery(b *testing.B) {
	const n = 100_000
	ts := ingestWorkload(n)
	s := New()
	if _, err := s.AddBatch(ts); err != nil {
		b.Fatal(err)
	}
	seed := newSeedEngine()
	for _, t := range ts {
		seed.add(t)
	}
	class := func(i int) string { return fmt.Sprintf("class-%d", i%317) }

	b.Run("foreachsubject", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			s.ForEachSubject(TypePredicate, class(i), func(string) bool {
				count++
				return true
			})
			if count == 0 {
				b.Fatal("empty class")
			}
		}
	})
	b.Run("queryidfunc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			ip, _ := s.encodePattern(Pattern{Predicate: TypePredicate, Object: class(i)})
			s.QueryIDFunc(ip, func(IDTriple) bool {
				count++
				return true
			})
			if count == 0 {
				b.Fatal("empty class")
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := s.Query(Pattern{Predicate: TypePredicate, Object: class(i)}); len(got) == 0 {
				b.Fatal("empty class")
			}
		}
	})
	b.Run("seedmaps-subjects", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := seed.subjects(TypePredicate, class(i)); len(got) == 0 {
				b.Fatal("empty class")
			}
		}
	})
}

// BenchmarkOntologyExpansion measures the full E5 read loop at store scale:
// the subsumee-union retrieval (what the query layer's Expand option runs)
// over a realistic 32-subsumee fan-out, phrased directly over the POS index.
func BenchmarkOntologyExpansion(b *testing.B) {
	const n = 100_000
	s := New()
	if _, err := s.AddBatch(ingestWorkload(n)); err != nil {
		b.Fatal(err)
	}
	// A synthetic index: one queried class expanding to 32 subsumees.
	oi := &OntologyIndex{subsumees: map[string][]string{}}
	for i := 0; i < 32; i++ {
		oi.subsumees["root"] = append(oi.subsumees["root"], fmt.Sprintf("class-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// expandedInstances (ontology_test.go) is the subsumee-union walk,
		// shared with the retrieval test.
		if got := expandedInstances(s, oi, "root"); len(got) == 0 {
			b.Fatal("no instances")
		}
	}
}
