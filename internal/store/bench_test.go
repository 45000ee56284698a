package store

import (
	"fmt"
	"math/rand"
	"slices"
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
		v, err := NewView(s, s.NewOverlay())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			v.ForEachSubject(TypePredicate, class(i), func(string) bool {
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

// BenchmarkObjectOnlyPattern prices the one pattern shape with no index lead,
// object-only (? ? o), which fans out over every predicate of the POS index:
// stores of 4, 64 and 2 048 predicates — each with 16 filler objects, so a
// find is a map lookup, not a short scan — and a probed object with 20 or 200
// matches spread over four of the predicates (eight objects like it are
// probed in rotation). QueryIDFunc streams the matches, StatsID is what the
// planner asks first. ns/op grows with the predicate count, not with the
// store: PERFLOG.md "Two index rotations" has the figures.
func BenchmarkObjectOnlyPattern(b *testing.B) {
	for _, preds := range []int{4, 64, 2048} {
		for _, matches := range []int{20, 200} {
			s := New()
			var ts []Triple
			for p := 0; p < preds; p++ {
				for f := 0; f < 16; f++ {
					ts = append(ts, Triple{fmt.Sprintf("s%d", (p+f)%97), fmt.Sprintf("p%d", p), fmt.Sprintf("filler%d", f)})
				}
			}
			for o := 0; o < 8; o++ {
				for m := 0; m < matches; m++ {
					ts = append(ts, Triple{fmt.Sprintf("m%d", m), fmt.Sprintf("p%d", (o+m%4*(preds/4))%preds), fmt.Sprintf("probed%d", o)})
				}
			}
			if _, err := s.AddBatch(ts); err != nil {
				b.Fatal(err)
			}
			var probes [8]IDPattern
			for o := range probes {
				id, ok := s.SymbolID(fmt.Sprintf("probed%d", o))
				if !ok {
					b.Fatal("probed object not interned")
				}
				probes[o] = IDPattern{O: id, BoundO: true}
			}
			name := fmt.Sprintf("preds-%d/matches-%d", preds, matches)
			b.Run(name+"/queryidfunc", func(b *testing.B) {
				b.ReportAllocs()
				count := 0
				for i := 0; i < b.N; i++ {
					s.QueryIDFunc(probes[i%len(probes)], func(IDTriple) bool {
						count++
						return true
					})
				}
				if count != matches*b.N {
					b.Fatalf("%d matches over %d probes, want %d each", count, b.N, matches)
				}
			})
			b.Run(name+"/statsid", func(b *testing.B) {
				b.ReportAllocs()
				count := 0
				for i := 0; i < b.N; i++ {
					count += s.StatsID(probes[i%len(probes)]).Count
				}
				if count != matches*b.N {
					b.Fatalf("StatsID counted %d over %d probes, want %d each", count, b.N, matches)
				}
			})
		}
	}
}

// BenchmarkHubChurn prices writes against one long posting list — the
// (predicate, object) run of a class with 10⁴ or 10⁵ instances — which is
// where a sorted run pays for having nothing beside its elements: a write
// into the middle copies the members above it. append adds subjects in
// ascending id order, the order a store mints and meets them in; add-random
// and remove-random take the same subjects in shuffled order, each AddID or
// RemoveID filing or unfiling one triple in both indexes. PERFLOG.md
// "Sorted runs" has the figures beside the position map the runs replaced.
func BenchmarkHubChurn(b *testing.B) {
	for _, members := range []int{10_000, 100_000} {
		s := New()
		id := func(name string) SymbolID {
			v, err := s.Intern(name)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}
		typ, hub := id(TypePredicate), id("hub")
		ascending := make([]IDTriple, members)
		for i := range ascending {
			ascending[i] = IDTriple{S: id(fmt.Sprintf("inst-%d", i)), P: typ, O: hub}
		}
		shuffled := append([]IDTriple(nil), ascending...)
		rand.New(rand.NewSource(21)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Each iteration is one write; every pass over the members starts from
		// a fresh list — empty, or full for the removals — set up outside the
		// timer.
		run := func(name string, order []IDTriple, remove bool) {
			b.Run(fmt.Sprintf("%s-%d", name, members), func(b *testing.B) {
				b.ReportAllocs()
				var tx Tx
				for i := 0; i < b.N; i++ {
					k := i % members
					if k == 0 {
						b.StopTimer()
						tx = s.NewOverlay().Begin()
						if remove {
							for _, t := range ascending {
								if _, err := tx.AddID(t); err != nil {
									b.Fatal(err)
								}
							}
						}
						b.StartTimer()
					}
					if remove {
						if !tx.RemoveID(order[k]) {
							b.Fatalf("RemoveID(%v) missed a member", order[k])
						}
					} else if added, err := tx.AddID(order[k]); err != nil || !added {
						b.Fatalf("AddID(%v) = %v, %v", order[k], added, err)
					}
				}
			})
		}
		run("append", ascending, false)
		run("add-random", shuffled, false)
		run("remove-random", shuffled, true)
	}
}

// BenchmarkDictLookup resolves one name to its id through the dictionary at
// 10⁵ corpus-shaped names, in shuffled order: hit probes interned names,
// miss names of the same shape that were never interned.
func BenchmarkDictLookup(b *testing.B) {
	const n = 100_000
	names := corpusNames(2 * n)
	s := New()
	for _, name := range names[:n] {
		if _, err := s.Intern(name); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		kind  string
		names []string
	}{{"hit", names[:n]}, {"miss", names[n:]}} {
		probes := append([]string(nil), c.names...)
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		hit := c.kind == "hit"
		b.Run(c.kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := s.SymbolID(probes[i%n]); ok != hit {
					b.Fatalf("SymbolID(%q) found = %v", probes[i%n], ok)
				}
			}
		})
	}
}

// BenchmarkResolverName resolves an id to its name through a Resolver at 10⁵
// corpus-shaped names, in shuffled and in id order: the read every result
// row pays once per component (nameDirs.at, inlined).
func BenchmarkResolverName(b *testing.B) {
	const n = 100_000
	s := New()
	for _, name := range corpusNames(n) {
		if _, err := s.Intern(name); err != nil {
			b.Fatal(err)
		}
	}
	ascending := make([]SymbolID, n)
	for i := range ascending {
		ascending[i] = SymbolID(i)
	}
	shuffled := slices.Clone(ascending)
	rand.New(rand.NewSource(9)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	r := s.NewResolver()
	for _, c := range []struct {
		order string
		ids   []SymbolID
	}{{"random", shuffled}, {"ascending", ascending}} {
		b.Run(c.order, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total += len(r.Name(c.ids[i%n]))
			}
			if total == 0 {
				b.Fatal("every name read empty")
			}
		})
	}
}

// BenchmarkDictGrowth prices the one intern that doubles the dictionary's
// index, at 2¹⁷ corpus-shaped names (2¹⁸ → 2¹⁹ slots). It runs under the
// write lock, so every lookup and intern waits it out.
func BenchmarkDictGrowth(b *testing.B) {
	const n = 1 << 17
	names := corpusNames(n + 1)
	full := newSymtab()
	for _, name := range names[:n] {
		full.internLocked(name)
	}
	if len(full.index) != 2*n {
		b.Fatalf("%d names fill %d slots, want %d", n, len(full.index), 2*n)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// The clipped directories and a full last page send the new name
		// to a page and a window of its own: full's are never written.
		table := full.names
		pages := slices.Clip(table.dirs.pages)
		table.dirs, table.used = &nameDirs{windows: slices.Clip(table.dirs.windows), pages: pages}, len(pages[len(pages)-1])
		st := &symtab{index: slices.Clone(full.index), names: table}
		b.StartTimer()
		st.internLocked(names[n])
		if len(st.index) != 4*n {
			b.Fatalf("the %dth name left %d slots, want %d", n+1, len(st.index), 4*n)
		}
	}
}
