package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// scratchDigest is the digest of s's triples computed afresh through the
// exported Digest.Add, name by name.
func scratchDigest(s *Store) Digest {
	var d Digest
	for _, t := range s.Triples() {
		d.Add(t)
	}
	return d
}

// TestDigestGolden pins H: the digest of a fixed three-triple store is a
// literal, so a change of hash function, lane order or finalizer — or a Go
// release that changed something H relied on — fails here, not in a replica
// that meets a primary built elsewhere.
func TestDigestGolden(t *testing.T) {
	s := New()
	for _, tr := range []Triple{{"car", "subClassOf", "vehicle"}, {"beetle", "type", "car"}, {"beetle", "color", "yellow"}} {
		s.MustAdd(tr)
	}
	const want = "b0c50b4eb613378284a1d3b08d6ea9f9"
	if got := s.Position().Digest.String(); got != want {
		t.Fatalf("digest of the fixed store = %s, want %s", got, want)
	}
	if d, err := ParseDigest(want); err != nil || d != s.Position().Digest {
		t.Fatalf("ParseDigest(%s) = %v, %v", want, d, err)
	}
	if (Digest{}).String() != "00000000000000000000000000000000" {
		t.Fatal("the empty store's digest is not zero")
	}
	var swapped Digest
	swapped.Add(Triple{"vehicle", "subClassOf", "car"})
	var d Digest
	d.Add(Triple{"car", "subClassOf", "vehicle"})
	if swapped == d {
		t.Fatal("H does not tell a triple from its converse")
	}
}

// TestDigestMatchesScratch is the digest's property: after any seeded
// sequence of writes — AddBatch, Add, Remove, a handle's mixed section with
// RemoveIDs long enough to compact, Restore — and after every bulk load
// (RestoreSorted, LoadSorted), the maintained digest equals the one computed
// from scratch, and stores holding the same triples through different
// histories and dictionaries agree. An overlay keeps none.
func TestDigestMatchesScratch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		triple := func() Triple {
			return Triple{fmt.Sprintf("s%d", rng.Intn(30)), fmt.Sprintf("p%d", rng.Intn(4)), fmt.Sprintf("o%d", rng.Intn(30))}
		}
		s := New()
		for step := 0; step < 300; step++ {
			switch rng.Intn(5) {
			case 0:
				batch := make([]Triple, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = triple()
				}
				if _, err := s.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
			case 1:
				s.MustAdd(triple())
			case 2:
				s.Remove(triple())
			case 3:
				all := s.Triples()
				var ids []IDTriple
				for _, tr := range all {
					if rng.Intn(3) == 0 {
						e, _ := s.syms.lookupTriple(tr)
						ids = append(ids, e, e)
					}
				}
				for len(ids) < removeIDsMin && len(all) > 0 {
					e, _ := s.syms.lookupTriple(all[rng.Intn(len(all))])
					ids = append(ids, e)
				}
				tx := s.Begin()
				s.Write(func() bool {
					if _, err := tx.Add(triple()); err != nil {
						t.Fatal(err)
					}
					tx.RemoveIDs(ids)
					return true
				})
			case 4:
				var buf bytes.Buffer
				if _, err := writeSnapshot(&buf, []Triple{triple(), triple()}, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := Restore(s, &buf); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := s.Position().Digest, scratchDigest(s); got != want {
				t.Fatalf("seed %d step %d: maintained digest %v, from scratch %v", seed, step, got, want)
			}
		}

		// The same triples through the bulk paths, under other ids.
		names := s.syms.snapshot()
		perm := rng.Perm(len(names))
		dict := make([]string, len(names))
		for i, p := range perm {
			dict[p] = names[i]
		}
		var ids []IDTriple
		s.QueryIDFunc(IDPattern{}, func(e IDTriple) bool {
			ids = append(ids, IDTriple{S: SymbolID(perm[e.S]), P: SymbolID(perm[e.P]), O: SymbolID(perm[e.O])})
			return true
		})
		SortIDTriples(ids)
		restored := New()
		if err := restored.RestoreSorted(dict, ids, 7); err != nil {
			t.Fatal(err)
		}
		if got := restored.Position(); got.Gen != 7 || got.Digest != s.Position().Digest {
			t.Fatalf("seed %d: RestoreSorted at generation 7 reports %v, the written store %v", seed, got, s.Position())
		}
		loaded := New()
		for _, name := range dict {
			if _, err := loaded.Intern(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := loaded.LoadSorted(ids); err != nil {
			t.Fatal(err)
		}
		if loaded.Position().Digest != s.Position().Digest {
			t.Fatalf("seed %d: LoadSorted digest %v, want %v", seed, loaded.Position().Digest, s.Position().Digest)
		}
		o := loaded.NewOverlay()
		otx := o.Begin()
		loaded.Write(func() bool {
			if _, err := otx.Add(Triple{"x", "y", "z"}); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if d := o.Position().Digest; d != (Digest{}) {
			t.Fatalf("an overlay keeps a digest: %v", d)
		}
	}
}

// TestDigestMaintenanceDoesNotAllocate pins the write path's share of the
// digest at zero allocations: a base store's id-level add and remove, each
// hashing three names, in one write section.
func TestDigestMaintenanceDoesNotAllocate(t *testing.T) {
	s := New()
	for _, nb := range []Triple{{"a", "p", "b"}, {"a", "p", "c"}, {"z", "p", "c"}} {
		s.MustAdd(nb)
	}
	c, _ := s.syms.lookupTriple(Triple{"a", "p", "c"})
	before := s.Position().Digest
	tx := s.Begin()
	if allocs := testing.AllocsPerRun(100, func() {
		s.Write(func() bool {
			tx.RemoveID(c)
			if _, err := tx.AddID(c); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}); allocs != 0 {
		t.Fatalf("a write section moving the digest allocates %.1f times", allocs)
	}
	if s.Position().Digest != before {
		t.Fatal("removing and re-adding a triple moved the digest")
	}
}
