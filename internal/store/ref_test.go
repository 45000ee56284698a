package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refStore is the reference semantics the indexed engine must agree with: a
// flat deduplicated slice of triples, with every pattern query answered by
// filtering all triples and sorting. It is deliberately the dumbest correct
// implementation — no dictionary, no shards, no indexes.
type refStore struct {
	triples map[Triple]bool
}

func newRef() *refStore {
	return &refStore{triples: map[Triple]bool{}}
}

func (r *refStore) add(t Triple) bool {
	if r.triples[t] {
		return false
	}
	r.triples[t] = true
	return true
}

func (r *refStore) remove(t Triple) bool {
	if !r.triples[t] {
		return false
	}
	delete(r.triples, t)
	return true
}

func (r *refStore) query(p Pattern) []Triple {
	var out []Triple
	for t := range r.triples {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// randomTriple draws components from a small vocabulary so duplicates,
// removals and pattern hits are all frequent.
func randomTriple(rng *rand.Rand) Triple {
	return Triple{
		Subject:   fmt.Sprintf("s%d", rng.Intn(12)),
		Predicate: fmt.Sprintf("p%d", rng.Intn(5)),
		Object:    fmt.Sprintf("o%d", rng.Intn(12)),
	}
}

// checkAgreement compares every read path of the engine against the
// reference on a set of probing patterns.
func checkAgreement(t *testing.T, s *Store, ref *refStore) {
	t.Helper()
	if s.Len() != len(ref.triples) {
		t.Fatalf("Len = %d, reference has %d", s.Len(), len(ref.triples))
	}
	patterns := []Pattern{
		{},
		{Subject: "s1"},
		{Subject: "s999"},
		{Predicate: "p0"},
		{Predicate: "p3"},
		{Object: "o2"},
		{Subject: "s1", Predicate: "p1"},
		{Subject: "s2", Object: "o3"},
		{Predicate: "p2", Object: "o4"},
		{Subject: "s0", Predicate: "p0", Object: "o0"},
	}
	for _, p := range patterns {
		want := ref.query(p)
		got := s.Query(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%v) = %v, reference says %v", p, got, want)
		}
		if c := s.Count(p); c != len(want) {
			t.Fatalf("Count(%v) = %d, reference says %d", p, c, len(want))
		}
		// QueryIDFunc must stream exactly the same set, in any order, each
		// triple once (Query's sort would hide a duplicate from DeepEqual
		// only if the reference had it too, so count them here).
		seen := map[Triple]bool{}
		if ip, ok := s.encodePattern(p); ok {
			res := s.NewResolver()
			s.QueryIDFunc(ip, func(it IDTriple) bool {
				tr := Triple{res.Name(it.S), res.Name(it.P), res.Name(it.O)}
				if seen[tr] {
					t.Fatalf("QueryIDFunc(%v) yielded %v twice", p, tr)
				}
				seen[tr] = true
				return true
			})
		}
		if len(seen) != len(want) {
			t.Fatalf("QueryIDFunc(%v) yielded %d triples, reference says %d", p, len(seen), len(want))
		}
		for _, tr := range want {
			if !seen[tr] {
				t.Fatalf("QueryIDFunc(%v) missed %v", p, tr)
			}
		}
	}
	for _, tr := range ref.query(Pattern{}) {
		if !s.Contains(tr) {
			t.Fatalf("Contains(%v) = false for a present triple", tr)
		}
	}
}

// TestEngineMatchesReference drives the indexed engine and the
// filter-all-triples reference through the same random schedule of single
// adds, batch adds and removals, and checks that every read path agrees at
// several points along the way.
func TestEngineMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := newRef()
		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0: // single adds
				for i := 0; i < 30; i++ {
					tr := randomTriple(rng)
					got, err := s.Add(tr)
					if err != nil {
						return false
					}
					if got != ref.add(tr) {
						return false
					}
				}
			case 1: // one batch, with internal duplicates
				batch := make([]Triple, 0, 40)
				wantNew := 0
				refCopy := map[Triple]bool{}
				for i := 0; i < 40; i++ {
					tr := randomTriple(rng)
					batch = append(batch, tr)
					if !ref.triples[tr] && !refCopy[tr] {
						refCopy[tr] = true
						wantNew++
					}
				}
				added, err := s.AddBatch(batch)
				if err != nil || added != wantNew {
					return false
				}
				for tr := range refCopy {
					ref.add(tr)
				}
			case 2: // removals, present or not
				for i := 0; i < 20; i++ {
					tr := randomTriple(rng)
					if s.Remove(tr) != ref.remove(tr) {
						return false
					}
				}
			}
			checkAgreement(t, s, ref)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzQueryAgreement fuzzes one add/remove schedule seed plus one query
// pattern drawn from fuzzed components, asserting the indexed answer equals
// the reference answer.
func FuzzQueryAgreement(f *testing.F) {
	f.Add(int64(1), "s1", "", "")
	f.Add(int64(2), "", "p1", "o1")
	f.Add(int64(3), "", "", "")
	f.Add(int64(4), "s0", "p0", "o0")
	f.Fuzz(func(t *testing.T, seed int64, subj, pred, obj string) {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := newRef()
		for i := 0; i < 80; i++ {
			tr := randomTriple(rng)
			if rng.Intn(4) == 0 {
				if s.Remove(tr) != ref.remove(tr) {
					t.Fatalf("Remove(%v) disagrees with reference", tr)
				}
				continue
			}
			got, err := s.Add(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref.add(tr) {
				t.Fatalf("Add(%v) disagrees with reference", tr)
			}
		}
		p := Pattern{Subject: subj, Predicate: pred, Object: obj}
		want := ref.query(p)
		got := s.Query(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%v) = %v, reference says %v", p, got, want)
		}
		if c := s.Count(p); c != len(want) {
			t.Fatalf("Count(%v) = %d, want %d", p, c, len(want))
		}
	})
}
