package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddQueryRemove(t *testing.T) {
	s := New()
	added, err := s.AddBatch([]Triple{
		{"car1", "type", "car"},
		{"car1", "color", "red"},
		{"dog1", "type", "dog"},
		{"car1", "type", "car"}, // duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 || s.Len() != 3 {
		t.Fatalf("added=%d Len=%d, want 3 and 3", added, s.Len())
	}
	if !s.Contains(Triple{"car1", "type", "car"}) {
		t.Error("Contains misses an inserted triple")
	}
	if s.Contains(Triple{"car1", "type", "dog"}) {
		t.Error("Contains reports a missing triple")
	}
	if got := s.Query(Pattern{Subject: "car1"}); len(got) != 2 {
		t.Errorf("Query(subject=car1) = %v, want 2 triples", got)
	}
	if got := s.Query(Pattern{Predicate: "type"}); len(got) != 2 {
		t.Errorf("Query(predicate=type) = %v, want 2 triples", got)
	}
	if got := s.Query(Pattern{Object: "red"}); len(got) != 1 || got[0].Subject != "car1" {
		t.Errorf("Query(object=red) = %v", got)
	}
	if got := s.Query(Pattern{}); len(got) != 3 {
		t.Errorf("Query(all) = %v, want 3 triples", got)
	}
	if got := s.Query(Pattern{Subject: "car1", Predicate: "type", Object: "car"}); len(got) != 1 {
		t.Errorf("fully bound query = %v, want exactly the triple", got)
	}
	if !s.Remove(Triple{"car1", "color", "red"}) {
		t.Error("Remove failed on a present triple")
	}
	if s.Remove(Triple{"car1", "color", "red"}) {
		t.Error("Remove succeeded twice")
	}
	if s.Len() != 2 {
		t.Errorf("Len after removal = %d, want 2", s.Len())
	}
	if got := s.Query(Pattern{Object: "red"}); len(got) != 0 {
		t.Errorf("removed triple still visible to an object-only query: %v", got)
	}
}

func TestAddRejectsEmptyComponents(t *testing.T) {
	s := New()
	for _, bad := range []Triple{
		{"", "p", "o"}, {"s", "", "o"}, {"s", "p", ""},
	} {
		if _, err := s.Add(bad); err == nil {
			t.Errorf("Add accepted invalid triple %v", bad)
		}
	}
	added, err := s.AddBatch([]Triple{{"a", "b", "c"}, {"", "", ""}})
	if err == nil {
		t.Error("AddBatch did not propagate the error")
	}
	// The batch contract is all-or-nothing: an invalid triple anywhere in
	// the call means nothing is inserted.
	if added != 0 || s.Len() != 0 {
		t.Errorf("AddBatch with an invalid triple inserted %d (Len %d), want 0 (0)", added, s.Len())
	}
}

func TestAddBatch(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"x", "p", "y"})
	added, err := s.AddBatch([]Triple{
		{"a", "p", "b"},
		{"a", "p", "b"}, // duplicate within the batch
		{"x", "p", "y"}, // duplicate against the store
		{"c", "p", "d"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || s.Len() != 3 {
		t.Errorf("AddBatch added %d (Len %d), want 2 (3)", added, s.Len())
	}
	for _, tr := range []Triple{{"a", "p", "b"}, {"c", "p", "d"}, {"x", "p", "y"}} {
		if !s.Contains(tr) {
			t.Errorf("batched triple %v missing", tr)
		}
	}
	if added, err := s.AddBatch(nil); err != nil || added != 0 {
		t.Errorf("empty batch: added %d, err %v", added, err)
	}
	// A failed batch inserts nothing, even the valid prefix.
	added, err = s.AddBatch([]Triple{{"e", "p", "f"}, {"", "p", "g"}})
	if err == nil {
		t.Error("AddBatch accepted an invalid triple")
	}
	if added != 0 || s.Contains(Triple{"e", "p", "f"}) {
		t.Errorf("failed batch must insert nothing: added=%d", added)
	}
}

func TestAccessors(t *testing.T) {
	s := New()
	s.MustAdd(Triple{"i1", "type", "car"})
	s.MustAdd(Triple{"i2", "type", "car"})
	s.MustAdd(Triple{"i1", "owner", "alice"})
	if got := s.Query(Pattern{Predicate: "type", Object: "car"}); len(got) != 2 || got[0].Subject != "i1" || got[1].Subject != "i2" {
		t.Errorf("Query(? type car) = %v, want subjects i1, i2", got)
	}
	if got := s.Query(Pattern{Subject: "i1", Predicate: "type"}); len(got) != 1 || got[0].Object != "car" {
		t.Errorf("Query(i1 type ?) = %v, want object car", got)
	}
	if got := s.Query(Pattern{Subject: "i1"}); len(got) != 2 || got[0].Predicate != "owner" || got[1].Predicate != "type" {
		t.Errorf("Query(i1 ? ?) = %v, want predicates owner, type", got)
	}
	if got := s.Query(Pattern{Predicate: "type", Object: "boat"}); len(got) != 0 {
		t.Errorf("Query of an absent class = %v, want empty", got)
	}
	var streamed []string
	s.ForEachSubject("type", "car", func(subj string) bool {
		streamed = append(streamed, subj)
		return true
	})
	sort.Strings(streamed)
	if !reflect.DeepEqual(streamed, []string{"i1", "i2"}) {
		t.Errorf("ForEachSubject(type, car) = %v, want [i1 i2]", streamed)
	}
}

func TestPatternString(t *testing.T) {
	p := Pattern{Subject: "s"}
	if p.String() != "(s ? ?)" {
		t.Errorf("Pattern.String = %q", p.String())
	}
	tr := Triple{"a", "b", "c"}
	if tr.String() != "(a b c)" {
		t.Errorf("Triple.String = %q", tr.String())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.MustAdd(Triple{
					Subject:   fmt.Sprintf("s%d-%d", w, i),
					Predicate: "type",
					Object:    fmt.Sprintf("class%d", i%5),
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Query(Pattern{Predicate: "type", Object: "class1"})
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

// TestIndexAgreement is the property test on the index invariant: whatever
// the access path, a pattern query returns exactly the matching subset of all
// inserted triples.
func TestIndexAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var all []Triple
		for i := 0; i < 60; i++ {
			tr := Triple{
				Subject:   fmt.Sprintf("s%d", rng.Intn(8)),
				Predicate: fmt.Sprintf("p%d", rng.Intn(4)),
				Object:    fmt.Sprintf("o%d", rng.Intn(8)),
			}
			if ok, err := s.Add(tr); err != nil {
				return false
			} else if ok {
				all = append(all, tr)
			}
		}
		// Remove a few at random.
		for i := 0; i < 10 && len(all) > 0; i++ {
			k := rng.Intn(len(all))
			s.Remove(all[k])
			all = append(all[:k], all[k+1:]...)
		}
		patterns := []Pattern{
			{},
			{Subject: "s1"},
			{Predicate: "p2"},
			{Object: "o3"},
			{Subject: "s1", Predicate: "p0"},
			{Predicate: "p1", Object: "o2"},
			{Subject: "s0", Object: "o0"},
			{Subject: "s2", Predicate: "p3", Object: "o7"},
		}
		for _, p := range patterns {
			want := map[Triple]bool{}
			for _, tr := range all {
				if p.Matches(tr) {
					want[tr] = true
				}
			}
			got := s.Query(p)
			if len(got) != len(want) {
				return false
			}
			for _, tr := range got {
				if !want[tr] {
					return false
				}
			}
		}
		return s.Len() == len(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicOrderingContract checks the ordering contract of every
// materializing read: the same triples ingested in different orders (and
// therefore interned to different ids, filed differently in the indexes)
// must produce identical, sorted Query and Triples results.
func TestDeterministicOrderingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	triples := make([]Triple, 0, 500)
	for i := 0; i < 500; i++ {
		triples = append(triples, Triple{
			Subject:   fmt.Sprintf("s%d", rng.Intn(60)),
			Predicate: fmt.Sprintf("p%d", rng.Intn(5)),
			Object:    fmt.Sprintf("o%d", rng.Intn(40)),
		})
	}
	build := func(order []Triple) *Store {
		s := New()
		if _, err := s.AddBatch(order); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := build(triples)
	for round := 0; round < 5; round++ {
		shuffled := append([]Triple(nil), triples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s := build(shuffled)
		ts := s.Triples()
		if want := ref.Triples(); !reflect.DeepEqual(ts, want) {
			t.Fatalf("round %d: Triples differ across ingest orders", round)
		}
		if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i].less(ts[j]) }) {
			t.Fatalf("round %d: Triples not sorted", round)
		}
		for _, p := range []Pattern{{}, {Predicate: "p0"}, {Subject: "s1"}, {Object: "o2"}, {Predicate: "p1", Object: "o3"}, {Subject: "s1", Predicate: "p0"}} {
			got := s.Query(p)
			if want := ref.Query(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: Query(%v) differs across ingest orders", round, p)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].less(got[j]) }) {
				t.Fatalf("round %d: Query(%v) not sorted", round, p)
			}
		}
	}
}

// TestIDLevelHooks checks the id-level query surface the join evaluator in
// internal/query builds on: SymbolID resolution, QueryIDFunc enumeration and
// StatsID's count against the string-level equivalents.
func TestIDLevelHooks(t *testing.T) {
	s := New()
	data := []Triple{
		{"a", "p", "x"}, {"a", "p", "y"}, {"a", "q", "x"},
		{"b", "p", "x"}, {"c", "q", "z"},
	}
	if _, err := s.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.SymbolID("nope"); ok {
		t.Error("SymbolID resolved a never-interned name")
	}
	res := s.NewResolver()
	encode := func(p Pattern) IDPattern {
		ip, ok := s.encodePattern(p)
		if !ok {
			t.Fatalf("encodePattern(%v) failed", p)
		}
		return ip
	}
	patterns := []Pattern{
		{}, {Subject: "a"}, {Predicate: "p"}, {Object: "x"},
		{Subject: "a", Predicate: "p"}, {Predicate: "p", Object: "x"},
		{Subject: "a", Object: "x"}, {Subject: "a", Predicate: "p", Object: "x"},
	}
	for _, p := range patterns {
		ip := encode(p)
		if got, want := s.StatsID(ip).Count, s.Count(p); got != want {
			t.Errorf("StatsID(%v).Count = %d, Count = %d", p, got, want)
		}
		var got []Triple
		s.QueryIDFunc(ip, func(tr IDTriple) bool {
			got = append(got, Triple{res.Name(tr.S), res.Name(tr.P), res.Name(tr.O)})
			return true
		})
		sort.Slice(got, func(i, j int) bool { return got[i].less(got[j]) })
		if want := s.Query(p); !reflect.DeepEqual(got, want) {
			t.Errorf("QueryIDFunc(%v) = %v, want %v", p, got, want)
		}
	}
	// Early stop.
	n := 0
	s.QueryIDFunc(IDPattern{}, func(IDTriple) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stopped QueryIDFunc yielded %d triples, want 1", n)
	}
}
