package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
)

// The object-only pattern (? ? o) is the one shape with no lead to look up:
// every read surface answers it by fanning out over the POS leads. These
// tests hold each surface to the naive filter of ref_test.go on stores built
// to exercise the fan-out — objects under one, a few and many predicates —
// on a Store and through a View.

// objectOnlyFixture is a base and an overlay sharing a dictionary, with the
// reference holding each member's triples. Probe objects: "o1" occurs under
// one predicate, "o3" under three, "o20" under at least twenty (so its
// postings sit under many POS leads), "dual" is also a subject and a predicate,
// "baseonly" never occurs in the overlay.
type objectOnlyFixture struct {
	base, overlay       *Store
	baseRef, overlayRef model.Set
}

// objectOnlyProbes are the objects every surface is checked on; "never" is
// not interned by any fixture.
var objectOnlyProbes = []string{"o1", "o3", "o20", "dual", "baseonly", "noise0", "never"}

// newObjectOnlyFixture draws a fixture from seed; the members are disjoint.
func newObjectOnlyFixture(seed int64) *objectOnlyFixture {
	rng := rand.New(rand.NewSource(seed))
	f := &objectOnlyFixture{base: New(), baseRef: model.Set{}, overlayRef: model.Set{}}
	f.overlay = f.base.NewOverlay()
	var all []Triple
	post := func(object string, preds int) {
		for _, pi := range rng.Perm(40)[:preds] {
			for n := 1 + rng.Intn(5); n > 0; n-- {
				all = append(all, Triple{fmt.Sprintf("s%d", rng.Intn(60)), fmt.Sprintf("p%d", pi), object})
			}
		}
	}
	post("o1", 1)
	post("o3", 3)
	post("o20", 20+rng.Intn(15))
	post("dual", 5)
	all = append(all,
		Triple{"dual", "p1", "o3"}, Triple{"s1", "dual", "o20"}, Triple{"dual", "dual", "dual"})
	for i := 0; i < 200; i++ {
		all = append(all, Triple{fmt.Sprintf("s%d", rng.Intn(60)), fmt.Sprintf("p%d", rng.Intn(40)), fmt.Sprintf("noise%d", rng.Intn(8))})
	}
	toBase := func(tr Triple) {
		f.base.MustAdd(tr)
		f.baseRef.Add(model.Triple(tr))
	}
	for _, tr := range all {
		switch {
		case f.baseRef[model.Triple(tr)] || f.overlayRef[model.Triple(tr)]:
			// drawn twice: the first draw placed it
		case rng.Intn(2) == 0:
			toBase(tr)
		default:
			f.overlay.MustAdd(tr)
			f.overlayRef.Add(model.Triple(tr))
		}
	}
	for i := 0; i < 40; i++ {
		toBase(Triple{fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%7), "baseonly"})
	}
	return f
}

// union is the reference of a view over the fixture: each triple once.
func (f *objectOnlyFixture) union() model.Set {
	u := f.baseRef.Clone()
	for tr := range f.overlayRef {
		u.Add(tr)
	}
	return u
}

// resolved renders id triples as sorted string triples, duplicates kept, so
// two answers are equal exactly when they are equal as multisets.
func resolved(res Resolver, ts []IDTriple) []Triple {
	out := make([]Triple, 0, len(ts))
	for _, t := range ts {
		out = append(out, Triple{res.Name(t.S), res.Name(t.P), res.Name(t.O)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// checkObjectOnly compares every read surface of r on the object-only
// pattern of each probe object against ref: the answers themselves through
// checkReads (ref_test.go), then what is particular to the shape — the
// bounds StatsID's widths promise and a batch of hundreds of probes.
func checkObjectOnly(t *testing.T, what string, r idReader, syms *Store, ref model.Set) {
	t.Helper()
	patterns := make([]Pattern, len(objectOnlyProbes))
	for i, object := range objectOnlyProbes {
		patterns[i] = Pattern{Object: object}
	}
	checkReads(t, what, r, syms, ref, patterns)

	res := syms.NewResolver()
	batch := make([]IDPattern, len(patterns))
	batchWant := make([][]Triple, len(patterns))
	for i, object := range objectOnlyProbes {
		want := refQuery(ref, patterns[i])
		if want == nil {
			want = []Triple{}
		}
		p := encodeOrMiss(syms, patterns[i])
		batch[i], batchWant[i] = p, want

		preds := map[string]bool{}
		for _, tr := range want {
			preds[tr.Predicate] = true
		}
		st := r.StatsID(p)
		// A view sums its members' widths, so a predicate used on both sides
		// counts twice there: exact on a store, an upper bound on a view.
		if _, isStore := r.(*Store); isStore && st.DistinctP != len(preds) {
			t.Fatalf("%s: StatsID(? ? %s).DistinctP = %d, reference says %d", what, object, st.DistinctP, len(preds))
		} else if st.DistinctP < len(preds) || st.DistinctP > 2*len(preds) {
			t.Fatalf("%s: StatsID(? ? %s).DistinctP = %d for %d predicates", what, object, st.DistinctP, len(preds))
		}
		if len(want) > 0 && (st.DistinctS < 1 || st.DistinctS > 2*len(want) || st.DistinctO < 1) {
			t.Fatalf("%s: StatsID(? ? %s) = %+v for %d matches", what, object, st, len(want))
		}
	}

	// 300 probes of the one shape: the probe objects over and over.
	ps := make([]IDPattern, 300)
	for i := range ps {
		ps[i] = batch[i%len(batch)]
	}
	answers := make([][]IDTriple, len(ps))
	r.QueryIDBatch(ps, func(pi int, tr IDTriple) bool {
		answers[pi] = append(answers[pi], tr)
		return true
	})
	for i := range ps {
		if g, want := resolved(res, answers[i]), batchWant[i%len(batch)]; !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: probe %d of a 300-probe QueryIDBatch (? ? %s) = %v, reference says %v",
				what, i, objectOnlyProbes[i%len(batch)], g, want)
		}
	}
}

// TestObjectOnlyMatchesReference: on random stores, object-only answers from
// every read surface equal the naive filter as multisets — on each member
// Store and on the View over the two.
func TestObjectOnlyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f := newObjectOnlyFixture(seed)
		preds := map[uint32]bool{}
		f.base.QueryIDFunc(IDPattern{O: mustID(t, f.base, "o20"), BoundO: true}, func(tr IDTriple) bool {
			preds[tr.P] = true
			return true
		})
		if len(preds) < 4 {
			t.Fatalf("seed %d: o20 occurs under %d predicates; the fixture should spread it over POS leads", seed, len(preds))
		}
		checkObjectOnly(t, fmt.Sprintf("seed %d base", seed), f.base, f.base, f.baseRef)
		checkObjectOnly(t, fmt.Sprintf("seed %d overlay", seed), f.overlay, f.base, f.overlayRef)
		for tr := range f.overlayRef {
			if f.baseRef[tr] {
				t.Fatalf("seed %d: %v is in both members of the fixture", seed, tr)
			}
		}
		view, err := NewView(f.base, f.overlay)
		if err != nil {
			t.Fatal(err)
		}
		checkObjectOnly(t, fmt.Sprintf("seed %d view", seed), view, f.base, f.union())
	}
}

func mustID(t *testing.T, s *Store, name string) SymbolID {
	t.Helper()
	id, ok := s.SymbolID(name)
	if !ok {
		t.Fatalf("%q was never interned", name)
	}
	return id
}

// TestObjectOnlyEarlyStop: a yield returning false ends the fan-out at once —
// within the current predicate's subject list, not at its end, and with no
// later predicate visited.
func TestObjectOnlyEarlyStop(t *testing.T) {
	s := New()
	for p := 0; p < 30; p++ {
		for i := 0; i < 10; i++ {
			s.MustAdd(Triple{fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", p), "hub"})
		}
	}
	overlay := s.NewOverlay()
	overlay.MustAdd(Triple{"extra", "p0", "hub"})
	view, err := NewView(s, overlay)
	if err != nil {
		t.Fatal(err)
	}
	p := IDPattern{O: mustID(t, s, "hub"), BoundO: true}
	for name, r := range map[string]idReader{"store": s, "view": view} {
		for _, stopAfter := range []int{1, 3, 14} {
			n := 0
			r.QueryIDFunc(p, func(IDTriple) bool { n++; return n < stopAfter })
			if n != stopAfter {
				t.Errorf("%s: QueryIDFunc stopped after %d yields, want %d", name, n, stopAfter)
			}
			n = 0
			r.QueryIDBatch([]IDPattern{p, p, p}, func(int, IDTriple) bool { n++; return n < stopAfter })
			if n != stopAfter {
				t.Errorf("%s: QueryIDBatch stopped after %d yields, want %d", name, n, stopAfter)
			}
		}
	}
}

// TestObjectOnlyCursorIsBounded: a class with a 5 000-subject posting list is
// streamed by position, every triple once, on a store and on the one cursor of
// a view whose members split the list, which drains exactly base ∪ overlay. A
// cursor has nowhere to buffer a triple of its own, so every refill is at most
// one batch by construction.
func TestObjectOnlyCursorIsBounded(t *testing.T) {
	const subjects, batchSize = 5000, 64
	base := New()
	overlay := base.NewOverlay()
	var batch []Triple
	for i := 0; i < subjects; i++ {
		batch = append(batch, Triple{fmt.Sprintf("inst%d", i), "type", "big"})
	}
	for p := 0; p < 20; p++ {
		batch = append(batch, Triple{"x", fmt.Sprintf("p%d", p), "big"})
	}
	if _, err := base.AddBatch(batch[:subjects/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := overlay.AddBatch(batch[subjects/2:]); err != nil {
		t.Fatal(err)
	}
	view, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	p := IDPattern{O: mustID(t, base, "big"), BoundO: true}
	seen := map[IDTriple]bool{}
	drain := func(what string, pt *ScanPart, want int) {
		t.Helper()
		buf := make([]IDTriple, batchSize)
		before := len(seen)
		for done := false; !done; {
			var n int
			n, done = pt.NextBatch(buf)
			for _, tr := range buf[:n] {
				if seen[tr] {
					t.Fatalf("%s: %v reported twice", what, tr)
				}
				seen[tr] = true
			}
		}
		if got := len(seen) - before; got != want {
			t.Fatalf("%s: drained %d triples, want %d", what, got, want)
		}
	}
	drain("view", view.Scan(p), subjects+20)
	clear(seen)
	drain("store", overlay.Scan(p), subjects/2+20)
}
