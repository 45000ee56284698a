package store

import (
	"fmt"
	"sync"
)

// This file is the store's bulk-build path: LoadSorted builds the two
// indexes of an empty store from a sorted triple set without going through
// the mutation path at all, and RestoreSorted is LoadSorted behind a freshly
// installed dictionary. The mutation path (Tx.AddBatch → insertBatch) exists
// to be safe against duplicate inserts into a filled store; a bulk build
// needs none of it — the input is sorted, hence duplicate-free, and the
// indexes are empty — so it can build every index level by direct append: no
// dedup probing, no search for a member's place in its run. Recovery (the
// data directory's patches, composed: the only way durable fills a store)
// and the reasoner's seed round (a whole round of inferred triples committed
// into the empty overlay) are the two callers.

// RestoreSorted bulk-loads an empty store from a recovered dictionary and a
// sorted triple set, at generation gen. dict[i] becomes the name of SymbolID
// i (reproducing the interning order the data directory recorded), and
// triples must satisfy LoadSorted's contract against that dictionary:
// strictly ascending in (S, P, O) order with every component id below
// len(dict). dict is retained; callers must not mutate it afterwards. The
// store's digest is computed from what was loaded, so Position reports gen
// and the digest of the triples: a caller holding the digest the history
// recorded compares the two.
//
// The store must be empty — no triples, no dictionary — and journal-free:
// restore bypasses the mutation path, so nothing is journaled (recovery runs
// before the engine attaches its journal). Invalid input is rejected before
// anything is installed. The caller owns the store exclusively until
// RestoreSorted returns; afterwards it is safe for concurrent use as usual.
func (s *Store) RestoreSorted(dict []string, triples []IDTriple, gen uint64) error {
	if s.Len() != 0 || s.DictLen() != 0 {
		return fmt.Errorf("store: RestoreSorted needs an empty store, not %d triples and %d dictionary entries", s.Len(), s.DictLen())
	}
	if s.getJournal() != nil {
		return fmt.Errorf("store: RestoreSorted bypasses the mutation path and would not journal; detach the journal first")
	}
	if err := checkSorted(triples, SymbolID(len(dict))); err != nil {
		return err
	}
	// The index is sized for the whole dictionary once, and each name is
	// probed before it is filed, so a repeat is caught at its second id.
	fresh := symtab{index: make([]uint32, indexLen(len(dict))), names: dict}
	for i, name := range dict {
		if name == "" {
			return fmt.Errorf("store: restore dictionary id %d is the empty string", i)
		}
		prev, slot, dup := fresh.find(name)
		if dup {
			return fmt.Errorf("store: restore dictionary repeats %q as ids %d and %d", name, prev, i)
		}
		fresh.index[slot] = uint32(i) + 1
	}
	s.syms.mu.Lock()
	s.syms.index = fresh.index
	s.syms.names = dict
	s.syms.mu.Unlock()
	s.loadSorted(triples)
	s.mu.gen.Store(gen)
	return nil
}

// LoadSorted bulk-loads an empty store from a sorted set of dictionary-
// encoded triples: strictly ascending in (S, P, O) order — therefore
// duplicate-free; SortIDTriples produces the order — with every component id
// already minted by the store's dictionary, which is what lets an overlay
// (NewOverlay) take a whole round of inferred triples in one call. Invalid
// input is rejected with nothing inserted. triples is only read, never
// retained: the index levels are built in their own arenas.
//
// The store must hold no triples and no journal: the load bypasses the
// mutation path, so nothing would be journaled. Both indexes are built under
// the store's write lock, so readers of the store — and of a View over it —
// are safe throughout and see it either empty or complete; writers must be
// excluded by the caller until LoadSorted returns.
func (s *Store) LoadSorted(triples []IDTriple) error {
	if s.Len() != 0 {
		return fmt.Errorf("store: LoadSorted needs a store without triples, not %d", s.Len())
	}
	if s.getJournal() != nil {
		return fmt.Errorf("store: LoadSorted bypasses the mutation path and would not journal; detach the journal first")
	}
	if err := checkSorted(triples, SymbolID(s.DictLen())); err != nil {
		return err
	}
	s.loadSorted(triples)
	return nil
}

// checkSorted verifies LoadSorted's input contract against a dictionary of n
// names.
func checkSorted(triples []IDTriple, n SymbolID) error {
	for i, t := range triples {
		if t.S >= n || t.P >= n || t.O >= n {
			return fmt.Errorf("store: sorted triple %d %v references an id outside the %d-name dictionary", i, t, n)
		}
		if i > 0 && !triples[i-1].Less(t) {
			return fmt.Errorf("store: triples not in strict (S, P, O) order at index %d: %v after %v", i, t, triples[i-1])
		}
	}
	return nil
}

// loadSorted builds the two indexes of an empty store from validated input,
// concurrently, under the write lock. SPO is built from the input as it
// stands. POS is built from one copy of it rotated into POS's own (lead, mid,
// trail) frame, so the sort and build loops touch plain struct fields instead
// of calling accessor closures per element — on a multi-million-triple load
// those calls are the difference between memory-bound and call-bound — and
// radix-sorted by (lead, mid), which keeps each run's trailing ids ascending.
// A base store's digest is computed from the input beside the SPO build.
func (s *Store) loadSorted(triples []IDTriple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pos := make([]IDTriple, len(triples))
		for i, t := range triples {
			pos[i] = IDTriple{S: t.P, P: t.O, O: t.S}
		}
		radixSortIDTriples(pos, 2)
		s.pos.buildSorted(pos)
	}()
	s.spo.buildSorted(triples)
	if !s.overlay {
		s.digest = digestOf(s.syms.snapshot(), triples)
	}
	wg.Wait()
	s.size.Store(int64(len(triples)))
}

// SortIDTriples sorts ts in place into ascending (S, P, O) order — the order
// LoadSorted and RestoreSorted require; equal triples end up adjacent, so a
// caller that may hold duplicates drops them in one pass afterwards.
func SortIDTriples(ts []IDTriple) {
	radixSortIDTriples(ts, 3)
}

// UnionSorted merges two strictly ascending (S, P, O) runs into one, dropping
// duplicates. Linear; the inputs are not modified, and when one is empty the
// other is returned as is.
func UnionSorted(a, b []IDTriple) []IDTriple {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]IDTriple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Less(b[j]):
			out = append(out, a[i])
			i++
		case b[j].Less(a[i]):
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// SubtractSorted returns a ∖ b over strictly ascending (S, P, O) runs.
// Linear; the inputs are not modified, and a is returned as is when either
// run is empty.
func SubtractSorted(a, b []IDTriple) []IDTriple {
	if len(a) == 0 || len(b) == 0 {
		return a
	}
	out := make([]IDTriple, 0, len(a))
	j := 0
	for _, t := range a {
		for j < len(b) && b[j].Less(t) {
			j++
		}
		if j < len(b) && b[j] == t {
			continue
		}
		out = append(out, t)
	}
	return out
}

// radixSortIDTriples sorts ts by its first comps components in (S, P, O)
// significance — 2 for a rotated copy's (lead, mid), 3 for the full key —
// with an LSD byte-radix sort. It is stable, so runs equal in the sorted
// components keep their input order: the trailing ids of a (lead, mid) run of
// an (S, P, O)-sorted input come out ascending, which is the invariant every
// trailing run is searched under and buildSorted relies on. Comparison sorting is the bulk path's biggest CPU
// sink (a comparator closure per decision); counting passes replace it with
// O(n) per byte, and passes whose byte is constant across the input (the
// common case for the high bytes of 32-bit ids) are skipped entirely. Every
// loop over the elements is written out per component: a closure call per
// triple costs more than the pass itself.
func radixSortIDTriples(ts []IDTriple, comps int) {
	n := len(ts)
	if n < 2 {
		return
	}
	src, dst := ts, make([]IDTriple, n)
	for c := comps - 1; c >= 0; c-- {
		for shift := 0; shift < 32; shift += 8 {
			var counts [256]int
			var first byte
			switch c {
			case 0:
				for _, t := range src {
					counts[byte(t.S>>shift)]++
				}
				first = byte(src[0].S >> shift)
			case 1:
				for _, t := range src {
					counts[byte(t.P>>shift)]++
				}
				first = byte(src[0].P >> shift)
			default:
				for _, t := range src {
					counts[byte(t.O>>shift)]++
				}
				first = byte(src[0].O >> shift)
			}
			if counts[first] == n {
				continue // every key shares this byte; the pass is a no-op
			}
			sum := 0
			for d := range counts {
				k := counts[d]
				counts[d] = sum
				sum += k
			}
			switch c {
			case 0:
				for _, t := range src {
					d := byte(t.S >> shift)
					dst[counts[d]] = t
					counts[d]++
				}
			case 1:
				for _, t := range src {
					d := byte(t.P >> shift)
					dst[counts[d]] = t
					counts[d]++
				}
			default:
				for _, t := range src {
					d := byte(t.O >> shift)
					dst[counts[d]] = t
					counts[d]++
				}
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

// arenaRunMax is the longest run of a bulk-built index level that is carved
// out of the index's shared arena; a longer run gets its own allocation with
// an eighth of growth room. An arena sub-slice is capped at its run, so the
// first insert after the load — wherever in the run it lands, the run grows
// by one at its end — copies the run and strands its arena bytes for good:
// harmless for the millions of short runs the arenas exist for (a few hundred
// bytes each, and most are never touched again), ruinous for the few long
// ones every write lands in — the subject list of a class under POS
// (type, class), 4 bytes per instance and tens of thousands of instances,
// would be re-allocated whole on the first insert into each class. An eighth
// is the slack an append-grown slice of that size carries on average, so a
// loaded store meets its first writes the way an incrementally built one
// would.
const arenaRunMax = 256

// carve returns room for a run of n elements: the front of the arena, capped
// at the run so a later append reallocates instead of clobbering the
// neighbouring run, or an allocation of its own past arenaRunMax.
func carve[T any](arena *[]T, n int) []T {
	if n > arenaRunMax {
		return make([]T, n, n+n/8)
	}
	run := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return run
}

// buildSorted populates an empty index from triples in its own frame, sorted
// by (lead, mid) = (S, P) with the trail in O. Runs sharing a lead become one
// leadEntry, written into its slot of the index's pages, runs
// sharing (lead, mid) one pair, and the levels below are carved out of three
// arena allocations sized by a counting pass — for SPO, whose leads are the
// store's subjects, per-entry allocation would mean millions of tiny objects
// for the GC to trace — except the runs past arenaRunMax (see carve). A
// one-member set is written into its pair; a longer one is copied in input
// order, which is ascending (radixSortIDTriples), so it is a valid run as it
// stands, and its slice header comes from an arena of its own. The
// pairs arrive ascending by mid. Callers hold the store's write lock.
func (ix *index) buildSorted(ts []IDTriple) {
	if len(ts) == 0 {
		return
	}
	// Counting pass: what lives in the arenas — pairs of leads up to
	// arenaRunMax wide, a header per set of two or more members, and the
	// members of sets up to arenaRunMax.
	mids, runs, elems := 0, 0, 0
	leadMids, pairElems := 0, 0 // sizes of the lead and (lead, mid) runs in progress
	for i, t := range ts {
		newLead := i == 0 || t.S != ts[i-1].S
		if newLead || t.P != ts[i-1].P {
			if pairElems > 1 {
				runs++
				if pairElems <= arenaRunMax {
					elems += pairElems
				}
			}
			pairElems = 0
			if newLead {
				if leadMids <= arenaRunMax {
					mids += leadMids
				}
				leadMids = 0
			}
			leadMids++
		}
		pairElems++
	}
	if pairElems > 1 {
		runs++
		if pairElems <= arenaRunMax {
			elems += pairElems
		}
	}
	if leadMids <= arenaRunMax {
		mids += leadMids
	}
	midArena := make([]midTrail, mids)
	runArena := make([][]uint32, runs)
	elemArena := make([]uint32, elems)
	ix.chunks = make([]*leadChunk, ts[len(ts)-1].S>>leadChunkShift+1)
	ix.leads = 0
	for i := 0; i < len(ts); {
		l := ts[i].S
		j, nm := i, 0
		for j < len(ts) && ts[j].S == l {
			if j == i || ts[j].P != ts[j-1].P {
				nm++
			}
			j++
		}
		e := ix.slot(l)
		e.entries = carve(&midArena, nm)
		ix.leads++
		for p, k := 0, i; k < j; p++ {
			m := ts[k].P
			k2 := k
			for k2 < j && ts[k2].P == m {
				k2++
			}
			e.entries[p] = midTrail{mid: m, one: [1]uint32{ts[k].O}}
			if k2-k > 1 {
				run := carve(&elemArena, k2-k)
				for q := range run {
					run[q] = ts[k+q].O
				}
				runArena[0] = run
				e.entries[p].run = &runArena[0]
				runArena = runArena[1:]
			}
			k = k2
		}
		i = j
	}
}
