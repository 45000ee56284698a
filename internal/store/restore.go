package store

import (
	"fmt"
	"sync"
)

// This file is the store's bulk-build path: LoadSorted builds the two
// indexes of an empty store from a sorted triple set without going through
// the mutation path at all, and RestoreSorted is LoadSorted behind a freshly
// installed dictionary, or behind the store's own. The mutation path
// (Tx.AddBatch → insertBatch) exists to be safe against duplicate inserts
// into a filled store; a bulk build needs none of it — the input is sorted,
// hence duplicate-free, and the indexes are empty — so it can build every
// index level by direct append: no dedup probing, no search for a member's
// place in its run. Recovery (the data directory's patches, composed: the
// only way durable fills a store) and the reasoner's seed round (a whole
// round of inferred triples committed into the empty overlay) are the two
// callers.

// RestoreSorted bulk-loads a store without triples from a recovered
// dictionary and a sorted triple set, at generation gen. dict is the names in
// id order, as runs in the encoding of the log's dictionary records — the
// regions a recovery or a snapshot read, as they lie: the k-th name across
// them becomes the name of SymbolID k (reproducing the interning order the
// data directory recorded). A dict of no names keeps the names the store
// holds, which a caller that restored them first and interned more
// (recovery's log tail) passes. triples must satisfy LoadSorted's contract
// against the dictionary: strictly ascending in (S, P, O) order with every
// component id below its length. The runs' bytes become the dictionary's
// pages without a copy, and the store never writes them: the names minted
// next go into pages of its own, so two stores may be restored from the same
// runs, but the caller must not write them afterwards. The store's digest
// is computed from what was loaded, so Position reports gen and the digest
// of the triples: a caller holding the digest the history recorded compares
// the two. Given no triples the load is skipped, and with it the digest's
// pass over every name.
//
// The store must hold no triples — nor any name when dict names any — and
// no journal: restore bypasses the mutation path, so nothing is journaled
// (recovery runs before the engine attaches its journal). Invalid input — a
// run whose names do not fill its bytes, an empty name, a name under two
// ids — is rejected before anything is installed. The caller owns the store
// exclusively until RestoreSorted returns; afterwards it is safe for
// concurrent use as usual.
func (s *Store) RestoreSorted(dict []NameRun, triples []IDTriple, gen uint64) error {
	names := 0
	for _, run := range dict {
		names += run.N
	}
	if s.Len() != 0 || names > 0 && s.DictLen() != 0 {
		return fmt.Errorf("store: RestoreSorted needs an empty store, not %d triples and %d dictionary entries", s.Len(), s.DictLen())
	}
	if s.getJournal() != nil {
		return fmt.Errorf("store: RestoreSorted bypasses the mutation path and would not journal; detach the journal first")
	}
	if uint64(names) > nameCeiling {
		return fmt.Errorf("store: restore dictionary holds %d names, past the most a dictionary can, %d", names, nameCeiling)
	}
	n := names
	if n == 0 {
		n = s.DictLen()
	}
	if err := checkSorted(triples, SymbolID(n)); err != nil {
		return err
	}
	if names > 0 {
		// The index is sized once for the whole dictionary, and each name is
		// probed before it is filed, so a repeat is caught at its second id.
		table, err := restoredNames(dict)
		if err != nil {
			return err
		}
		fresh := symtab{index: make([]uint32, indexLen(names)), names: table}
		for i := range names {
			name := table.dirs.at(uint32(i))
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
		s.syms.names = fresh.names
		s.syms.mu.Unlock()
	}
	if len(triples) > 0 {
		s.loadSorted(triples)
	}
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
// out of the index's shared arenas. An arena sub-slice is capped at its run,
// so the first insert after the load — wherever in the run it lands, the run
// grows by one at its end — copies the run and strands its arena bytes for
// good: harmless for the millions of short runs the arenas exist for (a few
// hundred bytes each, and most are never touched again), ruinous for the few
// long ones every write lands in — the subject list of a class under POS
// (type, class), 4 bytes per instance and tens of thousands of instances.
// So a trailing set longer than arenaRunMax is built as chunks of its own
// (chunkFill), and a lead of more pairs than arenaRunMax gets its pair slice
// to itself, each with an eighth of room: the slack an append-grown slice of
// that size carries on average, so a loaded store meets its first writes the
// way an incrementally built one would, and a write into the middle of a
// loaded hub allocates nothing until its chunk is full.
const arenaRunMax = 256

// chunkFill is the most members buildSorted files in one chunk of a long
// set, so an eighth of room fits beside them.
const chunkFill = chunkLen * 8 / 9

// chunksFor is how many pairs buildSorted files a set of n members in: one,
// or for a long set as many chunks as it takes to keep each at chunkFill or
// under.
func chunksFor(n int) int {
	return (n + chunkFill - 1) / chunkFill
}

// chunkRoom is the capacity buildSorted gives a chunk of n members: an
// eighth more, or all of chunkLen once that is past 864 members, whose 3 456
// bytes are the allocator's last size class below a full chunk's 4 KiB.
func chunkRoom(n int) int {
	if room := n + n/8; room <= 864 {
		return room
	}
	return chunkLen
}

// carve returns the front of the arena as a run of n elements, capped at the
// run so a later append reallocates instead of clobbering the neighbouring
// run.
func carve[T any](arena *[]T, n int) []T {
	run := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return run
}

// buildSorted populates an empty index from triples in its own frame, sorted
// by (lead, mid) = (S, P) with the trail in O. Runs sharing a lead become one
// leadEntry, written into its slot of the index's pages, and runs sharing
// (lead, mid) one set. A one-member set is written into its pair; a set of up
// to arenaRunMax members is one run, copied in input order, which is
// ascending (radixSortIDTriples), so it is a valid run as it stands; a longer
// one is split evenly into chunksFor chunks, each an allocation of its own
// with chunkRoom. Every run takes the next slot of the run table, and every
// lead of more than two pairs the next of the array table, both sized to
// them. A lead of one or two pairs is built in its entry, which is most
// subjects; the pairs of longer leads up to arenaRunMax wide, the runs up to
// arenaRunMax long and every run's slice header are carved out of three
// arena allocations sized by a counting pass — for SPO, whose leads are the
// store's subjects, per-entry allocation would mean millions of tiny objects
// for the GC to trace; the pair arena holds no pointer, so the GC does not
// even scan it. The pairs arrive ascending by mid. Callers hold the store's
// write lock.
func (ix *index) buildSorted(ts []IDTriple) {
	if len(ts) == 0 {
		return
	}
	// Counting pass: what lives in the arenas.
	mids, arrays, runs, elems := 0, 0, 0, 0
	leadPairs := 0 // the pairs of the lead in progress
	for i := 0; i < len(ts); {
		j := runEnd(ts, i)
		switch n := j - i; {
		case n > arenaRunMax:
			runs += chunksFor(n)
		case n > 1:
			runs++
			elems += n
		}
		leadPairs += chunksFor(j - i)
		if j == len(ts) || ts[j].S != ts[i].S {
			if leadPairs > 2 {
				arrays++
				if leadPairs <= arenaRunMax {
					mids += leadPairs
				}
			}
			leadPairs = 0
		}
		i = j
	}
	midArena := make([]midTrail, mids)
	elemArena := make([]uint32, elems)
	ix.chunks = make([]*leadChunk, ts[len(ts)-1].S>>leadChunkShift+1)
	ix.leads = 0
	ix.tables = tables{
		runs:   slotTable[[]uint32]{at: make([][]uint32, 0, runs)},
		arrays: slotTable[*midTrail]{at: make([]*midTrail, 0, arrays)},
	}
	// fill copies the trailing ids of ts[lo:hi] into a run of its own at
	// capacity room, or carved from the arena when room is 0, and appends its
	// pair under mid to pairs.
	fill := func(pairs []midTrail, mid uint32, lo, hi, room int) []midTrail {
		var run []uint32
		if room == 0 {
			run = carve(&elemArena, hi-lo)
		} else {
			run = make([]uint32, hi-lo, room)
		}
		for q := range run {
			run[q] = ts[lo+q].O
		}
		return append(pairs, midTrail{mid: mid, v: ix.fileRun(run)})
	}
	for i := 0; i < len(ts); {
		l := ts[i].S
		j, nm := i, 0
		for j < len(ts) && ts[j].S == l {
			k := runEnd(ts, j)
			nm += chunksFor(k - j)
			j = k
		}
		e := ix.slot(l)
		var pairs []midTrail
		switch {
		case nm <= 2:
			pairs = e.pairs(&ix.tables) // the entry's own two slots
		case nm > arenaRunMax:
			pairs = make([]midTrail, 0, nm+nm/8)
		default:
			pairs = carve(&midArena, nm)[:0]
		}
		for k := i; k < j; {
			m, k2 := ts[k].P, runEnd(ts, k)
			switch n := k2 - k; {
			case n == 1:
				pairs = append(pairs, midTrail{mid: m, v: ts[k].O})
			case n <= arenaRunMax:
				pairs = fill(pairs, m, k, k2, 0)
			default:
				c := chunksFor(n)
				for q := 0; q < c; q++ {
					lo, hi := k+n*q/c, k+n*(q+1)/c
					pairs = fill(pairs, m, lo, hi, chunkRoom(hi-lo))
				}
			}
			k = k2
		}
		if nm <= 2 {
			e.hold(pairs)
		} else {
			e.setPairs(&ix.tables, pairs)
		}
		ix.leads++
		i = j
	}
}

// runEnd returns the end of the run of ts from i on that shares ts[i]'s lead
// and mid.
func runEnd(ts []IDTriple, i int) int {
	j := i + 1
	for j < len(ts) && ts[j].S == ts[i].S && ts[j].P == ts[i].P {
		j++
	}
	return j
}
