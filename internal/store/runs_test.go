package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// A lead's pairs ascend by mid, and a trailing set is its one inline member,
// one strictly ascending run or, past chunkLen members, a sequence of chunks
// (index.go). These tests hold the sets to a map model, the two indexes to
// the invariants every search relies on, and the cursor to what resuming by
// value buys: a write disturbs no triple it did not touch.

// removeOne removes (lead, mid, c) from ix as a batch of one, the only way
// the index removes, reporting whether it was there.
func removeOne(ix *index, lead, mid, c uint32) bool {
	keys := [][4]uint32{{lead, mid, c, 0}}
	return len(ix.removeAll(keys)) == 1
}

// removeMember removes c from mid's set of e as a batch of one, reporting
// whether it was there.
func removeMember(rt *tables, e *leadEntry, mid, c uint32) bool {
	keys := [][4]uint32{{0, mid, c, 0}}
	return len(e.removeAll(rt, mid, keys, keys[:0])) == 1
}

// checkForm holds one lead entry to its form (leadEntry): at least one
// pair; one or two in place, where the marker of a lone pair names no slot;
// more than two in a live slot of the index's array table, within the
// capacity the first half claims. A lead back at two pairs that stayed out of line fails it, as
// does every pair whose mid is a marker.
func checkForm(rt *tables, e *leadEntry) string {
	switch k := e.in[1]; {
	case k.mid == leadOut:
		if int(k.v) >= len(rt.arrays.at) || rt.arrays.at[k.v] == nil {
			return fmt.Sprintf("the lead names array slot %d, not a live one of the %d", k.v, len(rt.arrays.at))
		}
		if n, c := e.in[0].mid, e.in[0].v; n <= 2 || c < n {
			return fmt.Sprintf("a lead of %d pairs in an array of %d is held out of line, in array slot %d", n, c, k.v)
		}
	case k.mid == leadOne && k.v != 0:
		return fmt.Sprintf("a lead of one pair in place names slot %d", k.v)
	}
	ps := e.pairs(rt)
	if len(ps) == 0 {
		return "a lead without pairs was not pruned"
	}
	for _, mt := range ps {
		if mt.mid >= runTag {
			return fmt.Sprintf("a pair's mid is %#x, a marker, not an id", mt.mid)
		}
	}
	return ""
}

// checkLead holds one lead entry to its layout — its form (checkForm), its
// pairs ascending by (mid, first member), each chunk passing checkSet
// against the index's runs, the chunks of one mid disjoint and ascending —
// and counts the members it holds.
func checkLead(rt *tables, e *leadEntry) (members int, bad string) {
	if bad := checkForm(rt, e); bad != "" {
		return 0, bad
	}
	runs, ps := rt.runs.at, e.pairs(rt)
	for j := range ps {
		mt := &ps[j]
		n, bad := checkSet(runs, mt)
		if bad != "" {
			return 0, bad
		}
		if j > 0 {
			prev := ps[j-1].elems(runs)
			switch {
			case ps[j-1].mid > mt.mid:
				return 0, fmt.Sprintf("mid %d follows mid %d at pair %d of %d", mt.mid, ps[j-1].mid, j, len(ps))
			case ps[j-1].mid == mt.mid && prev[len(prev)-1] >= mt.first(runs):
				return 0, fmt.Sprintf("a chunk of mid %d ends at %d and the next begins at %d, pair %d of %d", mt.mid, prev[len(prev)-1], mt.first(runs), j, len(ps))
			}
		}
		members += n
	}
	return members, ""
}

// checkSet holds one pair's chunk to its layout — its one inline member, an
// id below runTag, or a live slot of runs holding a non-empty, strictly
// ascending run of at most chunkLen members in at most chunkLen slots — and
// counts its members.
func checkSet(runs [][]uint32, mt *midTrail) (members int, bad string) {
	if mt.v&runTag == 0 {
		return 1, ""
	}
	if slot := mt.v &^ runTag; int(slot) >= len(runs) || runs[slot] == nil {
		return 0, fmt.Sprintf("the pair under mid %d names slot %d, not a live one of the %d", mt.mid, slot, len(runs))
	}
	run := mt.elems(runs)
	if len(run) == 0 || cap(run) > chunkLen {
		return 0, fmt.Sprintf("a run under mid %d holds %d members in %d slots, want 1 to %d", mt.mid, len(run), cap(run), chunkLen)
	}
	for k := 1; k < len(run); k++ {
		if run[k-1] >= run[k] {
			return 0, fmt.Sprintf("the run under mid %d holds %d before %d at position %d of %d", mt.mid, run[k-1], run[k], k, len(run))
		}
	}
	return len(run), ""
}

// checkTable holds an index's two slot tables to its leads: no two pairs
// name one run slot and no two leads one array slot, none names a free
// slot, no slot is free twice or holds anything, and every slot is named or
// free, so none leaks. It returns how many runs are live.
func checkTable(ix *index) (live int, bad string) {
	runs, arrays := map[uint32]uint32{}, map[uint32]uint32{}
	name := func(named map[uint32]uint32, what string, slot, lead uint32) {
		if other, ok := named[slot]; ok {
			bad = fmt.Sprintf("%s slot %d is named by leads %d and %d", what, slot, other, lead)
		}
		named[slot] = lead
	}
	ix.ascend(0, func(lead uint32, ps trailSet) bool {
		if e := ix.find(lead); e.in[1].mid == leadOut {
			name(arrays, "array", e.in[1].v, lead)
		}
		for _, mt := range ps.pairs {
			if mt.v&runTag != 0 {
				name(runs, "run", mt.v&^runTag, lead)
			}
		}
		return bad == ""
	})
	if bad == "" {
		bad = checkSlots("run", ix.runs.at, ix.runs.free, runs)
	}
	if bad == "" {
		bad = checkSlots("array", ix.arrays.at, ix.arrays.free, arrays)
	}
	return len(runs), bad
}

// checkSlots holds one slot table to the slots the leads name: its free
// list repeats no slot and holds none that is named or not cleared, and the
// named and the free slots are the whole table.
func checkSlots[T any](what string, at []T, free []uint32, named map[uint32]uint32) string {
	seen := map[uint32]bool{}
	for _, slot := range free {
		lead, ok := named[slot]
		switch {
		case seen[slot]:
			return fmt.Sprintf("%s slot %d is on the free list twice", what, slot)
		case ok:
			return fmt.Sprintf("lead %d names %s slot %d, which is free", lead, what, slot)
		case int(slot) >= len(at) || !reflect.ValueOf(at[slot]).IsNil():
			return fmt.Sprintf("free %s slot %d of %d was not cleared", what, slot, len(at))
		}
		seen[slot] = true
	}
	if len(named)+len(free) != len(at) {
		return fmt.Sprintf("%d %s slots are named and %d free of a table of %d: a slot leaked", len(named), what, len(free), len(at))
	}
	return ""
}

// setElems returns a set's members, ascending, chunk after chunk.
func setElems(set trailSet) []uint32 {
	var out []uint32
	for k := range set.pairs {
		out = append(out, set.elems(k)...)
	}
	return out
}

// checkRuns holds every lead of both indexes of s to checkLead, each run
// table to checkTable, the walk of each index to ascending ids, its lead
// counter to the leads the walk finds, and the triples each index holds to
// the store's count.
func checkRuns(t testing.TB, what string, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, ix := range map[string]*index{"SPO": &s.spo, "POS": &s.pos} {
		n, leads, bad := 0, 0, ""
		prev := int64(-1)
		ix.ascend(0, func(lead uint32, _ trailSet) bool {
			members, why := checkLead(&ix.tables, ix.find(lead))
			switch {
			case why != "":
				bad = fmt.Sprintf("lead %d: %s", lead, why)
			case int64(lead) <= prev:
				bad = fmt.Sprintf("the walk reports lead %d after %d", lead, prev)
			}
			n += members
			leads++
			prev = int64(lead)
			return bad == ""
		})
		if bad == "" {
			_, bad = checkTable(ix)
		}
		if bad == "" && leads != ix.leads {
			bad = fmt.Sprintf("the walk finds %d leads, the index counts %d", leads, ix.leads)
		}
		if size := int(s.size.Load()); bad == "" && n != size {
			bad = fmt.Sprintf("the sets hold %d triples, Len is %d", n, size)
		}
		if bad != "" {
			t.Fatalf("%s: %s: %s", what, name, bad)
		}
	}
}

// idSetScript runs a byte script against one lead of an index and a map
// model, the lead's mid 3 first bulk-loaded (buildSorted) with the even
// values below 2·(hub mod 2 048): each three bytes are one operation — insert,
// queue for a batch, remove or contains — of a value from a 4 096-wide
// vocabulary, four chunks' worth, whose top member stands for the largest id
// there is, under one of 16 mids (the first byte's top four bits, past
// linearRun so the mid search halves). The index files through
// leadEntry.insert and remove, and the queued members, in their order, at the
// next operation that is not a queueing one or at the end, through one
// index.insertAll per window of maxBatchKeys, as Tx.insertBatch files them,
// so a set is born inline or as a run of a batch's members, turns into a run
// at its second member, into chunks past chunkLen, drops a chunk's pair when
// it empties, and the lead is pruned with its last pair.
// Every result must equal the model's — a batch's fresh keys are its members
// the model lacked, each at its first position; after every operation the
// sets it touched must exist exactly when the model holds members under their
// mids, their chunks pass checkSet at the model's count, and the run table
// pass checkTable and hold no more slots than the most runs live after any
// operation, so a dropped pair's slot is the next run's; at the end the lead
// must pass checkLead and its sets be the model's, ascending.
func idSetScript(t *testing.T, hub uint16, script []byte) {
	const lead = 7
	var ix index
	model := map[[2]uint32]bool{}
	perMid := map[uint32]int{}
	if n := uint32(hub % 2048); n > 0 {
		loaded := make([]IDTriple, n)
		for i := range loaded {
			loaded[i] = IDTriple{S: lead, P: 3, O: 2 * uint32(i)}
			model[[2]uint32{3, 2 * uint32(i)}] = true
		}
		ix.buildSorted(loaded)
		perMid[3] = int(n)
	}
	peak := len(ix.runs.at) // the most runs live after any operation
	check := func(op int, mid uint32) {
		e := ix.find(lead)
		if (e == nil) != (len(model) == 0) {
			t.Fatalf("op %d: lead present: %v, with %d members in the model", op, e != nil, len(model))
		}
		if (ix.leads == 1) != (e != nil) {
			t.Fatalf("op %d: the index counts %d leads, model has %d members", op, ix.leads, len(model))
		}
		if e == nil {
			return
		}
		if bad := checkForm(&ix.tables, e); bad != "" {
			t.Fatalf("op %d: %s", op, bad)
		}
		set := e.all(&ix.tables).set(mid)
		if (set.pairs == nil) != (perMid[mid] == 0) {
			t.Fatalf("op %d: set of mid %d present: %v, with %d members in the model", op, mid, set.pairs != nil, perMid[mid])
		}
		n := 0
		for k := range set.pairs {
			m, bad := checkSet(ix.runs.at, &set.pairs[k])
			if bad != "" {
				t.Fatalf("op %d: chunk %d of %d: %s", op, k, len(set.pairs), bad)
			}
			n += m
		}
		if n != perMid[mid] {
			t.Fatalf("op %d: %d members in %d chunks under mid %d, model has %d", op, n, len(set.pairs), mid, perMid[mid])
		}
		live, bad := checkTable(&ix)
		peak = max(peak, live)
		switch {
		case bad != "":
			t.Fatalf("op %d: %s", op, bad)
		case len(ix.runs.at) > peak:
			t.Fatalf("op %d: the run table has %d slots, and at most %d runs were ever live", op, len(ix.runs.at), peak)
		case len(ix.arrays.at) > 1:
			t.Fatalf("op %d: the array table has %d slots for one lead", op, len(ix.arrays.at))
		}
	}
	var queued [][2]uint32
	flush := func(op int) {
		for lo := 0; lo < len(queued); lo += maxBatchKeys {
			win := queued[lo:min(lo+maxBatchKeys, len(queued))]
			keys := make([][4]uint32, len(win))
			for p, q := range win {
				keys[p] = [4]uint32{lead, q[0], q[1], uint32(p)}
			}
			slices.SortFunc(keys, compareKeys)
			fresh := map[uint32]bool{}
			for _, k := range ix.insertAll(keys) {
				fresh[k[3]] = true
			}
			for p, q := range win {
				if fresh[uint32(p)] == model[q] {
					t.Fatalf("op %d: batch member %d, %v: fresh %v, model had it: %v", op, lo+p, q, fresh[uint32(p)], model[q])
				}
				if !model[q] {
					model[q] = true
					perMid[q[0]]++
				}
			}
		}
		for _, q := range queued {
			check(op, q[0])
		}
		queued = queued[:0]
	}
	for i := 0; i+2 < len(script); i += 3 {
		op, mid := script[i], uint32(script[i]>>4)
		v := (uint32(script[i+1]) | uint32(script[i+2])<<8) & 4095
		if v == 4095 {
			v = runTag - 1
		}
		key := [2]uint32{mid, v}
		if op&3 == 1 {
			queued = append(queued, key)
			continue
		}
		flush(i / 3)
		switch op & 3 {
		case 0:
			if got := ix.insert(lead, mid, v); got == model[key] {
				t.Fatalf("op %d: insert(%d, %d) = %v, model had it: %v", i/3, mid, v, got, model[key])
			} else if got {
				perMid[mid]++
			}
			model[key] = true
		case 2:
			if got := removeOne(&ix, lead, mid, v); got != model[key] {
				t.Fatalf("op %d: remove(%d, %d) = %v, model says %v", i/3, mid, v, got, model[key])
			} else if got {
				perMid[mid]--
			}
			delete(model, key)
		case 3:
			if got := ix.contains(lead, mid, v); got != model[key] {
				t.Fatalf("op %d: contains(%d, %d) = %v, model says %v", i/3, mid, v, got, model[key])
			}
		}
		check(i/3, mid)
	}
	flush(len(script) / 3)
	if e := ix.find(lead); e != nil {
		if n, bad := checkLead(&ix.tables, e); bad != "" || n != len(model) {
			t.Fatalf("%s; %d members, model has %d", bad, n, len(model))
		}
	}
	want := map[uint32][]uint32{}
	for k := range model {
		want[k[0]] = append(want[k[0]], k[1])
	}
	if e := ix.find(lead); e != nil {
		if sets := e.all(&ix.tables).sets(); sets != len(want) {
			t.Fatalf("%d sets, model has %d mids", sets, len(want))
		}
		for mid, w := range want {
			set := e.all(&ix.tables).set(mid)
			slices.Sort(w)
			if got := setElems(set); !slices.Equal(got, w) {
				t.Fatalf("the set under mid %d is %v, model's keys ascending are %v", mid, got, w)
			}
			if set.len() != len(w) {
				t.Fatalf("the set under mid %d counts %d members, holds %d", mid, set.len(), len(w))
			}
			for _, v := range w {
				if !set.contains(v) {
					t.Fatalf("contains(%d) = false for a member under mid %d", v, mid)
				}
			}
		}
	}
}

// idOps encodes operations for idSetScript: op (0 insert, 1 queue for a
// batch, 2 remove, 3 contains) under mid, of each value.
func idOps(op byte, mid int, values ...int) []byte {
	var script []byte
	for _, v := range values {
		script = append(script, byte(mid<<4)|op, byte(v), byte(v>>8))
	}
	return script
}

// FuzzIDSet drives idSetScript with fuzzed scripts. The seeds fill one set
// across four chunks in ascending, descending and random order, then churn
// it until a middle chunk empties and refill it; fill a run far past
// linearRun and churn it; then walk one set through its life — born inline,
// a run at its second member, emptied and its pair dropped beside a
// neighbour, the lead pruned — pass a freed run slot from set to set and
// back, and fill and empty a lead's 16 mids. The last
// four file batches: one that carries a new set past chunkLen, one with
// repeated and already-present members, one into a bulk-loaded hub of three
// chunks, and one that opens eight mids under a lead that has one. Two more
// walk a lead through its forms (leadEntry) and back: 1 → 2 → 3 → 2 → 1 → 0
// pairs, one write at a time and in batches.
func FuzzIDSet(f *testing.F) {
	all := make([]int, 4095)
	for v := range all {
		all[v] = v
	}
	down := slices.Clone(all)
	slices.Reverse(down)
	shuffled := slices.Clone(all)
	rng := rand.New(rand.NewSource(21))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	middle := all[1024:2048] // a whole chunk of the ascending and descending fills
	churn := append(idOps(2, 3, middle...), idOps(3, 3, all[1000:2100]...)...)
	churn = append(churn, idOps(0, 3, shuffled[:2000]...)...)
	for _, order := range [][]int{all, down, shuffled} {
		f.Add(uint16(0), append(idOps(0, 3, order...), churn...))
	}
	var every3 []int
	for v := 0; v < 1024; v += 3 {
		every3 = append(every3, v)
	}
	random := make([]byte, 6000)
	rng.Read(random)
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0), idOps(0, 0, every3...))
	f.Add(uint16(0), random)
	f.Add(uint16(0), append(idOps(0, 0, every3...), random...))
	f.Add(uint16(0), idOps(0, 0, 5)[:2])                                                                  // a partial operation
	f.Add(uint16(0), append(idOps(0, 0, 5), idOps(3, 0, 5)...))                                           // born inline
	f.Add(uint16(0), append(idOps(0, 0, 9, 5, 1), idOps(3, 0, 5)...))                                     // inline, then a run below it
	f.Add(uint16(0), slices.Concat(idOps(0, 1, 1), idOps(0, 0, 5, 9), idOps(2, 0, 5, 9), idOps(3, 0, 9))) // a run emptied: pair dropped
	f.Add(uint16(0), slices.Concat(idOps(0, 0, 5), idOps(2, 0, 5), idOps(0, 0, 5, 6), idOps(2, 0, 6, 5))) // the lead pruned, twice
	f.Add(uint16(0), slices.Concat(idOps(0, 0, 5, 9), idOps(0, 1, 1, 2), idOps(2, 0, 5, 9), idOps(0, 2, 7, 8), idOps(0, 0, 5, 9),
		idOps(2, 1, 1, 2), idOps(2, 2, 7), idOps(1, 1, 3, 4), idOps(3, 0, 9))) // slots reused: inline, a run, its pair dropped, its slot another set's, re-added
	var mids []byte
	for m := 15; m >= 0; m-- {
		mids = append(mids, idOps(0, m, m, m+100)...)
	}
	for m := 0; m < 16; m += 2 {
		mids = append(mids, idOps(2, m, m, m+100)...)
	}
	f.Add(uint16(0), mids)
	f.Add(uint16(0), idOps(1, 3, shuffled[:2000]...)) // one batch of two windows: a new set past chunkLen
	f.Add(uint16(0), slices.Concat(idOps(0, 2, 3, 9), idOps(1, 2, 9, 5, 5, 1, 9, 3, 7, 1), idOps(1, 4, 6, 6), idOps(3, 2, 7)))
	f.Add(uint16(2047), slices.Concat(idOps(1, 3, 1, 2001, 4001, 3, 900, 2, 1901), idOps(1, 5, 11, 12), idOps(2, 3, 900))) // into a loaded hub
	var opened []byte
	for m := 15; m >= 1; m -= 2 {
		opened = append(opened, idOps(1, m, m, m+100, m+200)...)
	}
	f.Add(uint16(0), slices.Concat(idOps(0, 8, 1), opened, idOps(1, 8, 0, 2), idOps(3, 9, 109))) // opens mids under one lead
	// A lead through its forms: one pair in place, two, three out of line,
	// two back in place, none — written one at a time, then batched, with a
	// run under mid 0 that keeps its slot across the moves.
	f.Add(uint16(0), slices.Concat(idOps(0, 0, 5, 9), idOps(0, 1, 6), idOps(0, 2, 7), idOps(3, 0, 9), idOps(2, 1, 6),
		idOps(3, 0, 5), idOps(2, 2, 7), idOps(2, 0, 9, 5)))
	f.Add(uint16(0), slices.Concat(idOps(1, 1, 6), idOps(1, 0, 5, 9), idOps(3, 0, 9), idOps(1, 2, 7, 8), idOps(1, 3, 4), idOps(3, 2, 8),
		idOps(2, 2, 7, 8), idOps(2, 3, 4), idOps(0, 2, 3), idOps(2, 1, 6), idOps(2, 2, 3), idOps(2, 0, 9, 5), idOps(1, 4, 1, 2, 3)))
	f.Fuzz(idSetScript)
}

// TestChunkedSetChurn files 4 095 members under one mid in ascending,
// descending and shuffled order, then removes a chunk's worth from the
// middle: every order leaves the set in chunks, full ones for the two
// monotone orders, and the removal empties and drops a middle chunk.
func TestChunkedSetChurn(t *testing.T) {
	const members = 4095
	asc := make([]uint32, members)
	for i := range asc {
		asc[i] = uint32(i)
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(asc)
	rand.New(rand.NewSource(21)).Shuffle(members, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name   string
		order  []uint32
		chunks int // how many chunks the fill leaves, 0 when the order does not say
	}{{"ascending", asc, 4}, {"descending", desc, 4}, {"shuffled", shuffled, 0}} {
		t.Run(c.name, func(t *testing.T) {
			var rt tables
			var e leadEntry
			for _, v := range c.order {
				e.insert(&rt, 3, v)
			}
			set := e.all(&rt).set(3)
			if n, bad := checkLead(&rt, &e); bad != "" || n != members {
				t.Fatalf("%s; %d members", bad, n)
			}
			if len(set.pairs) < 4 || c.chunks > 0 && len(set.pairs) != c.chunks {
				t.Fatalf("%d members fill %d chunks, want %d (at least 4)", members, len(set.pairs), c.chunks)
			}
			before := len(set.pairs)
			for v := uint32(1000); v < 2100; v++ {
				if !removeMember(&rt, &e, 3, v) {
					t.Fatalf("remove(%d) missed", v)
				}
			}
			if n, bad := checkLead(&rt, &e); bad != "" || n != members-1100 {
				t.Fatalf("after the removals: %s; %d members", bad, n)
			}
			if after := len(e.all(&rt).set(3).pairs); after >= before {
				t.Errorf("removing 1 100 middle members left %d chunks of %d: none emptied", after, before)
			}
		})
	}
}

// TestIDSetSearchDoesNotAllocate: on a run of 10⁴ members and a set of 10⁵
// in chunks, membership and removal are a search and a copy within one chunk
// — nothing is allocated.
func TestIDSetSearchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, members := range []int{10_000, 100_000} {
		const mid = 3
		var rt tables
		var e leadEntry
		for v := uint32(0); v < uint32(members); v++ {
			e.insert(&rt, mid, 3*v)
		}
		rng := rand.New(rand.NewSource(21))
		hits := 0
		if allocs := testing.AllocsPerRun(200, func() {
			if e.all(&rt).set(mid).contains(uint32(rng.Intn(3 * members))) {
				hits++
			}
		}); allocs != 0 {
			t.Errorf("%d members: contains allocates %.1f times per call", members, allocs)
		}
		if hits == 0 || hits > 150 {
			t.Errorf("%d members: %d of 201 probes hit; a third should", members, hits)
		}
		order := rng.Perm(members)
		next := 0
		if allocs := testing.AllocsPerRun(200, func() {
			if !removeMember(&rt, &e, mid, uint32(3*order[next])) {
				t.Fatalf("remove(%d) missed a member", 3*order[next])
			}
			next++
		}); allocs != 0 {
			t.Errorf("%d members: remove allocates %.1f times per call", members, allocs)
		}
		if n, bad := checkLead(&rt, &e); bad != "" || n != members-next {
			t.Errorf("%s; %d members after %d removals of %d", bad, n, next, members)
		}
	}
}

// allocated returns how many heap allocations f makes and how many bytes
// they take.
func allocated(f func()) (count, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestAppendAllocatesWhatItKeeps: filing 10⁵ ascending members in one set —
// a class meeting its new instances — allocates about the 4 bytes a member
// keeps: each full chunk is followed by a new one and never copied, so past
// the first chunk's growth a member costs its slot, a chunk's slice header
// and its share of the pairs. An append-grown run paid about 20.
func TestAppendAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const members = 100_000
	var rt tables
	var e leadEntry
	_, bytes := allocated(func() {
		for v := uint32(0); v < members; v++ {
			e.insert(&rt, 3, v)
		}
	})
	per := float64(bytes) / members
	t.Logf("%d ascending members in %d chunks: %.2f bytes allocated a member", members, len(e.all(&rt).set(3).pairs), per)
	if n, bad := checkLead(&rt, &e); bad != "" || n != members {
		t.Fatalf("%s; %d members", bad, n)
	}
	if per > 4.2 {
		t.Errorf("%.2f bytes allocated a member, budget 4.2", per)
	}
}

// TestBatchGrowsEachSetOnce: one AddIDs grows each set and each pair slice
// it touches once, whatever number of members it files there — 20 members of
// a new (lead, mid) are one run of exactly 20 and its header, 20 more members
// of a 2-member set regrow its run once, and 5 new mids under a lead grow its
// pairs once. The other index's sets are given room first, and the batch key
// scratch is warm, so what is counted is the one set or pair slice.
func TestBatchGrowsEachSetOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New()
	id := func(format string, a ...any) SymbolID {
		v, err := s.Intern(fmt.Sprintf(format, a...))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	add := func(ts ...IDTriple) {
		s.Write(func() bool {
			tx := s.Begin()
			for _, tr := range ts {
				if _, err := tx.AddID(tr); err != nil {
					t.Fatal(err)
				}
			}
			return false
		})
	}
	// roomy gives the POS set (p, o) three members, so a run of four slots.
	roomy := func(p, o SymbolID) {
		for k := 0; k < 3; k++ {
			add(IDTriple{S: id("x%d", k), P: p, O: o})
		}
	}
	// lead gives a subject three pairs, so a pair slice of four.
	lead := func(name string) SymbolID {
		l := id(name)
		for k := 0; k < 3; k++ {
			add(IDTriple{S: l, P: id("q%d", k), O: id("y")})
		}
		return l
	}
	var warm []IDTriple
	for i := 0; i < 40; i++ {
		warm = append(warm, IDTriple{S: id("w"), P: id("q0"), O: id("z%d", i)})
	}
	batch := func(ts []IDTriple) (count, bytes uint64) {
		s.Write(func() bool {
			tx := s.Begin()
			if fresh, err := tx.AddIDs(slices.Clone(warm)); err != nil || len(fresh) != 0 {
				t.Fatalf("the warm-up batch: %d fresh, %v", len(fresh), err)
			}
			count, bytes = allocated(func() {
				if fresh, err := tx.AddIDs(ts); err != nil || len(fresh) != len(ts) {
					t.Fatalf("AddIDs filed %d of %d, %v", len(fresh), len(ts), err)
				}
			})
			return false
		})
		return count, bytes
	}
	add(warm...)

	p, s1 := id("p"), lead("s1")
	var newSet []IDTriple
	for i := 0; i < 20; i++ {
		o := id("o%d", i)
		roomy(p, o)
		newSet = append(newSet, IDTriple{S: s1, P: p, O: o})
	}
	r, s2 := id("r"), lead("s2")
	add(IDTriple{S: s2, P: r, O: id("a")}, IDTriple{S: s2, P: r, O: id("b")})
	var grown []IDTriple
	for i := 0; i < 20; i++ {
		c := id("c%d", i)
		roomy(r, c)
		grown = append(grown, IDTriple{S: s2, P: r, O: c})
	}
	s3, v := id("s3"), id("v")
	add(IDTriple{S: s3, P: id("g"), O: id("y")})
	var opened []IDTriple
	for j := 0; j < 5; j++ {
		m := id("m%d", j)
		for k := 0; k < 3; k++ {
			add(IDTriple{S: id("x0"), P: m, O: id("u%d", k)})
		}
		opened = append(opened, IDTriple{S: s3, P: m, O: v})
	}
	checkRuns(t, "set up", s)

	for _, c := range []struct {
		name         string
		ts           []IDTriple
		count, bytes uint64
	}{
		{"a new set of 20", newSet, 1, 80},       // the run; the run table has room for its slot
		{"20 into a set of 2", grown, 1, 24 * 4}, // 22 members, regrown as append would
		{"5 new mids", opened, 1, 6 * 8},         // 6 pairs
	} {
		count, bytes := batch(c.ts)
		t.Logf("%s: %d allocations, %d bytes", c.name, count, bytes)
		if count > c.count || bytes > c.bytes {
			t.Errorf("%s: %d allocations of %d bytes, want at most %d of %d", c.name, count, bytes, c.count, c.bytes)
		}
	}
	checkRuns(t, "after the batches", s)
	if set := s.spo.set(s1, p); len(set.pairs) != 1 || len(set.elems(0)) != 20 || cap(set.elems(0)) != 20 {
		t.Errorf("the new set is %d chunks, the first of %d members in %d slots; want one run of exactly 20", len(set.pairs), len(set.elems(0)), cap(set.elems(0)))
	}
}

// TestFreshSubjectAllocatesNothing: filing a new subject with a type and a
// location — two single-member sets under a lead whose page exists, its
// members landing in POS runs with room — allocates nothing: the lead holds
// its two pairs in place and each pair its one member. A third predicate
// moves the pairs out of line into one array, four 8-byte pairs in a 32-byte
// object, which takes the array slot another subject freed when it went
// back to two predicates; and removing it again gives the array back and
// files the two pairs in place.
func TestFreshSubjectAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New()
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	typ, located, class, site := id(TypePredicate), id("locatedIn"), id("Class"), id("Site")
	label, name := id("label"), id("Name")
	old := make([]IDTriple, 0, 10)
	for i := 0; i < 5; i++ {
		subject := id(fmt.Sprint("old", i))
		old = append(old, IDTriple{S: subject, P: typ, O: class}, IDTriple{S: subject, P: located, O: site})
	}
	fresh := id("fresh")
	s.Write(func() bool {
		tx := s.Begin()
		for _, tr := range old { // one at a time: each POS run regrown as append would, to 8 slots
			if _, err := tx.AddID(tr); err != nil {
				t.Fatal(err)
			}
		}
		if added, err := tx.AddIDs(slices.Clone(old)); err != nil || len(added) != 0 { // warms the batch scratch
			t.Fatalf("the warm-up batch: %d fresh, %v", len(added), err)
		}
		// An old subject out of line and back: the POS set (label, name)
		// and a free array slot.
		third := IDTriple{S: old[0].S, P: label, O: name}
		if _, err := tx.AddID(third); err != nil || !tx.RemoveID(third) {
			t.Fatalf("AddID, RemoveID(%v): %v", third, err)
		}
		for _, c := range []struct {
			what         string
			ts           []IDTriple
			count, bytes uint64
		}{
			{"a fresh subject's type and location", []IDTriple{{S: fresh, P: typ, O: class}, {S: fresh, P: located, O: site}}, 0, 0},
			{"its third predicate", []IDTriple{{S: fresh, P: label, O: name}}, 1, 32},
		} {
			count, bytes := allocated(func() {
				if added, err := tx.AddIDs(c.ts); err != nil || len(added) != len(c.ts) {
					t.Fatalf("%s: AddIDs filed %d of %d, %v", c.what, len(added), len(c.ts), err)
				}
			})
			t.Logf("%s: %d allocations, %d bytes", c.what, count, bytes)
			if count != c.count || bytes != c.bytes {
				t.Errorf("filing %s allocates %d objects of %d bytes, want %d of %d", c.what, count, bytes, c.count, c.bytes)
			}
		}
		if e := s.spo.find(fresh); e.in[1].mid != leadOut {
			t.Errorf("a subject of three predicates holds them in place: %v", e.in)
		}
		if !tx.RemoveID(IDTriple{S: fresh, P: label, O: name}) {
			t.Fatal("RemoveID missed the third predicate")
		}
		if e := s.spo.find(fresh); e.in[1].mid == leadOut || len(s.spo.arrays.free) != 1 {
			t.Errorf("back at two predicates the subject is %v, with %d free array slots; want its pairs in place and its slot free", e.in, len(s.spo.arrays.free))
		}
		return false
	})
	checkRuns(t, "after the fresh subject", s)
}

// TestLoadedHubTakesMiddleInserts: a hub the bulk path built — 10⁴ members,
// every third id, in chunks with an eighth of room — takes a member into the
// middle of each of its chunks without allocating, as mixed_open's retypes
// land in boot-loaded classes.
func TestLoadedHubTakesMiddleInserts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const members, typ, hub = 10_000, 1, 2
	ts := make([]IDTriple, members)
	for i := range ts {
		ts[i] = IDTriple{S: 3 + 3*SymbolID(i), P: typ, O: hub}
	}
	var ix index
	ix.buildSorted(func() []IDTriple {
		pos := make([]IDTriple, len(ts))
		for i, t := range ts {
			pos[i] = IDTriple{S: t.P, P: t.O, O: t.S}
		}
		return pos
	}())
	set := ix.set(typ, hub)
	if len(set.pairs) < 10 {
		t.Fatalf("a %d-member hub was built in %d chunks", members, len(set.pairs))
	}
	var middles []uint32
	for k := range set.pairs {
		elems := set.elems(k)
		middles = append(middles, elems[len(elems)/2]+1)
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(middles)-1, func() {
		if !ix.insert(typ, hub, middles[next]) {
			t.Fatalf("insert(%d) reported a duplicate", middles[next])
		}
		next++
	}); allocs != 0 {
		t.Errorf("a middle insert into a loaded chunk allocates %.1f times", allocs)
	}
	if n, bad := checkLead(&ix.tables, ix.find(typ)); bad != "" || n != members+len(middles) {
		t.Fatalf("%s; %d members", bad, n)
	}
}

// TestNewMidDoesNotAllocate: filing the first member under a new mid of a
// lead whose pairs have spare capacity allocates nothing — the member lives
// in its pair — wherever among the pairs the mid lands.
func TestNewMidDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const lead, spare = 7, 64
	var ix index
	ps := make([]midTrail, 3, spare) // out of line, with room
	for k := range ps {
		ps[k] = midTrail{mid: 2*spare + uint32(k), v: 7}
	}
	ix.slot(lead).setPairs(&ix.tables, ps)
	ix.leads++
	mid := uint32(2 * spare)
	if allocs := testing.AllocsPerRun(spare-len(ps)-1, func() {
		mid -= 2 // descending: each new pair lands below every other
		if !ix.insert(lead, mid, 7) {
			t.Fatalf("insert under the new mid %d reported a duplicate", mid)
		}
	}); allocs != 0 {
		t.Errorf("filing a new mid's first member allocates %.1f times", allocs)
	}
	if !ix.insert(lead, mid+1, 7) {
		t.Fatal("insert between two pairs reported a duplicate")
	}
	if n, bad := checkLead(&ix.tables, ix.find(lead)); bad != "" || n != spare+1 {
		t.Fatalf("%s; %d members, want %d", bad, n, spare+1)
	}
}

// TestCursorResumesByValue: a (? P O) cursor over a 5 000-subject posting
// list, five chunks, is drained a thousand triples at a time with writes to
// the list in between — an emitted subject removed while one is inserted below the cursor
// and one above, then a removal alone, then an insertion alone, so the
// members above the cursor slide back, stay and slide forth. Every subject
// present throughout is reported exactly once, the one inserted above the
// cursor too, a touched one at most once — at batch sizes 1, 7 and 1 024, on
// a store and through a view whose overlay holds the list, and the same with
// the predicate left open, where the object-only fan-out walks the list; and
// over a 10⁵-subject list, 98 chunks, at batch size 1 024. One
// level up, a (S ? ?) cursor over one subject's one-object predicates keeps
// the same guarantee while pairs are dropped and filed below it, and at the
// top the unbound cursor keeps it while leads are pruned behind it and filed
// ahead of it.
func TestCursorResumesByValue(t *testing.T) {
	for _, size := range []int{1, 7, 1024} {
		for _, view := range []bool{false, true} {
			for _, objectOnly := range []bool{false, true} {
				t.Run(fmt.Sprintf("batch=%d/view=%v/objectonly=%v", size, view, objectOnly), func(t *testing.T) {
					checkCursorResumes(t, 5000, size, view, objectOnly)
				})
			}
		}
	}
	t.Run("subjects=100000/batch=1024", func(t *testing.T) {
		checkCursorResumes(t, 100_000, 1024, false, false)
	})
	t.Run("lead/batch=1", checkLeadCursorResumes)
	for _, size := range []int{1, 3} {
		t.Run(fmt.Sprintf("unbound/batch=%d", size), func(t *testing.T) {
			checkUnboundCursorResumes(t, size)
		})
	}
}

// checkUnboundCursorResumes drains a (? ? ?) cursor over 180 subjects of two
// triples each, size triples at a time, until it stands among the leads in
// the middle of the index. Every tenth id was held back, so a lead filed
// later lands between two filed ones. Then the first lead is pruned, so is
// the one the cursor finished last and the lead it stands in, and two held
// back ids are filed as leads ahead of it, each below leads the cursor has
// not yet reached. Every untouched lead is reported exactly once, the two new
// ones too, a pruned one at most once.
func checkUnboundCursorResumes(t *testing.T, size int) {
	const names, every = 200, 10
	s := New()
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	p, q, o := id("p"), id("q"), id("o")
	lead := func(subject SymbolID) []IDTriple {
		return []IDTriple{{S: subject, P: p, O: o}, {S: subject, P: q, O: o}}
	}
	var filed, spare []SymbolID // ascending
	tx := s.Begin()
	for i := 0; i < names; i++ {
		subject := id(fmt.Sprintf("s%d", i))
		if i%every == every-1 {
			spare = append(spare, subject)
			continue
		}
		filed = append(filed, subject)
		for _, tr := range lead(subject) {
			if _, err := tx.AddID(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	target := filed[len(filed)/2]

	pt := s.Scan(IDPattern{})
	defer pt.Release()
	buf := make([]IDTriple, size)
	seen := map[IDTriple]int{}
	var last IDTriple
	done := false
	for !done && seen[lead(target)[0]] == 0 {
		var n int
		n, done = pt.NextBatch(buf)
		for _, tr := range buf[:n] {
			seen[tr]++
			last = tr
		}
	}
	at, _ := slices.BinarySearch(filed, last.S)
	if done || at < 2 || filed[at] != last.S {
		t.Fatalf("the cursor stands at %v (done %v); the fixture wants it among the leads in the middle", last, done)
	}
	touched := map[SymbolID]bool{filed[0]: true, filed[at-1]: true, last.S: true}
	for subject := range touched {
		for _, tr := range lead(subject) {
			tx.RemoveID(tr)
		}
	}
	next, _ := slices.BinarySearch(spare, last.S)
	fresh := []SymbolID{spare[next], spare[len(spare)-2]}
	for _, subject := range fresh {
		for _, tr := range lead(subject) {
			if added, err := tx.AddID(tr); err != nil || !added {
				t.Fatalf("AddID(%v) = %v, %v", tr, added, err)
			}
		}
	}
	checkRuns(t, "written store", s)
	for !done {
		var n int
		n, done = pt.NextBatch(buf)
		for _, tr := range buf[:n] {
			seen[tr]++
		}
	}
	for _, subject := range filed {
		for _, tr := range lead(subject) {
			if n := seen[tr]; n > 1 || (!touched[subject] && n != 1) {
				t.Errorf("%v was reported %d times; its lead pruned: %v", tr, n, touched[subject])
			}
		}
	}
	for _, subject := range fresh {
		for _, tr := range lead(subject) {
			if seen[tr] != 1 {
				t.Errorf("%v, filed ahead of the cursor, was reported %d times", tr, seen[tr])
			}
		}
	}
}

// checkLeadCursorResumes drains a (S ? ?) cursor one triple at a time over a
// subject with eight predicates of one object each. Between refills the pair
// of an emitted predicate is emptied, then another emitted one is emptied
// while the first is filed again. The five predicates no write touched are
// each reported exactly once, the two touched at most once.
func checkLeadCursorResumes(t *testing.T) {
	s := New()
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	subject, object := id("s"), id("o")
	ts := make([]IDTriple, 8)
	tx := s.Begin()
	for i := range ts {
		ts[i] = IDTriple{S: subject, P: id(fmt.Sprintf("p%d", i)), O: object}
		if _, err := tx.AddID(ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	pt := s.Scan(IDPattern{S: subject, BoundS: true})
	defer pt.Release()
	buf := make([]IDTriple, 1)
	seen := map[IDTriple]int{}
	pull := func(k int) {
		for ; k > 0; k-- {
			n, done := pt.NextBatch(buf)
			for _, tr := range buf[:n] {
				seen[tr]++
			}
			if done {
				return
			}
		}
	}
	pull(3) // p0, p1, p2
	if len(seen) != 3 || seen[ts[2]] != 1 {
		t.Fatalf("after three refills the cursor reported %v; the fixture wants p0 to p2", seen)
	}
	if !tx.RemoveID(ts[0]) {
		t.Fatalf("RemoveID(%v) missed", ts[0])
	}
	pull(1)
	if !tx.RemoveID(ts[1]) {
		t.Fatalf("RemoveID(%v) missed", ts[1])
	}
	if added, err := tx.AddID(ts[0]); err != nil || !added {
		t.Fatalf("AddID(%v) = %v, %v", ts[0], added, err)
	}
	checkRuns(t, "written store", s)
	pull(len(ts) + 1)
	for i, tr := range ts {
		if n := seen[tr]; n > 1 || (i >= 2 && n != 1) {
			t.Errorf("p%d was reported %d times; touched: %v", i, n, i < 2)
		}
	}
}

// checkCursorResumes is one case of TestCursorResumesByValue.
func checkCursorResumes(t *testing.T, subjects, size int, view, objectOnly bool) {
	const stride = 1024
	base := New()
	id := func(name string) SymbolID {
		v, err := base.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	typ, big := id("type"), id("big")
	triple := func(name string) IDTriple { return IDTriple{S: id(name), P: typ, O: big} }
	// The written member, and the reader it is scanned through: the store
	// itself, or a view whose base holds a short list of its own under the
	// same (P, O).
	member, want := base, map[IDTriple]bool{}
	var r idReader = base
	if view {
		member = base.NewOverlay()
		btx := base.Begin()
		for i := 0; i < 50; i++ {
			tr := triple(fmt.Sprintf("asserted%d", i))
			want[tr] = true
			if _, err := btx.AddID(tr); err != nil {
				t.Fatal(err)
			}
		}
		v, err := NewView(base, member)
		if err != nil {
			t.Fatal(err)
		}
		r = v
	}
	// Ids ascend with i; three names are held back to be inserted.
	spare := map[int]bool{200: true, 400: true, 4500: true}
	tx := member.Begin()
	for i := 0; i < subjects+len(spare); i++ {
		tr := triple(fmt.Sprintf("inst%d", i))
		if spare[i] {
			continue
		}
		want[tr] = true
		if _, err := tx.AddID(tr); err != nil {
			t.Fatal(err)
		}
	}
	first, low1, low2, high := id("inst0"), triple("inst200"), triple("inst400"), triple("inst4500")
	want[high] = true

	pt := r.Scan(IDPattern{P: typ, O: big, BoundP: !objectOnly, BoundO: true})
	buf := make([]IDTriple, size)
	seen := map[IDTriple]int{}
	var emitted []IDTriple // from the written member, in order
	pull := func(atLeast int) {
		for got := 0; got < atLeast && pt != nil; {
			n, done := pt.NextBatch(buf)
			for _, tr := range buf[:n] {
				seen[tr]++
				if tr.S >= first {
					emitted = append(emitted, tr)
				}
			}
			got += n
			if done {
				pt.Release()
				pt = nil
			}
		}
	}
	write := func(remove, add []IDTriple) {
		t.Helper()
		for _, tr := range remove {
			if !tx.RemoveID(tr) {
				t.Fatalf("RemoveID(%v) missed a present triple", tr)
			}
		}
		for _, tr := range add {
			if added, err := tx.AddID(tr); err != nil || !added {
				t.Fatalf("AddID(%v) = %v, %v", tr, added, err)
			}
		}
		checkRuns(t, "written member", member)
	}

	pull(stride)
	if last := emitted[len(emitted)-1]; len(emitted) < 500 || low2.S >= last.S || high.S <= last.S {
		t.Fatalf("after %d triples the cursor stands at %v; the fixture wants it between %v and %v", len(emitted), last, low2, high)
	}
	write(emitted[:1], []IDTriple{low1, high})
	pull(stride)
	write(emitted[1:2], nil)
	pull(stride)
	write(nil, []IDTriple{low2})
	pull(subjects)

	if pt != nil {
		t.Fatal("the cursor was left undrained")
	}
	for tr := range want {
		if seen[tr] != 1 {
			t.Errorf("%v, present throughout or inserted above the cursor, was reported %d times", tr, seen[tr])
		}
	}
	for tr, n := range seen {
		if n > 1 || (!want[tr] && tr != low1 && tr != low2) {
			t.Errorf("%v was reported %d times", tr, n)
		}
	}
}
