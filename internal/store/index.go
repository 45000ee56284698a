package store

import (
	"slices"
	"unsafe"
)

// The engine keeps two permutation indexes, SPO and POS, one of each per
// store, both guarded by the store's one RWMutex. There is no object-led
// index: the one pattern shape it would serve, object-only (? ? o), is
// computed from POS — the subjects of o are already filed under every
// predicate that has o as an object — at O(predicates) finds plus the
// matches, where a stored (object, subject) level would cost 40 bytes per
// pair on data whose objects are classes with thousands of instances.
//
// An index files its leads by id, not by hash, in pages allocated as leads
// arrive in their window of ids. Dictionary ids are dense and nearly every one
// is a subject, so a lead costs its 16-byte entry, where a map paid as much
// again for its slot; and an index's leads are walked in ascending id order,
// which is what lets an unbound cursor resume among them by value.
//
// Below the lead the two inner levels are plain arrays rather than nested
// maps: a lead's (middle, chunk) pairs are one array kept ascending by middle
// component — held in the lead's own entry while there are at most two, which
// is most subjects (an instance's type and location), so such a lead costs
// its entry and nothing else — and each trailing set is strictly ascending
// runs of uint32 —
// both searched, never hashed, whatever their size, so nothing sits beside
// them. A set of one member, which is most of them (an instance's location,
// each of its single-valued attributes), holds that member inside its 8-byte
// pair and has no run at all; a set of up to chunkLen members is one pair and
// one run, which the pair names by its slot in the index's run table, so no
// pair holds a pointer and the collector never scans a pair array; a longer
// one — a class's instances under POS (type, class), a site's or a region's
// members — is consecutive pairs of the same mid, one chunk of at most
// chunkLen members each, ascending, so the lead's pairs are the set's chunk
// directory. Real triple data is extremely skewed — most (subject,
// predicate) pairs have a handful of objects while a few (predicate, object)
// pairs have thousands of subjects — so almost all inserts touch only small
// arrays, which cost a fraction of a map insert, and the few long sets cost
// four bytes a member, a fifth of what any hashed form of them would. A long
// set grows by a chunk at a time and never copies the members it has: a
// write into its middle moves at most one chunk, and a full chunk splits in
// two. Every walk of a set goes chunk by chunk, in order, so enumeration
// order is the same as one run's.
//
// A batch is filed grouped (insertAll, the twin of removeAll): its keys
// sorted by (lead, mid, member, position), each lead it touches grows its
// pair array once by the pairs of its new sets, a new set is one run of
// exactly its members (a long one gets a bulk load's room), and a set of one
// chunk takes all its newcomers in one merge, so a write that brings an
// instance and its derived types grows each set and pair array once, where
// filing member by member regrew them at each doubling. A batch is filed at
// most a chunk's worth of keys at a time, so a new set is one chunk. A set of
// several chunks still takes its members one at a time, each into its chunk,
// which it finds by a search over its chunks' least members, read through
// the run table.

// linearRun is the window at which searchRun stops halving and walks: a few
// adjacent compares beat the mispredicted branches of the last halvings, and
// most runs (every SPO set of a typical corpus) are no longer to begin with.
const linearRun = 8

// searchRun returns c's place in the ascending run — the position of the
// first member not below it, len(elems) when every member is — and whether c
// is there: slices.BinarySearch's contract at half its cost per probe (2 ns
// against 5 on a one-member run, 17 against 32 on 10³), which the membership
// probe of every join pays.
func searchRun(elems []uint32, c uint32) (int, bool) {
	lo, hi := 0, len(elems)
	for hi-lo > linearRun {
		m := int(uint(lo+hi) >> 1)
		if elems[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for lo < hi && elems[lo] < c {
		lo++
	}
	return lo, lo < len(elems) && elems[lo] == c
}

// chunkLen is the most members one run holds: 4 KiB of uint32, one of the
// allocator's size classes. A trailing set past it is a sequence of runs, its
// chunks, so growing a long set allocates one chunk and never copies the
// members it already has, and a write into its middle moves at most one
// chunk.
const chunkLen = 1024

// runTag marks a pair's v as the slot of its chunk's run in the run table
// rather than the chunk's one member. Every id is below it (maxNames).
const runTag = 1 << 31

// midTrail couples one middle component with one chunk of its trailing set,
// which is never empty, in 8 bytes and no pointer. While v is untagged the
// chunk is its one member, v, and costs nothing beside the pair; once it has
// held two members v is runTag and the slot of its strictly ascending run in
// the index's run table — enumeration a contiguous array walk, which is what
// the batched scan and probe paths stream from, membership, insertion and
// removal a search — and it stays a run, down to one member, for as long as
// the pair exists, so removing and re-adding a member never allocates. The
// price of a run is the copy: a write into its middle slides the members
// above it, at most a chunk's worth (BenchmarkHubChurn has the figures). Ids
// are minted in ascending order, so the common write — a fresh subject filed
// under its class — lands at the end and moves nothing.
type midTrail struct {
	mid uint32
	v   uint32
}

// elems returns the chunk's members, ascending, its run read from runs, the
// index's run table. The slice aliases the index and is valid until the next
// mutation of the pair's lead.
func (mt *midTrail) elems(runs [][]uint32) []uint32 {
	if mt.v&runTag != 0 {
		return runs[mt.v&^runTag]
	}
	return unsafe.Slice(&mt.v, 1)
}

// first returns the chunk's least member.
func (mt *midTrail) first(runs [][]uint32) uint32 {
	if mt.v&runTag != 0 {
		return runs[mt.v&^runTag][0]
	}
	return mt.v
}

// slotTable holds values by slot for the index words that name them, so
// that no pair or lead holds a pointer: a run by its pair (midTrail), a pair
// array by its lead (leadEntry). A dropped value's slot goes on free and the
// next value filed takes it, so the table is as long as the most values it
// has held at once, and churn that drops one and files another grows
// nothing.
type slotTable[T any] struct {
	at   []T
	free []uint32
}

// file gives x a slot, a free one first, and returns it.
func (t *slotTable[T]) file(x T) uint32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.at[slot] = x
		return slot
	}
	t.at = append(t.at, x)
	return uint32(len(t.at) - 1)
}

// drop frees slot, letting go of what it held.
func (t *slotTable[T]) drop(slot uint32) {
	var none T
	t.at[slot] = none
	t.free = append(t.free, slot)
}

// tables is an index's out-of-line storage: the runs its pairs name, a
// slice header a slot, and the pair arrays its leads of more than two pairs
// name, a pointer to the first pair a slot — the lead keeps the number and
// the capacity (leadEntry). A pair's members, or a long lead's pairs, are
// two loads away, the slot and the array.
type tables struct {
	runs   slotTable[[]uint32]
	arrays slotTable[*midTrail]
}

// fileRun gives run a slot and returns the pair's word naming it.
func (rt *tables) fileRun(run []uint32) uint32 {
	return runTag | rt.runs.file(run)
}

// dropRun frees the slot of the pair whose word is v, when v names one, as
// the pair goes.
func (rt *tables) dropRun(v uint32) {
	if v&runTag != 0 {
		rt.runs.drop(v &^ runTag)
	}
}

// put files c at position k of a chunk of fewer than chunkLen members. A
// second member turns the inline one into a run of two slots: a set's first
// member costs no allocation and its second one, where a plain slice pays
// one for the first. A full run regrows by roomFor.
func (mt *midTrail) put(rt *tables, k int, c uint32) {
	var run []uint32
	if mt.v&runTag == 0 {
		run = append(make([]uint32, 0, 2), mt.v)
	} else {
		run = roomFor(rt.runs.at[mt.v&^runTag], 1)
	}
	run = run[:len(run)+1]
	copy(run[k+1:], run[k:])
	run[k] = c
	mt.keep(rt, run)
}

// merge files the members keys name — ascending, absent from the chunk, at
// least two, and at most chunkLen with the chunk's own — into the chunk,
// regrowing its run at most once: an inline member and its newcomers get a
// run of exactly their number, a run is regrown by roomFor. The merge runs
// from the top down, so it needs no second buffer.
func (mt *midTrail) merge(rt *tables, keys [][4]uint32) {
	var run []uint32
	if mt.v&runTag == 0 {
		run = append(make([]uint32, 0, 1+len(keys)), mt.v)
	} else {
		run = roomFor(rt.runs.at[mt.v&^runTag], len(keys))
	}
	i, j := len(run)-1, len(keys)-1
	run = run[:len(run)+len(keys)]
	for w := len(run) - 1; j >= 0; w-- {
		if i >= 0 && run[i] > keys[j][2] {
			run[w] = run[i]
			i--
		} else {
			run[w] = keys[j][2]
			j--
		}
	}
	mt.keep(rt, run)
}

// keep makes run the pair's chunk: filed in a slot of its own when the pair
// held its member inline, else in place of the run in the pair's slot.
func (mt *midTrail) keep(rt *tables, run []uint32) {
	if mt.v&runTag == 0 {
		mt.v = rt.fileRun(run)
		return
	}
	rt.runs.at[mt.v&^runTag] = run
}

// roomFor returns run with room for a more members, a chunk's worth at most
// in all: run itself when it has the room, else regrown as an append would —
// doubling below 256 members, then by a quarter and 192, up to the
// allocator's size class — unless that would pass chunkLen: then to chunkLen.
func roomFor(run []uint32, a int) []uint32 {
	n, c := len(run), cap(run)
	if n+a <= c {
		return run
	}
	if n+a > 2*c || c < 256 || n+a <= c+(c+768)/4 && c+(c+768)/4 <= chunkLen {
		return slices.Grow(run, a)
	}
	return append(make([]uint32, 0, chunkLen), run...)
}

// newChunk returns a pair for mid whose run is a chunk of its own, with room
// for chunkLen members, holding members.
func (rt *tables) newChunk(mid uint32, members ...uint32) midTrail {
	run := make([]uint32, len(members), chunkLen)
	copy(run, members)
	return midTrail{mid: mid, v: rt.fileRun(run)}
}

// keyChunk returns a pair for mid whose chunk holds the members keys name —
// ascending, distinct and at most chunkLen — as insertAll files a new set:
// one member inline, up to arenaRunMax a run of exactly their number, more
// with buildSorted's room, an eighth more, so the first writes into a class a
// large batch filed do not regrow it.
func (rt *tables) keyChunk(mid uint32, keys [][4]uint32) midTrail {
	n := len(keys)
	if n == 1 {
		return midTrail{mid: mid, v: keys[0][2]}
	}
	room := n
	if n > arenaRunMax {
		room = chunkRoom(n)
	}
	run := make([]uint32, n, room)
	for q := range keys {
		run[q] = keys[q][2]
	}
	return midTrail{mid: mid, v: rt.fileRun(run)}
}

// trailSet is a run of whole sets of one lead — the consecutive pairs of
// their mids, one chunk each, ascending by mid and, within a mid's set, the
// chunks disjoint and ascending — with the tables of its index: one
// trailing set, or all of a lead's (leadEntry.all). A set of up to chunkLen
// members is one pair; a set that is not there has no pairs. The tables are
// held by pointer, which keeps a set at four words: the compiler keeps a
// value of that size in registers, where a larger one goes through the
// stack at every call and return (with the run table's slice header in the
// set, a membership probe took about twice as long). The pairs alias the
// index and are valid until the next mutation of their lead.
type trailSet struct {
	pairs []midTrail
	rt    *tables
}

// elems returns the members of chunk k.
func (ts trailSet) elems(k int) []uint32 {
	return ts.pairs[k].elems(ts.rt.runs.at)
}

func (ts trailSet) len() int {
	n := 0
	for i := range ts.pairs {
		n += len(ts.elems(i))
	}
	return n
}

// chunkOf returns the chunk c belongs in among a set's pairs, whose runs
// are in runs: the last one whose first member is not above c, else the
// first.
func chunkOf(pairs []midTrail, runs [][]uint32, c uint32) int {
	lo, hi := 1, len(pairs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pairs[m].first(runs) <= c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func (ts trailSet) contains(c uint32) bool {
	if len(ts.pairs) == 0 {
		return false
	}
	_, found := searchRun(ts.elems(chunkOf(ts.pairs, ts.rt.runs.at, c)), c)
	return found
}

// seek returns the place of the first member above c: its chunk and its
// place there, which is the chunk's length when the member opens the next
// chunk or there is none.
func (ts trailSet) seek(c uint32) (chunk, pos int) {
	chunk = chunkOf(ts.pairs, ts.rt.runs.at, c)
	pos, found := searchRun(ts.elems(chunk), c)
	if found {
		pos++
	}
	return chunk, pos
}

// search returns the place of mid's first pair among the pairs and whether
// it is there: searchRun over the pairs' middle components.
func (ts trailSet) search(mid uint32) (int, bool) {
	ps := ts.pairs
	lo, hi := 0, len(ps)
	for hi-lo > linearRun {
		m := int(uint(lo+hi) >> 1)
		if ps[m].mid < mid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for lo < hi && ps[lo].mid < mid {
		lo++
	}
	return lo, lo < len(ps) && ps[lo].mid == mid
}

// setEnd returns the end of the set whose first pair is i.
func (ts trailSet) setEnd(i int) int {
	ps := ts.pairs
	mid := ps[i].mid
	lo, hi := i+1, len(ps)
	if lo == hi || ps[lo].mid != mid {
		return lo
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ps[m].mid == mid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// span returns the pairs i to end: one set's pairs, or any run of whole
// sets.
func (ts trailSet) span(i, end int) trailSet {
	return trailSet{ts.pairs[i:end], ts.rt}
}

// set returns mid's set, with no pairs when there is none.
func (ts trailSet) set(mid uint32) trailSet {
	i, found := ts.search(mid)
	if !found {
		return trailSet{}
	}
	return ts.span(i, ts.setEnd(i))
}

// sets returns how many sets the pairs hold: their number, less the chunks
// that continue a set.
func (ts trailSet) sets() int {
	n := 0
	for i := 0; i < len(ts.pairs); i = ts.setEnd(i) {
		n++
	}
	return n
}

// leadEntry is everything indexed under one leading component: its (middle,
// chunk) pairs, ascending by middle component and, within one middle
// component's set, by first member, in 16 bytes and no pointer, so the
// collector never scans a lead page. A lead of one or two pairs — most of
// them: an instance's type and location — holds its pairs in place and
// costs nothing beside its entry; a longer one holds the slot of its pair
// array in its index's tables. The second half of the entry tells which:
//
//   - {0, 0}: no pairs; the zero value is an empty slot of its index. No
//     second pair is {0, 0}: its mid is not below the first pair's, so a mid
//     of 0 makes it a later chunk of the first pair's set, which is a run,
//     and a pair naming a run has a tagged v.
//   - {leadOne, 0}: one pair, in the first half.
//   - {leadOut, slot}: the pairs are the array slot of the index's arrays
//     points to; the first half holds their number and the array's
//     capacity, as its mid and v.
//   - any other: two pairs, in place.
//
// Ids are below runTag, so no mid reads as leadOne or leadOut. The writes
// (insertAll, insert and removeAll) create and drop the pairs, so no pair is
// ever empty; setPairs moves a lead out of line at its third pair and back
// in place when two or fewer are left.
type leadEntry struct {
	in [2]midTrail
}

// The second-half mids that mark a lead's form (leadEntry).
const (
	leadOne = runTag
	leadOut = runTag | 1
)

// empty reports whether the entry holds no pairs.
func (e *leadEntry) empty() bool {
	return e.in[1] == midTrail{}
}

// pairs returns the entry's pairs, with the capacity of their array, for a
// write that regrows or shortens them and then sets them (setPairs): the
// entry's own two slots while it holds its pairs in place, so an append past
// two moves them to an array of their own. The slice aliases the entry or
// rt and is valid until the next mutation of the entry; pages never move.
func (e *leadEntry) pairs(rt *tables) []midTrail {
	switch e.in[1].mid {
	case leadOut:
		return unsafe.Slice(rt.arrays.at[e.in[1].v], e.in[0].v)[:e.in[0].mid]
	case leadOne:
		return e.in[:1]
	}
	if e.empty() {
		return e.in[:0]
	}
	return e.in[:]
}

// all returns the entry's pairs as a run of whole sets, for reading.
func (e *leadEntry) all(rt *tables) trailSet {
	return trailSet{e.pairs(rt), rt}
}

// setPairs makes ps the entry's pairs: in place when there are at most two
// and the entry holds no array (hold), else through setArray.
func (e *leadEntry) setPairs(rt *tables, ps []midTrail) {
	if len(ps) > 2 || e.in[1].mid == leadOut {
		e.setArray(rt, ps)
		return
	}
	e.hold(ps)
}

// hold keeps ps, at most two pairs, in place; ps may be the entry's own
// slots.
func (e *leadEntry) hold(ps []midTrail) {
	switch len(ps) {
	case 0:
		e.in = [2]midTrail{}
	case 1:
		e.in = [2]midTrail{ps[0], {mid: leadOne}}
	default:
		e.in = [2]midTrail{ps[0], ps[1]}
	}
}

// setArray is setPairs for an entry that holds an array or whose pairs
// outgrow its two slots: more than two pairs go in an array slot, the
// entry's own when it has one; two or fewer go back in place, and the
// entry's slot is freed.
func (e *leadEntry) setArray(rt *tables, ps []midTrail) {
	slot := e.in[1].v
	switch {
	case len(ps) <= 2:
		rt.arrays.drop(slot)
		e.hold(ps)
		return
	case e.in[1].mid == leadOut:
		rt.arrays.at[slot] = unsafe.SliceData(ps)
	default:
		slot = rt.arrays.file(unsafe.SliceData(ps))
	}
	e.in = [2]midTrail{{mid: uint32(len(ps)), v: uint32(cap(ps))}, {mid: leadOut, v: slot}}
}

// locate returns the pair that holds or would hold c among mid's, and
// whether mid has a set; when it has none, i is where its first pair goes.
// end is the end of the set.
func (e *leadEntry) locate(rt *tables, mid, c uint32) (i, end int, found bool) {
	all := e.all(rt)
	i, found = all.search(mid)
	if !found {
		return i, i, false
	}
	end = all.setEnd(i)
	return i + chunkOf(all.pairs[i:end], rt.runs.at, c), end, true
}

// insert files c under mid, reporting whether it was absent. A mid seen for
// the first time takes its place among the pairs with c inline; otherwise c
// goes into the chunk locate names (insertAt).
func (e *leadEntry) insert(rt *tables, mid, c uint32) bool {
	i, end, found := e.locate(rt, mid, c)
	if !found {
		e.insertPair(rt, i, midTrail{mid: mid, v: c})
		return true
	}
	return e.insertAt(rt, mid, c, i, end)
}

// insertAt files c in mid's set, which ends at end, reporting whether it was
// absent; i is the chunk c belongs in (chunkOf). When that one is full
// c goes at the front of the next chunk of the set if that has room, into a
// chunk of its own past either end of the set — which is where ascending and
// descending writes land — and otherwise the full chunk splits in two.
func (e *leadEntry) insertAt(rt *tables, mid, c uint32, i, end int) bool {
	ps := e.pairs(rt)
	mt := &ps[i]
	elems := mt.elems(rt.runs.at)
	k, found := searchRun(elems, c)
	if found {
		return false
	}
	switch {
	case len(elems) < chunkLen:
		mt.put(rt, k, c)
	case k == len(elems) && i+1 < end && len(ps[i+1].elems(rt.runs.at)) < chunkLen:
		ps[i+1].put(rt, 0, c)
	case k == len(elems) && i+1 == end:
		e.insertPair(rt, i+1, rt.newChunk(mid, c))
	case k == 0: // c is below every member only in the set's first chunk
		e.insertPair(rt, i, rt.newChunk(mid, c))
	default:
		const half = chunkLen / 2
		upper := rt.newChunk(mid, elems[half:]...)
		rt.runs.at[mt.v&^runTag] = elems[:half]
		if k <= half {
			mt.put(rt, k, c)
		} else {
			upper.put(rt, k-half, c)
		}
		e.insertPair(rt, i+1, upper)
	}
	return true
}

// insertPair files p at place i among the pairs, the pairs above it sliding
// up one.
func (e *leadEntry) insertPair(rt *tables, i int, p midTrail) {
	ps := append(e.pairs(rt), midTrail{})
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	e.setPairs(rt, ps)
}

// removeAll drops from mid's set every member that one of keys names —
// keys share this entry's lead and mid and ascend by member — appending the
// keys of the members it dropped to out, which may be keys' own front. It
// walks the chunks from the one of the first member named to the one of the
// last, and in each moves the members kept between two dropped ones down
// with one copy, so a batch costs those chunks' length, not that length per
// member; a chunk emptied drops its pair and frees its run's slot, and a
// lead emptied is left without pairs.
func (e *leadEntry) removeAll(rt *tables, mid uint32, keys, out [][4]uint32) [][4]uint32 {
	i, end, found := e.locate(rt, mid, keys[0][2])
	if !found {
		return out
	}
	ps := e.pairs(rt)
	kept, k := i, 0
	for ; i < end && k < len(keys); i++ {
		mt := &ps[i]
		elems := mt.elems(rt.runs.at)
		// elems[:w] is kept and elems[r:] not yet read; the members between
		// are dropped ones.
		w, r := 0, 0
		for ; k < len(keys); k++ {
			q, hit := searchRun(elems[r:], keys[k][2])
			if !hit && r+q == len(elems) {
				break // keys[k] is past this chunk
			}
			if w < r {
				copy(elems[w:], elems[r:r+q])
			}
			w, r = w+q, r+q
			if hit {
				out = append(out, keys[k])
				r++
			}
		}
		if w < r {
			copy(elems[w:], elems[r:])
		}
		w += len(elems) - r
		if w == 0 {
			rt.dropRun(mt.v)
			continue
		}
		if mt.v&runTag != 0 {
			rt.runs.at[mt.v&^runTag] = elems[:w]
		}
		ps[kept] = *mt
		kept++
	}
	if kept < i {
		n := copy(ps[kept:], ps[i:])
		e.setPairs(rt, ps[:kept+n])
	}
	return out
}

// insertAll files the members keys name under this entry — keys share its
// lead and ascend by (mid, member, position), a member may repeat, and there
// are at most chunkLen of them — and appends to out, which may be keys' own
// front, the key of each member that was absent, at its first occurrence. A
// set it touches grows once: one of a single chunk takes its newcomers in one
// merge while they fit the chunk, a new set is one chunk (keyChunk), and the
// pairs grow once by the new sets' pairs, which are merged in from the top
// down — in place while the lead's two slots hold them. A set of several
// chunks, one its newcomers would carry past chunkLen, and any set taking a
// single newcomer take them one at a time through insertAt, which keeps a
// long set's chunks in shape; the set's place, found once, is passed on, not
// searched again.
func (e *leadEntry) insertAll(rt *tables, keys, out [][4]uint32) [][4]uint32 {
	base, pairs := len(out), 0
	for m, n := 0, 0; m < len(keys); m = n {
		n = groupEnd(keys, m, 1)
		mid, lo := keys[m][1], len(out)
		for _, k := range keys[m:n] {
			if len(out) == lo || out[len(out)-1][2] != k[2] {
				out = append(out, k)
			}
		}
		all := e.all(rt)
		i, found := all.search(mid)
		if !found {
			pairs++
			continue
		}
		w, end := lo, all.setEnd(i)
		if end == i+1 && len(out)-lo > 1 {
			mt := &all.pairs[i]
			elems, p := mt.elems(rt.runs.at), 0
			for _, k := range out[lo:] {
				q, found := searchRun(elems[p:], k[2])
				if p += q; !found {
					out[w] = k
					w++
				}
			}
			if a := w - lo; a > 1 && len(elems)+a <= chunkLen {
				mt.merge(rt, out[lo:w])
				out = out[:w]
				continue
			}
			out, w = out[:w], lo
		}
		for _, k := range out[lo:] {
			ps := e.pairs(rt)
			had := len(ps)
			if e.insertAt(rt, mid, k[2], i+chunkOf(ps[i:end], rt.runs.at, k[2]), end) {
				out[w] = k
				w++
			}
			end += len(e.pairs(rt)) - had
		}
		out = out[:w]
	}
	if pairs == 0 {
		return out
	}
	// Merge the new sets' pairs in from the top: j walks the pairs there
	// were, w the slots, b the new keys down by mid.
	ps := e.pairs(rt)
	j := len(ps)
	ps = slices.Grow(ps, pairs)[:j+pairs]
	w := len(ps)
	for b := len(out); b > base; {
		a, mid := b-1, out[b-1][1]
		for a > base && out[a-1][1] == mid {
			a--
		}
		for j > 0 && ps[j-1].mid > mid {
			j--
			w--
			ps[w] = ps[j]
		}
		if j == 0 || ps[j-1].mid != mid {
			w--
			ps[w] = rt.keyChunk(mid, out[a:b])
		}
		b = a
	}
	e.setPairs(rt, ps)
	return out
}

// The lead directory is two levels deep: a page files the leads of
// 1<<leadPageBits consecutive ids, and a chunk holds the pointers to the
// 1<<leadChunkBits pages of a window of 8 192 ids. leadPageMask picks a lead's
// slot in its page, leadChunkMask its page in its chunk, and leadChunkShift
// its chunk.
const (
	leadPageBits   = 7
	leadPageMask   = 1<<leadPageBits - 1
	leadChunkBits  = 6
	leadChunkMask  = 1<<leadChunkBits - 1
	leadChunkShift = leadPageBits + leadChunkBits
)

// leadPage is one page of an index's lead directory: 128 entries of 16 bytes,
// 2 048 bytes, which is one of the allocator's size classes, so a page wastes
// nothing, and no pointer, so the collector does not scan it. A slot whose
// entry is empty holds no lead.
type leadPage [1 << leadPageBits]leadEntry

// leadChunk is one chunk of the directory: 64 page pointers, 512 bytes,
// allocated on the first lead of its window. A flat page table would cost 8
// bytes per 128 ids up to the highest lead, which a lone late predicate
// pays for every id below it; the chunks keep that to 8 bytes per 8 192 ids.
type leadChunk [1 << leadChunkBits]*leadPage

// index is one permutation index: a directory of lead pages addressed by the
// lead's id, and the tables its pairs name their runs in and its long leads
// their pair arrays. Pages never move, so a *leadEntry, and the pairs a lead
// holds in place, stay valid while the directory grows. leads counts the
// occupied slots, kept by every path that files or prunes, so reading it
// never walks the index. The owning store's mu guards every field and
// everything below it.
type index struct {
	chunks []*leadChunk
	leads  int
	tables
}

// find returns lead's entry, or nil when the index holds no lead with that
// id.
func (ix *index) find(lead uint32) *leadEntry {
	if c := int(lead >> leadChunkShift); c < len(ix.chunks) && ix.chunks[c] != nil {
		if pg := ix.chunks[c][lead>>leadPageBits&leadChunkMask]; pg != nil {
			if e := &pg[lead&leadPageMask]; !e.empty() {
				return e
			}
		}
	}
	return nil
}

// lead returns lead's pairs as a run of whole sets, with no pairs when the
// index holds no lead with that id.
func (ix *index) lead(lead uint32) trailSet {
	if e := ix.find(lead); e != nil {
		return e.all(&ix.tables)
	}
	return trailSet{}
}

// slot returns lead's entry, empty when the lead is not filed, allocating its
// chunk and page (and growing the chunk table to reach them) on the first
// lead of their window.
func (ix *index) slot(lead uint32) *leadEntry {
	c := int(lead >> leadChunkShift)
	if c >= len(ix.chunks) {
		ix.chunks = append(ix.chunks, make([]*leadChunk, c+1-len(ix.chunks))...)
	}
	ch := ix.chunks[c]
	if ch == nil {
		ch = new(leadChunk)
		ix.chunks[c] = ch
	}
	pg := &ch[lead>>leadPageBits&leadChunkMask]
	if *pg == nil {
		*pg = new(leadPage)
	}
	return &(*pg)[lead&leadPageMask]
}

// ascend calls yield with the pairs of every lead of the index not below
// from, in ascending id order, and reports whether it reached the end —
// false when yield stopped it. This is the index's one enumeration of its
// leads; yield must not file or prune.
func (ix *index) ascend(from uint32, yield func(lead uint32, ts trailSet) bool) bool {
	for id := uint64(from); id>>leadChunkShift < uint64(len(ix.chunks)); {
		ch := ix.chunks[id>>leadChunkShift]
		if ch == nil {
			id = (id>>leadChunkShift + 1) << leadChunkShift
			continue
		}
		if pg := ch[id>>leadPageBits&leadChunkMask]; pg != nil {
			for k := id & leadPageMask; k < uint64(len(pg)); k++ {
				if e := &pg[k]; !e.empty() && !yield(uint32(id&^leadPageMask|k), e.all(&ix.tables)) {
					return false
				}
			}
		}
		id = (id>>leadPageBits + 1) << leadPageBits
	}
	return true
}

// set returns mid's set under lead, with no pairs when there is none.
func (ix *index) set(lead, mid uint32) trailSet {
	if e := ix.find(lead); e != nil {
		return e.all(&ix.tables).set(mid)
	}
	return trailSet{}
}

// insert adds (a, b, c), reporting whether it was absent.
func (ix *index) insert(a, b, c uint32) bool {
	e := ix.slot(a)
	fresh := e.empty()
	if !e.insert(&ix.tables, b, c) {
		return false
	}
	if fresh {
		ix.leads++
	}
	return true
}

// contains reports whether (a, b, c) is present.
func (ix *index) contains(a, b, c uint32) bool {
	return ix.set(a, b).contains(c)
}

// removeAll deletes the triples keys name — (lead, mid, member, position)
// in this index's order, ascending — and returns the keys of those that were
// present, compacted to keys' front. Each set is compacted once for all of
// its members, and a lead whose last pair goes is left empty, its pair array,
// if it had one, freed with its slot.
func (ix *index) removeAll(keys [][4]uint32) [][4]uint32 {
	out := keys[:0]
	for i, j := 0, 0; i < len(keys); i = j {
		j = groupEnd(keys, i, 0)
		e := ix.find(keys[i][0])
		if e == nil {
			continue
		}
		for m, n := i, i; m < j && !e.empty(); m = n {
			n = groupEnd(keys[:j], m, 1)
			out = e.removeAll(&ix.tables, keys[m][1], keys[m:n], out)
		}
		if e.empty() {
			ix.leads--
		}
	}
	return out
}

// insertAll files the triples keys name — (lead, mid, member, position) in
// this index's order, ascending, at most maxBatchKeys of them (one window of
// Tx.insertBatch) — and returns the keys of those that were
// absent, compacted to keys' front: each one's first occurrence, so the
// least position. Every lead and set is grown once for all of its new
// members (leadEntry.insertAll).
func (ix *index) insertAll(keys [][4]uint32) [][4]uint32 {
	out := keys[:0]
	for i, j := 0, 0; i < len(keys); i = j {
		j = groupEnd(keys, i, 0)
		e := ix.slot(keys[i][0])
		if e.empty() {
			ix.leads++
		}
		out = e.insertAll(&ix.tables, keys[i:j], out)
	}
	return out
}

// groupEnd returns the end of the group of keys from i on that agree with
// keys[i] in component c.
func groupEnd(keys [][4]uint32, i, c int) int {
	j := i + 1
	for j < len(keys) && keys[j][c] == keys[i][c] {
		j++
	}
	return j
}
