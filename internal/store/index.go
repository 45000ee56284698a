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
// component, and each trailing set is strictly ascending runs of uint32 —
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

// runTable is an index's runs, by slot: a pair whose chunk is a run names
// its slot (midTrail), and the slot holds the run's slice header, so a
// pair's members are two loads away, the slot and the run. A dropped pair's
// slot goes on free and the next run filed takes it, so the table is as
// long as the most runs the index has held at once, and churn that drops a
// run and files another grows nothing.
type runTable struct {
	runs [][]uint32
	free []uint32
}

// file gives run a slot, a free one first, and returns the pair's word
// naming it.
func (rt *runTable) file(run []uint32) uint32 {
	if n := len(rt.free); n > 0 {
		slot := rt.free[n-1]
		rt.free = rt.free[:n-1]
		rt.runs[slot] = run
		return runTag | slot
	}
	rt.runs = append(rt.runs, run)
	return runTag | uint32(len(rt.runs)-1)
}

// drop frees the slot of the pair whose word is v, when v names one, as the
// pair goes.
func (rt *runTable) drop(v uint32) {
	if v&runTag != 0 {
		rt.runs[v&^runTag] = nil
		rt.free = append(rt.free, v&^runTag)
	}
}

// put files c at position k of a chunk of fewer than chunkLen members. A
// second member turns the inline one into a run of two slots: a set's first
// member costs no allocation and its second one, where a plain slice pays
// one for the first. A full run regrows by roomFor.
func (mt *midTrail) put(rt *runTable, k int, c uint32) {
	var run []uint32
	if mt.v&runTag == 0 {
		run = append(make([]uint32, 0, 2), mt.v)
	} else {
		run = roomFor(rt.runs[mt.v&^runTag], 1)
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
func (mt *midTrail) merge(rt *runTable, keys [][4]uint32) {
	var run []uint32
	if mt.v&runTag == 0 {
		run = append(make([]uint32, 0, 1+len(keys)), mt.v)
	} else {
		run = roomFor(rt.runs[mt.v&^runTag], len(keys))
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
func (mt *midTrail) keep(rt *runTable, run []uint32) {
	if mt.v&runTag == 0 {
		mt.v = rt.file(run)
		return
	}
	rt.runs[mt.v&^runTag] = run
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
func (rt *runTable) newChunk(mid uint32, members ...uint32) midTrail {
	run := make([]uint32, len(members), chunkLen)
	copy(run, members)
	return midTrail{mid: mid, v: rt.file(run)}
}

// keyChunk returns a pair for mid whose chunk holds the members keys name —
// ascending, distinct and at most chunkLen — as insertAll files a new set:
// one member inline, up to arenaRunMax a run of exactly their number, more
// with buildSorted's room, an eighth more, so the first writes into a class a
// large batch filed do not regrow it.
func (rt *runTable) keyChunk(mid uint32, keys [][4]uint32) midTrail {
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
	return midTrail{mid: mid, v: rt.file(run)}
}

// trailSet is one trailing set as its lead holds it — the consecutive pairs
// of its mid, one chunk each, the chunks disjoint and ascending — with the
// run table of its index. A set of up to chunkLen members is one pair; a
// set that is not there has no pairs. The table is held by pointer, which
// keeps a set at four words: the compiler keeps a value of that size in
// registers, where a larger one goes through the stack at every call and
// return (with the table's slice header in the set, a membership probe took
// about twice as long).
type trailSet struct {
	pairs []midTrail
	rt    *runTable
}

// elems returns the members of chunk k.
func (ts trailSet) elems(k int) []uint32 {
	return ts.pairs[k].elems(ts.rt.runs)
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
	_, found := searchRun(ts.elems(chunkOf(ts.pairs, ts.rt.runs, c)), c)
	return found
}

// seek returns the place of the first member above c: its chunk and its
// position there, which is the chunk's length when the member opens the next
// chunk or there is none.
func (ts trailSet) seek(c uint32) (chunk, pos int) {
	chunk = chunkOf(ts.pairs, ts.rt.runs, c)
	pos, found := searchRun(ts.elems(chunk), c)
	if found {
		pos++
	}
	return chunk, pos
}

// leadEntry is everything indexed under one leading component: its (middle,
// chunk) pairs, ascending by middle component and, within one middle
// component's set, by first member, as a pointer to the first pair, their
// number and the array's capacity — 16 bytes, where a slice header is 24.
// The writes (insertAll, insert and removeAll) create and drop the pairs, so
// no pair is ever empty, and an entry without pairs is an empty slot of its
// index.
type leadEntry struct {
	p    *midTrail
	n, c uint32
}

// pairs returns the entry's pairs, for reading. The slice aliases the entry
// and is valid until the next mutation of it.
func (e *leadEntry) pairs() []midTrail {
	return unsafe.Slice(e.p, e.n)
}

// array returns the entry's pairs with the capacity of their array, for a
// write that regrows or shortens them and then sets them (setPairs).
func (e *leadEntry) array() []midTrail {
	return unsafe.Slice(e.p, e.c)[:e.n]
}

// setPairs makes ps the entry's pairs.
func (e *leadEntry) setPairs(ps []midTrail) {
	e.p, e.n, e.c = unsafe.SliceData(ps), uint32(len(ps)), uint32(cap(ps))
}

// search returns the place of mid's first pair among the pairs and whether
// it is there: searchRun over the pairs' middle components. It spells out
// pairs, which keeps it within the inliner's budget.
func (e *leadEntry) search(mid uint32) (int, bool) {
	ps := unsafe.Slice(e.p, e.n)
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
func (e *leadEntry) setEnd(i int) int {
	ps := e.pairs()
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

// span returns the pairs i to end as a set of the index whose run table is
// rt: one set's pairs, or any run of whole sets.
func (e *leadEntry) span(rt *runTable, i, end int) trailSet {
	return trailSet{e.pairs()[i:end], rt}
}

// set returns mid's set, with no pairs when there is none. The slice aliases
// the entry and is valid until the next mutation of it.
func (e *leadEntry) set(rt *runTable, mid uint32) trailSet {
	i, found := e.search(mid)
	if !found {
		return trailSet{}
	}
	return e.span(rt, i, e.setEnd(i))
}

// sets returns how many sets the entry holds: its pairs, less the chunks
// that continue a set.
func (e *leadEntry) sets() int {
	n := 0
	for i := 0; i < int(e.n); i = e.setEnd(i) {
		n++
	}
	return n
}

// locate returns the pair that holds or would hold c among mid's, and
// whether mid has a set; when it has none, i is where its first pair goes.
// end is the end of the set.
func (e *leadEntry) locate(rt *runTable, mid, c uint32) (i, end int, found bool) {
	i, found = e.search(mid)
	if !found {
		return i, i, false
	}
	end = e.setEnd(i)
	return i + chunkOf(e.pairs()[i:end], rt.runs, c), end, true
}

// insert files c under mid, reporting whether it was absent. A mid seen for
// the first time takes its place among the pairs with c inline; otherwise c
// goes into the chunk locate names (insertAt).
func (e *leadEntry) insert(rt *runTable, mid, c uint32) bool {
	i, end, found := e.locate(rt, mid, c)
	if !found {
		e.insertPair(i, midTrail{mid: mid, v: c})
		return true
	}
	return e.insertAt(rt, mid, c, i, end)
}

// insertAt files c in mid's set, which ends at end, reporting whether it was
// absent; i is the chunk c belongs in (chunkOf). When that one is full
// c goes at the front of the next chunk of the set if that has room, into a
// chunk of its own past either end of the set — which is where ascending and
// descending writes land — and otherwise the full chunk splits in two.
func (e *leadEntry) insertAt(rt *runTable, mid, c uint32, i, end int) bool {
	ps := e.pairs()
	mt := &ps[i]
	elems := mt.elems(rt.runs)
	k, found := searchRun(elems, c)
	if found {
		return false
	}
	switch {
	case len(elems) < chunkLen:
		mt.put(rt, k, c)
	case k == len(elems) && i+1 < end && len(ps[i+1].elems(rt.runs)) < chunkLen:
		ps[i+1].put(rt, 0, c)
	case k == len(elems) && i+1 == end:
		e.insertPair(i+1, rt.newChunk(mid, c))
	case k == 0: // c is below every member only in the set's first chunk
		e.insertPair(i, rt.newChunk(mid, c))
	default:
		const half = chunkLen / 2
		upper := rt.newChunk(mid, elems[half:]...)
		rt.runs[mt.v&^runTag] = elems[:half]
		if k <= half {
			mt.put(rt, k, c)
		} else {
			upper.put(rt, k-half, c)
		}
		e.insertPair(i+1, upper)
	}
	return true
}

// insertPair files p at place i among the pairs, the pairs above it sliding
// up one.
func (e *leadEntry) insertPair(i int, p midTrail) {
	ps := append(e.array(), midTrail{})
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	e.setPairs(ps)
}

// removeAll drops from mid's set every member that one of keys names —
// keys share this entry's lead and mid and ascend by member — appending the
// keys of the members it dropped to out, which may be keys' own front. It
// walks the chunks from the one of the first member named to the one of the
// last, and in each moves the members kept between two dropped ones down
// with one copy, so a batch costs those chunks' length, not that length per
// member; a chunk emptied drops its pair and frees its run's slot, and a
// lead emptied is left without pairs.
func (e *leadEntry) removeAll(rt *runTable, mid uint32, keys, out [][4]uint32) [][4]uint32 {
	i, end, found := e.locate(rt, mid, keys[0][2])
	if !found {
		return out
	}
	ps := e.array()
	kept, k := i, 0
	for ; i < end && k < len(keys); i++ {
		mt := &ps[i]
		elems := mt.elems(rt.runs)
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
			rt.drop(mt.v)
			continue
		}
		if mt.v&runTag != 0 {
			rt.runs[mt.v&^runTag] = elems[:w]
		}
		ps[kept] = *mt
		kept++
	}
	if kept < i {
		n := copy(ps[kept:], ps[i:])
		e.setPairs(ps[:kept+n])
	}
	return out
}

// insertAll files the members keys name under this entry — keys share its
// lead and ascend by (mid, member, position), a member may repeat, and there
// are at most chunkLen of them — and appends to out, which may be keys' own
// front, the key of each member that was absent, at its first occurrence. A
// set it touches grows once: one of a single chunk takes its newcomers in one
// merge while they fit the chunk, a new set is one chunk (keyChunk), and the
// pair array grows once by the new sets' pairs, which are merged in from the
// top down. A set of several chunks, one its newcomers would carry past
// chunkLen, and any set taking a single newcomer take them one at a time
// through insertAt, which keeps a long set's chunks in shape; the set's
// place, found once, is passed on, not searched again.
func (e *leadEntry) insertAll(rt *runTable, keys, out [][4]uint32) [][4]uint32 {
	base, pairs := len(out), 0
	for m, n := 0, 0; m < len(keys); m = n {
		n = groupEnd(keys, m, 1)
		mid, lo := keys[m][1], len(out)
		for _, k := range keys[m:n] {
			if len(out) == lo || out[len(out)-1][2] != k[2] {
				out = append(out, k)
			}
		}
		i, found := e.search(mid)
		if !found {
			pairs++
			continue
		}
		w, end := lo, e.setEnd(i)
		if end == i+1 && len(out)-lo > 1 {
			mt := &e.pairs()[i]
			elems, p := mt.elems(rt.runs), 0
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
			had := int(e.n)
			if e.insertAt(rt, mid, k[2], i+chunkOf(e.pairs()[i:end], rt.runs, k[2]), end) {
				out[w] = k
				w++
			}
			end += int(e.n) - had
		}
		out = out[:w]
	}
	if pairs == 0 {
		return out
	}
	// Merge the new sets' pairs in from the top: j walks the pairs there
	// were, w the slots, b the new keys down by mid.
	j := int(e.n)
	ps := slices.Grow(e.array(), pairs)[:j+pairs]
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
	e.setPairs(ps)
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
// nothing. A slot whose entry has no pairs holds no lead.
type leadPage [1 << leadPageBits]leadEntry

// leadChunk is one chunk of the directory: 64 page pointers, 512 bytes,
// allocated on the first lead of its window. A flat page table would cost 8
// bytes per 128 ids up to the highest lead, which a lone late predicate
// pays for every id below it; the chunks keep that to 8 bytes per 8 192 ids.
type leadChunk [1 << leadChunkBits]*leadPage

// index is one permutation index: a directory of lead pages addressed by the
// lead's id, and the run table its pairs name their runs in. Pages never
// move, so a *leadEntry stays valid while the directory grows. leads counts
// the occupied slots, kept by every path that files or prunes, so reading it
// never walks the index. The owning store's mu guards every field and
// everything below it.
type index struct {
	chunks []*leadChunk
	leads  int
	runTable
}

// find returns lead's entry, or nil when the index holds no lead with that
// id.
func (ix *index) find(lead uint32) *leadEntry {
	if c := int(lead >> leadChunkShift); c < len(ix.chunks) && ix.chunks[c] != nil {
		if pg := ix.chunks[c][lead>>leadPageBits&leadChunkMask]; pg != nil {
			if e := &pg[lead&leadPageMask]; e.n != 0 {
				return e
			}
		}
	}
	return nil
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

// ascend calls yield for every lead of the index not below from, in
// ascending id order, and reports whether it reached the end — false when
// yield stopped it. This is the index's one enumeration of its leads; yield
// must not file or prune.
func (ix *index) ascend(from uint32, yield func(lead uint32, e *leadEntry) bool) bool {
	for id := uint64(from); id>>leadChunkShift < uint64(len(ix.chunks)); {
		ch := ix.chunks[id>>leadChunkShift]
		if ch == nil {
			id = (id>>leadChunkShift + 1) << leadChunkShift
			continue
		}
		if pg := ch[id>>leadPageBits&leadChunkMask]; pg != nil {
			for k := id & leadPageMask; k < uint64(len(pg)); k++ {
				if e := &pg[k]; e.n != 0 && !yield(uint32(id&^leadPageMask|k), e) {
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
		return e.set(&ix.runTable, mid)
	}
	return trailSet{}
}

// insert adds (a, b, c), reporting whether it was absent.
func (ix *index) insert(a, b, c uint32) bool {
	e := ix.slot(a)
	fresh := e.n == 0
	if !e.insert(&ix.runTable, b, c) {
		return false
	}
	if fresh {
		ix.leads++
	}
	return true
}

// contains reports whether (a, b, c) is present.
func (ix *index) contains(a, b, c uint32) bool {
	e := ix.find(a)
	return e != nil && e.set(&ix.runTable, b).contains(c)
}

// removeAll deletes the triples keys name — (lead, mid, member, position)
// in this index's order, ascending — and returns the keys of those that were
// present, compacted to keys' front. Each set is compacted once for all of
// its members, and a lead whose last pair goes gives its pair array back and
// frees its slot.
func (ix *index) removeAll(keys [][4]uint32) [][4]uint32 {
	out := keys[:0]
	for i, j := 0, 0; i < len(keys); i = j {
		j = groupEnd(keys, i, 0)
		e := ix.find(keys[i][0])
		if e == nil {
			continue
		}
		for m, n := i, i; m < j && e.n > 0; m = n {
			n = groupEnd(keys[:j], m, 1)
			out = e.removeAll(&ix.runTable, keys[m][1], keys[m:n], out)
		}
		if e.n == 0 {
			*e = leadEntry{}
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
		if e.n == 0 {
			ix.leads++
		}
		out = e.insertAll(&ix.runTable, keys[i:j], out)
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
