package store

import "slices"

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
// is a subject, so a lead costs its 24-byte entry, where a map paid as much
// again for its slot; and an index's leads are walked in ascending id order,
// which is what lets an unbound cursor resume among them by value.
//
// Below the lead the two inner levels are plain slices rather than nested
// maps: a lead's (middle, chunk) pairs are one slice kept ascending by middle
// component, and each trailing set is strictly ascending runs of uint32 —
// both searched, never hashed, whatever their size, so nothing sits beside
// them. A set of one member, which is most of them (an instance's location,
// each of its single-valued attributes), holds that member inside its pair
// and has no run at all; a set of up to chunkLen members is one pair and one
// run; a longer one — a class's instances under POS (type, class), a site's
// or a region's members — is consecutive pairs of the same mid, one chunk of
// at most chunkLen members each, ascending, so the lead's pairs are the set's
// chunk directory. Real triple data is extremely skewed — most (subject,
// predicate) pairs have a handful of objects while a few (predicate, object)
// pairs have thousands of subjects — so almost all inserts touch only small
// slices, which cost a fraction of a map insert, and the few long sets cost
// four bytes a member, a fifth of what any hashed form of them would. A long
// set grows by a chunk at a time and never copies the members it has: a
// write into its middle moves at most one chunk, and a full chunk splits in
// two. Every walk of a set goes chunk by chunk, in order, so enumeration
// order is the same as one run's.
//
// A batch is filed grouped (insertAll, the twin of removeAll): its keys
// sorted by (lead, mid, member, position), each lead it touches grows its
// pair slice once by the pairs of its new sets, a new set is one run of
// exactly its members (a long one gets a bulk load's room), and a set of one
// chunk takes all its newcomers in one merge, so a write that brings an
// instance and its derived types grows each set and pair slice once, where
// filing member by member regrew them at each doubling. A batch is filed at
// most a chunk's worth of keys at a time, so a new set is one chunk. A set of several chunks still takes its members one at a time,
// each into its chunk. A chunk's pair keeps the chunk's least member in one
// even beside a run, so finding a member's chunk reads pairs only.

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

// midTrail couples one middle component with one chunk of its trailing set,
// which is never empty. While run is nil the chunk is its one member, in one,
// and costs nothing beside the pair; once it has held two members it is the
// strictly ascending *run — enumeration a contiguous array walk, which is
// what the batched scan and probe paths stream from, membership, insertion
// and removal a search — and it stays a run, down to one member, for as long
// as the pair exists, so removing and re-adding a member never allocates.
// Beside a run, one keeps the run's least member, so the search for a
// member's chunk (trailSet.chunk) reads pairs and never a run; every write
// that changes a run's front sets it. The pair is 16 bytes, a mid and a
// member: half of a mid and a slice header. The price of a run is the copy:
// a write into its middle slides the members above it, at most a chunk's
// worth (BenchmarkHubChurn has the figures). Ids are minted in ascending
// order, so the common write — a fresh subject filed under its class — lands
// at the end and moves nothing.
type midTrail struct {
	mid uint32
	one [1]uint32
	run *[]uint32
}

// elems returns the chunk's members, ascending. The slice aliases the index
// and is valid until the next mutation of the pair's lead.
func (mt *midTrail) elems() []uint32 {
	if mt.run != nil {
		return *mt.run
	}
	return mt.one[:]
}

func (mt *midTrail) len() int {
	return len(mt.elems())
}

// first returns the chunk's least member.
func (mt *midTrail) first() uint32 {
	return mt.one[0]
}

func (mt *midTrail) contains(c uint32) bool {
	_, found := searchRun(mt.elems(), c)
	return found
}

// put files c at position k of a chunk of fewer than chunkLen members. A
// second member turns the inline one into a run whose header and first two
// slots are one allocation: a set's first member costs none and its second
// one, where a plain slice pays one for the first. A full run regrows by
// roomFor.
func (mt *midTrail) put(k int, c uint32) {
	if mt.run == nil {
		box := new(struct {
			hdr  []uint32
			room [2]uint32
		})
		box.room[0] = mt.one[0]
		box.hdr = box.room[:1]
		mt.run = &box.hdr
	}
	run := roomFor(*mt.run, 1)
	run = run[:len(run)+1]
	copy(run[k+1:], run[k:])
	run[k] = c
	*mt.run = run
	mt.one[0] = run[0]
}

// merge files the members keys name — ascending, absent from the chunk, at
// least two, and at most chunkLen with the chunk's own — into the chunk,
// regrowing its run at most once: an inline member and its newcomers get a
// run of exactly their number, a run is regrown by roomFor. The merge runs
// from the top down, so it needs no second buffer.
func (mt *midTrail) merge(keys [][4]uint32) {
	var run []uint32
	if mt.run == nil {
		run = append(make([]uint32, 0, 1+len(keys)), mt.one[0])
		mt.run = new([]uint32)
	} else {
		run = roomFor(*mt.run, len(keys))
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
	*mt.run = run
	mt.one[0] = run[0]
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
func newChunk(mid uint32, members ...uint32) midTrail {
	run := make([]uint32, len(members), chunkLen)
	copy(run, members)
	return midTrail{mid: mid, one: [1]uint32{run[0]}, run: &run}
}

// keyChunk returns a pair for mid whose chunk holds the members keys name —
// ascending, distinct and at most chunkLen — as insertAll files a new set:
// one member inline, up to arenaRunMax a run of exactly their number, more
// with buildSorted's room, an eighth more, so the first writes into a class a
// large batch filed do not regrow it.
func keyChunk(mid uint32, keys [][4]uint32) midTrail {
	n := len(keys)
	if n == 1 {
		return midTrail{mid: mid, one: [1]uint32{keys[0][2]}}
	}
	room := n
	if n > arenaRunMax {
		room = chunkRoom(n)
	}
	run := make([]uint32, n, room)
	for q := range keys {
		run[q] = keys[q][2]
	}
	return midTrail{mid: mid, one: [1]uint32{run[0]}, run: &run}
}

// trailSet is one trailing set as its lead holds it: the consecutive pairs of
// its mid, one chunk each, the chunks disjoint and ascending. A set of up to
// chunkLen members is one pair.
type trailSet []midTrail

func (ts trailSet) len() int {
	n := 0
	for i := range ts {
		n += ts[i].len()
	}
	return n
}

// chunk returns the chunk c belongs in: the last one whose first member is
// not above c, else the first.
func (ts trailSet) chunk(c uint32) int {
	lo, hi := 1, len(ts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts[m].first() <= c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func (ts trailSet) contains(c uint32) bool {
	_, found := searchRun(ts[ts.chunk(c)].elems(), c)
	return found
}

// seek returns the place of the first member above c: its chunk and its
// position there, which is the chunk's length when the member opens the next
// chunk or there is none.
func (ts trailSet) seek(c uint32) (chunk, pos int) {
	chunk = ts.chunk(c)
	pos, found := searchRun(ts[chunk].elems(), c)
	if found {
		pos++
	}
	return chunk, pos
}

// leadEntry is everything indexed under one leading component: its (middle,
// chunk) pairs, ascending by middle component and, within one middle
// component's set, by first member. insert and remove create and drop the
// pairs, so no pair is ever empty, and an entry without pairs is an empty
// slot of its index.
type leadEntry struct {
	entries []midTrail
}

// search returns the place of mid's first pair among the pairs and whether
// it is there: searchRun over the pairs' middle components.
func (e *leadEntry) search(mid uint32) (int, bool) {
	lo, hi := 0, len(e.entries)
	for hi-lo > linearRun {
		m := int(uint(lo+hi) >> 1)
		if e.entries[m].mid < mid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for lo < hi && e.entries[lo].mid < mid {
		lo++
	}
	return lo, lo < len(e.entries) && e.entries[lo].mid == mid
}

// setEnd returns the end of the set whose first pair is i.
func (e *leadEntry) setEnd(i int) int {
	mid := e.entries[i].mid
	lo, hi := i+1, len(e.entries)
	if lo == hi || e.entries[lo].mid != mid {
		return lo
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.entries[m].mid == mid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// set returns mid's set, or nil. The slice aliases the entry and is valid
// until the next mutation of it.
func (e *leadEntry) set(mid uint32) trailSet {
	i, found := e.search(mid)
	if !found {
		return nil
	}
	return e.entries[i:e.setEnd(i)]
}

// sets returns how many sets the entry holds: its pairs, less the chunks
// that continue a set.
func (e *leadEntry) sets() int {
	n := 0
	for i := 0; i < len(e.entries); i = e.setEnd(i) {
		n++
	}
	return n
}

// locate returns the pair that holds or would hold c among mid's, and
// whether mid has a set; when it has none, i is where its first pair goes.
// end is the end of the set.
func (e *leadEntry) locate(mid, c uint32) (i, end int, found bool) {
	i, found = e.search(mid)
	if !found {
		return i, i, false
	}
	end = e.setEnd(i)
	return i + trailSet(e.entries[i:end]).chunk(c), end, true
}

// insert files c under mid, reporting whether it was absent. A mid seen for
// the first time takes its place among the pairs with c inline. c goes into
// the chunk locate names; when that one is full it goes at the front of the
// next chunk of the set if that has room, into a chunk of its own past either
// end of the set — which is where ascending and descending writes land — and
// otherwise the full chunk splits in two.
func (e *leadEntry) insert(mid, c uint32) bool {
	i, end, found := e.locate(mid, c)
	if !found {
		e.insertPair(i, midTrail{mid: mid, one: [1]uint32{c}})
		return true
	}
	mt := &e.entries[i]
	elems := mt.elems()
	k, found := searchRun(elems, c)
	if found {
		return false
	}
	switch {
	case len(elems) < chunkLen:
		mt.put(k, c)
	case k == len(elems) && i+1 < end && e.entries[i+1].len() < chunkLen:
		e.entries[i+1].put(0, c)
	case k == len(elems) && i+1 == end:
		e.insertPair(i+1, newChunk(mid, c))
	case k == 0: // c is below every member only in the set's first chunk
		e.insertPair(i, newChunk(mid, c))
	default:
		const half = chunkLen / 2
		upper := newChunk(mid, elems[half:]...)
		*mt.run = elems[:half]
		if k <= half {
			mt.put(k, c)
		} else {
			upper.put(k-half, c)
		}
		e.insertPair(i+1, upper)
	}
	return true
}

// insertPair files p at place i among the pairs, the pairs above it sliding
// up one.
func (e *leadEntry) insertPair(i int, p midTrail) {
	e.entries = append(e.entries, midTrail{})
	copy(e.entries[i+1:], e.entries[i:])
	e.entries[i] = p
}

// dropPair removes the pair at i, the pairs above it sliding down one.
func (e *leadEntry) dropPair(i int) {
	last := len(e.entries) - 1
	copy(e.entries[i:], e.entries[i+1:])
	e.entries[last] = midTrail{}
	e.entries = e.entries[:last]
}

// remove drops c from mid's set, reporting whether it was there. Removing a
// chunk's last member drops its pair.
func (e *leadEntry) remove(mid, c uint32) bool {
	i, _, found := e.locate(mid, c)
	if !found {
		return false
	}
	mt := &e.entries[i]
	j, found := searchRun(mt.elems(), c)
	if !found {
		return false
	}
	if mt.len() > 1 {
		*mt.run = append((*mt.run)[:j], (*mt.run)[j+1:]...)
		mt.one[0] = (*mt.run)[0]
		return true
	}
	e.dropPair(i)
	return true
}

// removeAll drops from mid's set every member that one of keys names —
// keys share this entry's lead and mid and ascend by member — appending the
// keys of the members it dropped to out, which may be keys' own front. It
// walks the set once from the chunk of the first member named to the chunk
// of the last, so a batch costs those chunks' length, not that length per
// member; an emptied chunk drops its pair as remove does.
func (e *leadEntry) removeAll(mid uint32, keys, out [][4]uint32) [][4]uint32 {
	i, end, found := e.locate(mid, keys[0][2])
	if !found {
		return out
	}
	kept, k := i, 0
	for ; i < end && k < len(keys); i++ {
		mt := &e.entries[i]
		elems := mt.elems()
		w, _ := searchRun(elems, keys[k][2])
		for _, c := range elems[w:] {
			for k < len(keys) && keys[k][2] < c {
				k++
			}
			if k < len(keys) && keys[k][2] == c {
				out = append(out, keys[k])
				continue
			}
			elems[w] = c
			w++
		}
		if w == 0 {
			continue
		}
		if mt.run != nil {
			*mt.run = elems[:w]
			mt.one[0] = elems[0]
		}
		e.entries[kept] = *mt
		kept++
	}
	if kept < i {
		n := copy(e.entries[kept:], e.entries[i:])
		clear(e.entries[kept+n:])
		e.entries = e.entries[:kept+n]
	}
	return out
}

// insertAll files the members keys name under this entry — keys share its
// lead and ascend by (mid, member, position), a member may repeat, and there
// are at most chunkLen of them — and appends to out, which may be keys' own
// front, the key of each member that was absent, at its first occurrence. A
// set it touches grows once: one of a single chunk takes its newcomers in one
// merge while they fit the chunk, a new set is one chunk (keyChunk), and the
// pair slice grows once by the new sets' pairs, which are merged in from the
// top down. A set of several chunks, and one its newcomers would carry past
// chunkLen, takes them one at a time through insert, which keeps a long
// set's chunks in shape.
func (e *leadEntry) insertAll(keys, out [][4]uint32) [][4]uint32 {
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
		w := lo
		if end := e.setEnd(i); end == i+1 {
			mt := &e.entries[i]
			elems, p := mt.elems(), 0
			for _, k := range out[lo:] {
				q, found := searchRun(elems[p:], k[2])
				if p += q; !found {
					out[w] = k
					w++
				}
			}
			if a := w - lo; a > 1 && len(elems)+a <= chunkLen {
				mt.merge(out[lo:w])
				out = out[:w]
				continue
			}
			out, w = out[:w], lo
		}
		for _, k := range out[lo:] {
			if e.insert(mid, k[2]) {
				out[w] = k
				w++
			}
		}
		out = out[:w]
	}
	if pairs == 0 {
		return out
	}
	// Merge the new sets' pairs in from the top: j walks the pairs there
	// were, w the slots, b the new keys down by mid.
	j := len(e.entries)
	e.entries = slices.Grow(e.entries, pairs)[:j+pairs]
	w := len(e.entries)
	for b := len(out); b > base; {
		a, mid := b-1, out[b-1][1]
		for a > base && out[a-1][1] == mid {
			a--
		}
		for j > 0 && e.entries[j-1].mid > mid {
			j--
			w--
			e.entries[w] = e.entries[j]
		}
		if j == 0 || e.entries[j-1].mid != mid {
			w--
			e.entries[w] = keyChunk(mid, out[a:b])
		}
		b = a
	}
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

// leadPage is one page of an index's lead directory: 128 entries of 24 bytes,
// 3 072 bytes, which is one of the allocator's size classes, so a page wastes
// nothing. A slot whose entry has no pairs holds no lead.
type leadPage [1 << leadPageBits]leadEntry

// leadChunk is one chunk of the directory: 64 page pointers, 512 bytes,
// allocated on the first lead of its window. A flat page table would cost 8
// bytes per 128 ids up to the highest lead, which a lone late predicate
// pays for every id below it; the chunks keep that to 8 bytes per 8 192 ids.
type leadChunk [1 << leadChunkBits]*leadPage

// index is one permutation index: a directory of lead pages addressed by the
// lead's id. Pages never move, so a *leadEntry stays valid while the
// directory grows. leads counts the occupied slots, kept by every path that
// files or prunes, so reading it never walks the index. The owning store's
// mu guards every field and everything below it.
type index struct {
	chunks []*leadChunk
	leads  int
}

// find returns lead's entry, or nil when the index holds no lead with that
// id.
func (ix *index) find(lead uint32) *leadEntry {
	if c := int(lead >> leadChunkShift); c < len(ix.chunks) && ix.chunks[c] != nil {
		if pg := ix.chunks[c][lead>>leadPageBits&leadChunkMask]; pg != nil {
			if e := &pg[lead&leadPageMask]; len(e.entries) != 0 {
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
				if e := &pg[k]; len(e.entries) != 0 && !yield(uint32(id&^leadPageMask|k), e) {
					return false
				}
			}
		}
		id = (id>>leadPageBits + 1) << leadPageBits
	}
	return true
}

// insert adds (a, b, c), reporting whether it was absent.
func (ix *index) insert(a, b, c uint32) bool {
	e := ix.slot(a)
	fresh := len(e.entries) == 0
	if !e.insert(b, c) {
		return false
	}
	if fresh {
		ix.leads++
	}
	return true
}

// remove deletes (a, b, c), reporting whether it was present, and prunes
// emptied levels: a lead whose last pair goes gives its pair array back and
// frees its slot.
func (ix *index) remove(a, b, c uint32) bool {
	e := ix.find(a)
	if e == nil || !e.remove(b, c) {
		return false
	}
	if len(e.entries) == 0 {
		e.entries = nil
		ix.leads--
	}
	return true
}

// contains reports whether (a, b, c) is present.
func (ix *index) contains(a, b, c uint32) bool {
	e := ix.find(a)
	if e == nil {
		return false
	}
	set := e.set(b)
	return set != nil && set.contains(c)
}

// removeAll deletes the triples keys name — (lead, mid, member, position)
// in this index's order, ascending — and returns the keys of those that were
// present, compacted to keys' front, pruning as remove does. Each set is
// compacted once for all of its members.
func (ix *index) removeAll(keys [][4]uint32) [][4]uint32 {
	out := keys[:0]
	for i, j := 0, 0; i < len(keys); i = j {
		j = groupEnd(keys, i, 0)
		e := ix.find(keys[i][0])
		if e == nil {
			continue
		}
		for m, n := i, i; m < j && len(e.entries) > 0; m = n {
			n = groupEnd(keys[:j], m, 1)
			out = e.removeAll(keys[m][1], keys[m:n], out)
		}
		if len(e.entries) == 0 {
			e.entries = nil
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
		if len(e.entries) == 0 {
			ix.leads++
		}
		out = e.insertAll(keys[i:j], out)
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
