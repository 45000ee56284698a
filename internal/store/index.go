package store

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
// maps: a lead's (middle, trailing-set) pairs are one slice kept ascending by
// middle component, and each trailing set is one strictly ascending run of
// uint32 — both searched, never hashed, whatever their size, so nothing sits
// beside them. A set of one member, which is most of them (an instance's
// location, each of its single-valued attributes), holds that member inside
// its pair and has no run at all. Real triple data is extremely skewed — most
// (subject, predicate) pairs have a handful of objects while a few
// (predicate, object) pairs have thousands of subjects — so almost all
// inserts touch only small slices, which cost a fraction of a map insert, and
// the few long runs cost four bytes a member, a fifth of what any hashed form
// of them would.

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

// midTrail couples one middle component with its trailing set, which is
// never empty. While run is nil the set is its one member, in one, and costs
// nothing beside the pair; once it has held two members it is the strictly
// ascending *run — enumeration a contiguous array walk, which is what the
// batched scan and probe paths stream from, membership, insertion and removal
// a search — and it stays a run, down to one member, for as long as the pair
// exists, so removing and re-adding a member never allocates. The pair is 16
// bytes, a mid and a member: half of a mid and a slice header. The price of a
// run is the copy: a write into its middle slides the members above it, O(n)
// bytes moved where a hash would pay O(1) (BenchmarkHubChurn has the
// figures). Ids are minted in ascending order, so the common write — a fresh
// subject filed under its class — lands at the end and moves nothing.
type midTrail struct {
	mid uint32
	one [1]uint32
	run *[]uint32
}

// elems returns the set's members, ascending. The slice aliases the index and
// is valid until the next mutation of the pair's lead.
func (mt *midTrail) elems() []uint32 {
	if mt.run != nil {
		return *mt.run
	}
	return mt.one[:]
}

func (mt *midTrail) len() int {
	return len(mt.elems())
}

func (mt *midTrail) contains(c uint32) bool {
	_, found := searchRun(mt.elems(), c)
	return found
}

// add files c in the set, reporting whether it was absent. A second member
// turns the inline one into a run whose header and first two slots are one
// allocation: a set's first member costs none and its second one, where a
// plain slice pays one for the first.
func (mt *midTrail) add(c uint32) bool {
	i, found := searchRun(mt.elems(), c)
	if found {
		return false
	}
	if mt.run == nil {
		box := new(struct {
			hdr  []uint32
			room [2]uint32
		})
		box.room[0] = mt.one[0]
		box.hdr = box.room[:1]
		mt.run = &box.hdr
	}
	run := append(*mt.run, 0)
	copy(run[i+1:], run[i:])
	run[i] = c
	*mt.run = run
	return true
}

// leadEntry is everything indexed under one leading component: its (middle,
// trailing-set) pairs, strictly ascending by middle component and searched
// the way a run is. insert and remove create and drop the pairs, so no pair
// is ever empty, and an entry without pairs is an empty slot of its index.
type leadEntry struct {
	entries []midTrail
}

// search returns mid's place among the pairs and whether it is there:
// searchRun over the pairs' middle components.
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

// find returns mid's pair, or nil. The pointer is valid until the next
// mutation of the entry.
func (e *leadEntry) find(mid uint32) *midTrail {
	if i, found := e.search(mid); found {
		return &e.entries[i]
	}
	return nil
}

// insert files c under mid, reporting whether it was absent. A mid seen for
// the first time takes its place among the pairs with c inline.
func (e *leadEntry) insert(mid, c uint32) bool {
	i, found := e.search(mid)
	if found {
		return e.entries[i].add(c)
	}
	e.entries = append(e.entries, midTrail{})
	copy(e.entries[i+1:], e.entries[i:])
	e.entries[i] = midTrail{mid: mid, one: [1]uint32{c}}
	return true
}

// remove drops c from mid's set, reporting whether it was there. Removing a
// set's last member drops its pair, the pairs above sliding down one.
func (e *leadEntry) remove(mid, c uint32) bool {
	i, found := e.search(mid)
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
		return true
	}
	last := len(e.entries) - 1
	copy(e.entries[i:], e.entries[i+1:])
	e.entries[last] = midTrail{}
	e.entries = e.entries[:last]
	return true
}

// removeAll drops from mid's set every member that one of keys names —
// keys share this entry's lead and mid and ascend by member — appending the
// keys of the members it dropped to out. It walks the set once from the
// first member named, so a batch costs the set's length, not that length per
// member; an emptied set drops its pair as remove does.
func (e *leadEntry) removeAll(mid uint32, keys [][3]uint32, out [][3]uint32) [][3]uint32 {
	i, found := e.search(mid)
	if !found {
		return out
	}
	mt := &e.entries[i]
	elems := mt.elems()
	w, _ := searchRun(elems, keys[0][2])
	k := 0
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
	switch {
	case w > 0 && mt.run != nil:
		*mt.run = elems[:w]
	case w == 0:
		last := len(e.entries) - 1
		copy(e.entries[i:], e.entries[i+1:])
		e.entries[last] = midTrail{}
		e.entries = e.entries[:last]
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
	mt := e.find(b)
	return mt != nil && mt.contains(c)
}

// removeAll deletes the triples keys name — (lead, mid, member) in this
// index's order, ascending — and returns the keys of those that were present,
// pruning as remove does. Each set is compacted once for all of its members.
func (ix *index) removeAll(keys [][3]uint32) [][3]uint32 {
	var out [][3]uint32
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

// groupEnd returns the end of the group of keys from i on that agree with
// keys[i] in component c.
func groupEnd(keys [][3]uint32, i, c int) int {
	j := i + 1
	for j < len(keys) && keys[j][c] == keys[i][c] {
		j++
	}
	return j
}
