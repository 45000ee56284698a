package store

import "sync"

// The engine keeps two permutation indexes, SPO and POS, as families of
// shards. Each family is sharded by a hash of its leading component's id, and
// each shard carries its own RWMutex, so writers touching different subjects
// (or predicates) proceed in parallel instead of serializing behind one
// store-wide lock. There is no object-led family: the one pattern shape it
// would serve, object-only (? ? o), is computed from POS — the subjects of o
// are already filed under every predicate that has o as an object — at
// O(predicates) finds plus the matches, where a stored (object, subject)
// level would cost 40 bytes per pair on data whose objects are classes with
// thousands of instances.
//
// Inside a shard the two inner levels are plain slices rather than nested
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

// numShards is the shard count per index family. A power of two so the shard
// selector is a mask; 16 is enough to spread institution-scale ingest across
// cores without bloating small stores.
const numShards = 16

// shardOf maps a leading-component id to its shard. Ids are dense sequential
// integers, so a Fibonacci mix spreads consecutive ids across shards.
func shardOf(id uint32) uint32 {
	return (id * 2654435761) >> 16 & (numShards - 1)
}

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
// is ever empty and an entry without pairs is pruned by its shard.
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

// shard is one lock-protected slice of a permutation index, mapping leading
// components to their leadEntry. n is the number of triples filed in m, kept
// by every path that changes m so reading it never walks the index.
type shard struct {
	mu sync.RWMutex
	m  map[uint32]*leadEntry
	n  int
}

// reserve sizes the lead map for about n upcoming leads; a no-op once the
// map exists. Called by the batch path so the first big ingest does not grow
// the map incrementally.
func (sh *shard) reserve(n int) {
	if sh.m == nil {
		sh.m = make(map[uint32]*leadEntry, n)
	}
}

// insertLocked adds (a, b, c), reporting whether it was absent. Callers hold mu.
func (sh *shard) insertLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil {
		if sh.m == nil {
			sh.m = make(map[uint32]*leadEntry)
		}
		e = &leadEntry{}
		sh.m[a] = e
	}
	if !e.insert(b, c) {
		return false
	}
	sh.n++
	return true
}

// removeLocked deletes (a, b, c), reporting whether it was present, and
// prunes emptied levels. Callers hold mu.
func (sh *shard) removeLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil || !e.remove(b, c) {
		return false
	}
	if len(e.entries) == 0 {
		delete(sh.m, a)
	}
	sh.n--
	return true
}

// containsLocked reports whether (a, b, c) is present. Callers hold mu (read
// or write).
func (sh *shard) containsLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil {
		return false
	}
	mt := e.find(b)
	return mt != nil && mt.contains(c)
}

// indexFamily is one permutation index: numShards shards addressed by the
// leading component.
type indexFamily [numShards]shard

func (f *indexFamily) shard(lead uint32) *shard {
	return &f[shardOf(lead)]
}

// tripleLocker acquires the two shard locks a single-triple write needs —
// the subject's SPO shard and the predicate's POS shard — always in family
// order (SPO, POS), so concurrent writers cannot deadlock and every
// Add/Remove updates both indexes atomically with respect to other
// single-triple writers.
type tripleLocker struct {
	spo, pos *shard
}

func (s *Store) lockTriple(t IDTriple) tripleLocker {
	l := tripleLocker{
		spo: s.spo.shard(t.S),
		pos: s.pos.shard(t.P),
	}
	l.spo.mu.Lock() //ontolint:ignore lockcheck held across return by design; the caller releases both via tripleLocker.unlock
	l.pos.mu.Lock() //ontolint:ignore lockcheck fixed family order (SPO, POS) makes the nested acquisition deadlock-free
	return l
}

func (l tripleLocker) unlock() {
	l.pos.mu.Unlock()
	l.spo.mu.Unlock()
}
