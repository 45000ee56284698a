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
// maps: a lead's middle components live in a small linear-scanned slice that
// gains a map index only past midSpill entries, and each trailing set is one
// strictly ascending run of uint32 — searched, never hashed, whatever its
// size. Real triple data is extremely skewed — most (subject, predicate)
// pairs have a handful of objects while a few (predicate, object) pairs have
// thousands of subjects — so almost all inserts touch only small pointer-free
// slices, which cost a fraction of a map insert and are invisible to the
// garbage collector, and the few long runs cost four bytes a member, a fifth
// of what any hashed form of them would.

// numShards is the shard count per index family. A power of two so the shard
// selector is a mask; 16 is enough to spread institution-scale ingest across
// cores without bloating small stores.
const numShards = 16

// midSpill is how many middle components a lead holds before linear scans
// are replaced by a map index.
const midSpill = 8

// shardOf maps a leading-component id to its shard. Ids are dense sequential
// integers, so a Fibonacci mix spreads consecutive ids across shards.
func shardOf(id uint32) uint32 {
	return (id * 2654435761) >> 16 & (numShards - 1)
}

// idSet is a set of ids kept as one strictly ascending run: enumeration is a
// contiguous array walk, which is what the batched scan and probe paths
// stream from, and membership, insertion and removal find their place by
// search, so a member costs its four bytes and nothing else. The price is the
// copy: a write into the middle of a run slides the members above it, O(n)
// bytes moved where a hash would pay O(1) (BenchmarkHubChurn has the
// figures). Ids are minted in ascending order, so the common write — a fresh
// subject filed under its class — lands at the end and moves nothing.
type idSet struct {
	elems []uint32
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

func (s *idSet) add(c uint32) bool {
	i, found := searchRun(s.elems, c)
	if found {
		return false
	}
	s.elems = append(s.elems, 0)
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = c
	return true
}

func (s *idSet) remove(c uint32) bool {
	i, found := searchRun(s.elems, c)
	if !found {
		return false
	}
	s.elems = append(s.elems[:i], s.elems[i+1:]...)
	return true
}

func (s *idSet) contains(c uint32) bool {
	_, found := searchRun(s.elems, c)
	return found
}

func (s *idSet) len() int {
	return len(s.elems)
}

// forEach streams the set, reporting false when fn stopped the enumeration.
func (s *idSet) forEach(fn func(uint32) bool) bool {
	for _, v := range s.elems {
		if !fn(v) {
			return false
		}
	}
	return true
}

// midTrail couples one middle component with its trailing set.
type midTrail struct {
	mid   uint32
	trail idSet
}

// leadEntry is everything indexed under one leading component: the list of
// (middle, trailing-set) pairs, linear-scanned while short, map-indexed once
// it outgrows midSpill.
type leadEntry struct {
	entries []midTrail
	idx     map[uint32]int32 // mid -> position in entries; nil while short
}

// find returns the trailing set of mid, or nil. The pointer is valid until
// the next mutation of the entry.
func (e *leadEntry) find(mid uint32) *idSet {
	if e.idx != nil {
		if i, ok := e.idx[mid]; ok {
			return &e.entries[i].trail
		}
		return nil
	}
	for i := range e.entries {
		if e.entries[i].mid == mid {
			return &e.entries[i].trail
		}
	}
	return nil
}

// findOrCreate returns mid's trailing set, appending an empty one (and
// building or maintaining the spill index) on first sight.
func (e *leadEntry) findOrCreate(mid uint32) *idSet {
	if set := e.find(mid); set != nil {
		return set
	}
	e.entries = append(e.entries, midTrail{mid: mid})
	i := len(e.entries) - 1
	if e.idx != nil {
		e.idx[mid] = int32(i)
	} else if len(e.entries) > midSpill {
		e.idx = make(map[uint32]int32, 2*midSpill)
		for j := range e.entries {
			e.idx[e.entries[j].mid] = int32(j)
		}
	}
	return &e.entries[i].trail
}

// removeMid drops mid's (emptied) trailing set by swap-delete, keeping the
// spill index consistent.
func (e *leadEntry) removeMid(mid uint32) {
	pos := -1
	if e.idx != nil {
		i, ok := e.idx[mid]
		if !ok {
			return
		}
		pos = int(i)
	} else {
		for i := range e.entries {
			if e.entries[i].mid == mid {
				pos = i
				break
			}
		}
		if pos < 0 {
			return
		}
	}
	last := len(e.entries) - 1
	e.entries[pos] = e.entries[last]
	e.entries[last] = midTrail{}
	e.entries = e.entries[:last]
	if e.idx != nil {
		delete(e.idx, mid)
		if pos < last {
			e.idx[e.entries[pos].mid] = int32(pos)
		}
	}
}

// forEach streams every (mid, trailing-set) pair, reporting false when fn
// stopped the enumeration.
func (e *leadEntry) forEach(fn func(mid uint32, trail *idSet) bool) bool {
	for i := range e.entries {
		if !fn(e.entries[i].mid, &e.entries[i].trail) {
			return false
		}
	}
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
	if !e.findOrCreate(b).add(c) {
		return false
	}
	sh.n++
	return true
}

// removeLocked deletes (a, b, c), reporting whether it was present, and
// prunes emptied levels. Callers hold mu.
func (sh *shard) removeLocked(a, b, c uint32) bool {
	e := sh.m[a]
	if e == nil {
		return false
	}
	set := e.find(b)
	if set == nil || !set.remove(c) {
		return false
	}
	if set.len() == 0 {
		e.removeMid(b)
		if len(e.entries) == 0 {
			delete(sh.m, a)
		}
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
	set := e.find(b)
	return set != nil && set.contains(c)
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
