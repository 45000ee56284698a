package server

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/store"
)

// This file is the serving layer's query-result cache: a map from
// canonicalized BGP keys (query.Canonical plus the evaluation mode and
// limit) to fully marshaled response bodies under one lock and one byte
// budget, invalidated by the reasoning engine's delta notifications at
// predicate granularity. An entry nobody holds any more is kept only weakly,
// for the next miss to reuse whole.

// cacheEntry is one cached query result: the marshaled response body and
// the invalidation footprint of the BGP that produced it.
type cacheEntry struct {
	// refs counts the entry's holders: the cache's own reference while the
	// entry is filed under its key, plus one per replay in flight (get takes
	// it, release drops it). At zero the entry is dead: nothing reads it, and
	// bury hands it to the next miss, which overwrites every field but key.
	refs atomic.Int32
	// key is the string the entry is filed under. A miss that reuses a dead
	// entry filed under its own key files itself under the same string, so
	// a query missed again after an invalidation allocates no key.
	key string
	// gen is the engine generation the result was computed at: an entry in
	// the cache is never older than it (see put).
	gen uint64
	// body is the response exactly as the miss streamed it, header line
	// through last solution line (trailing newline included), in one slice:
	// a hit is a single write, and cap(body) is what the cache's byte budget
	// accounts (a reused body may be up to twice its length).
	body []byte
	// solutions and truncated replay the trailer fields of the original
	// evaluation.
	solutions int
	truncated bool
	// preds are the literal predicate names the BGP mentions; anyPred marks
	// a BGP with at least one variable-predicate pattern, invalidated by
	// every delta. Names, not ids: a predicate can be uninterned at caching
	// time and minted by the very mutation that must invalidate the entry.
	preds   []string
	anyPred bool
}

// CacheStats is the counters block /stats reports for the result cache.
type CacheStats struct {
	// Entries is the number of results currently cached; Bytes is their
	// retained size (the capacity of their bodies), bounded by the server's
	// cache byte budget.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count lookups since the server started.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Invalidations counts entries dropped by mutation deltas (evictions by
	// capacity are not counted).
	Invalidations int64 `json:"invalidations"`
}

// resultCache is the query-result cache: one mutex over one map with one byte
// budget. Capacity is accounted in retained response bytes, not entries,
// because one entry can hold up to MaxSolutions marshaled rows — counting
// entries would make memory use effectively unbounded. The critical section is
// one map operation (a sweep, for invalidate) against a request that costs
// tens of microseconds, so there is one lock domain. The engine's generation
// closes the read-evaluate-store race against concurrent mutations: a result
// computed at generation g is dropped instead of stored once the engine has
// moved past g, so a cache entry never outlives the data it was computed from.
// The zero-budget cache is a valid always-miss cache.
type resultCache struct {
	// maxBytes is the budget; 0 disables caching.
	maxBytes int64
	// generation reads the engine's current generation
	// (reason.Reasoner.Generation), which the engine advances before it
	// calls invalidate.
	generation func() uint64

	mu      sync.Mutex
	entries map[string]*cacheEntry
	bytes   int64 // retained size of entries, ≤ maxBytes
	// dead holds the dead entries, weakly, by the capacity class of their
	// bodies (bits.Len of the capacity): the collector frees one that no miss
	// reuses before the next cycle, so a dead body never adds to the live
	// heap. Collected records are dropped as take meets them and before a
	// class's list grows, and a list three quarters empty is reallocated.
	dead [64][]weak.Pointer[cacheEntry]

	hits, misses, invalidations atomic.Int64
}

// newResultCache sizes a cache for maxBytes of retained responses, over an
// engine whose generation the given function reads. maxBytes <= 0 disables
// caching entirely (every lookup misses, every store is dropped).
func newResultCache(maxBytes int64, generation func() uint64) *resultCache {
	c := &resultCache{generation: generation}
	if maxBytes > 0 {
		c.maxBytes = maxBytes
		c.entries = make(map[string]*cacheEntry)
	}
	return c
}

// size is the entry's retained bytes.
func (e *cacheEntry) size() int64 { return int64(cap(e.body)) }

// accepts reports whether a body of the given size fits the cache: never on a
// disabled cache, never past the budget. A caller assembling a response stops
// retaining it for a put that is a guaranteed no-op.
func (c *resultCache) accepts(size int64) bool {
	return c.maxBytes > 0 && size <= c.maxBytes
}

// get returns the cached entry for the key, or nil. A returned entry is held
// for the caller, who drops it with release once done reading it. The lookup
// converts the key without allocating.
func (c *resultCache) get(key []byte) *cacheEntry {
	var e *cacheEntry
	if c.maxBytes > 0 {
		c.mu.Lock()
		if e = c.entries[string(key)]; e != nil {
			e.refs.Add(1)
		}
		c.mu.Unlock()
	}
	if e == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return e
}

// release drops a reference get took. The last holder buries the entry.
func (c *resultCache) release(e *cacheEntry) {
	if e.refs.Add(-1) == 0 {
		c.mu.Lock()
		c.bury(e)
		c.mu.Unlock()
	}
}

// drop is release for a caller that holds c.mu: the cache's own reference,
// given up by invalidation, eviction and replacement.
func (c *resultCache) drop(e *cacheEntry) {
	if e.refs.Add(-1) == 0 {
		c.bury(e)
	}
}

// entry returns an entry holding a copy of body, held once for the caller,
// who fills in the rest and hands it to put. The copy goes into a dead
// entry's body when one fits (take), else into a fresh body of exactly that
// size.
func (c *resultCache) entry(body []byte) *cacheEntry {
	c.mu.Lock()
	e := c.take(len(body))
	c.mu.Unlock()
	if e == nil {
		e = &cacheEntry{body: make([]byte, 0, len(body))}
	}
	e.body = append(e.body[:0], body...)
	e.refs.Store(1)
	return e
}

// bury files a dead entry, weakly, under its body's capacity class. Callers
// hold c.mu.
func (c *resultCache) bury(e *cacheEntry) {
	k := bits.Len(uint(cap(e.body)))
	list := c.dead[k]
	if len(list) == cap(list) {
		list = compact(list)
	}
	c.dead[k] = append(list, weak.Make(e))
}

// compact drops the records of collected entries.
func compact(list []weak.Pointer[cacheEntry]) []weak.Pointer[cacheEntry] {
	n := 0
	for _, wp := range list {
		if wp.Value() != nil {
			list[n] = wp
			n++
		}
	}
	clear(list[n:])
	return shrink(list[:n])
}

// unfile removes record i, moving the last one into its place.
func unfile(list []weak.Pointer[cacheEntry], i int) []weak.Pointer[cacheEntry] {
	last := len(list) - 1
	list[i], list[last] = list[last], weak.Pointer[cacheEntry]{}
	return list[:last]
}

// shrink moves a list three quarters empty into an array of its length, so
// a mass death (a write that drops the whole cache) leaves no array of its
// size behind once its entries are reused or collected.
func shrink(list []weak.Pointer[cacheEntry]) []weak.Pointer[cacheEntry] {
	if len(list) < cap(list)/4 {
		return slices.Clone(list)
	}
	return list
}

// takeProbes bounds how many live records of one class take weighs.
const takeProbes = 8

// take unfiles the dead entry best fitting a body of n bytes — the smallest
// capacity from n to 2n among the last takeProbes live records of the two
// classes that can hold one — or returns nil. Records met collected are
// dropped. Callers hold c.mu.
func (c *resultCache) take(n int) *cacheEntry {
	k := bits.Len(uint(n))
	for class := k; class <= k+1 && class < len(c.dead); class++ {
		list := c.dead[class]
		var best *cacheEntry
		at := -1
		for i, probes := len(list)-1, 0; i >= 0 && probes < takeProbes; i-- {
			e := list[i].Value()
			if e == nil {
				if at == len(list)-1 { // the best so far moves to i
					at = i
				}
				list = unfile(list, i)
				continue
			}
			probes++
			if size := cap(e.body); size >= n && size <= 2*n && (best == nil || size < cap(best.body)) {
				best, at = e, i
			}
		}
		if best != nil {
			list = unfile(list, at)
		}
		c.dead[class] = shrink(list)
		if best != nil {
			return best
		}
	}
	return nil
}

// put files an entry made by entry, computed at engine generation e.gen,
// read before the evaluation began, and gives up the caller's reference. If
// the engine has moved on, the entry may describe pre-mutation data and is
// dropped. The check runs under the lock: the engine bumps its generation
// before invalidate sweeps, so a put that still sees e.gen precedes the
// sweep, which then drops the entry if the write touched it. An entry bigger
// than the whole budget is never stored; otherwise arbitrary entries are
// evicted (map iteration order) until it fits — the cache is a recency-free
// bounded memo, not an LRU; under invalidation-heavy write traffic entries
// rarely live long enough for eviction policy to matter. The key is copied
// into a string only when the entry is stored, and only when the entry does
// not hold that string already (cacheEntry.key).
func (c *resultCache) put(key []byte, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.accepts(e.size()) || c.generation() != e.gen {
		c.drop(e)
		return
	}
	if e.key != string(key) {
		e.key = string(key)
	}
	if old, ok := c.entries[string(key)]; ok {
		delete(c.entries, string(key))
		c.bytes -= old.size()
		c.drop(old)
	}
	for k, old := range c.entries {
		if c.bytes+e.size() <= c.maxBytes {
			break
		}
		delete(c.entries, k)
		c.bytes -= old.size()
		c.drop(old)
	}
	c.entries[e.key] = e
	c.bytes += e.size()
}

// invalidate drops every entry whose BGP mentions one of the changed
// predicates (or has a variable predicate), resolving the delta's predicate
// ids through the view's dictionary. The engine calls it from its event
// hook, after advancing its generation, so in-flight evaluations that
// overlapped the mutation cannot store.
func (c *resultCache) invalidate(res store.Resolver, added, removed []store.IDTriple) {
	if c.maxBytes == 0 {
		return
	}
	changed := map[string]bool{}
	for _, t := range added {
		changed[res.Name(t.P)] = true
	}
	for _, t := range removed {
		changed[res.Name(t.P)] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.anyPred || touches(e.preds, changed) {
			delete(c.entries, k)
			c.bytes -= e.size()
			c.drop(e)
			c.invalidations.Add(1)
		}
	}
}

// touches reports whether any of the entry's predicates changed.
func touches(preds []string, changed map[string]bool) bool {
	for _, p := range preds {
		if changed[p] {
			return true
		}
	}
	return false
}

// stats snapshots the cache counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}
