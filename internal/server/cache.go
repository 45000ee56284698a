package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// This file is the serving layer's query-result cache: a map from
// canonicalized BGP keys (query.Canonical plus the evaluation mode and
// limit) to fully marshaled response bodies under one lock and one byte
// budget, invalidated by the reasoning engine's delta notifications at
// predicate granularity.

// cacheEntry is one cached query result: the marshaled response body and
// the invalidation footprint of the BGP that produced it.
type cacheEntry struct {
	// gen is the engine generation the result was computed at: an entry in
	// the cache is never older than it (see put).
	gen uint64
	// body is the response exactly as the miss streamed it, header line
	// through last solution line (trailing newline included), in one slice:
	// a hit is a single write, and len(body) is what the cache's byte budget
	// accounts.
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
	// retained size, bounded by the server's cache byte budget.
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
func (e *cacheEntry) size() int64 { return int64(len(e.body)) }

// accepts reports whether a body of the given size fits the cache: never on a
// disabled cache, never past the budget. A caller assembling a response stops
// retaining it for a put that is a guaranteed no-op.
func (c *resultCache) accepts(size int64) bool {
	return c.maxBytes > 0 && size <= c.maxBytes
}

// get returns the cached entry for the key, or nil. The lookup converts the
// key without allocating.
func (c *resultCache) get(key []byte) *cacheEntry {
	var e *cacheEntry
	if c.maxBytes > 0 {
		c.mu.Lock()
		e = c.entries[string(key)]
		c.mu.Unlock()
	}
	if e == nil {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return e
}

// put stores an entry computed at engine generation e.gen, read before the
// evaluation began. If the engine has moved on, the entry may describe
// pre-mutation data and is dropped. The check runs under the lock: the engine
// bumps its generation before invalidate sweeps, so a put that still sees
// e.gen precedes the sweep, which then drops the entry if the write touched
// it. An entry bigger than the whole budget is never stored; otherwise
// arbitrary entries are evicted (map iteration order) until it fits — the
// cache is a recency-free bounded memo, not an LRU; under invalidation-heavy
// write traffic entries rarely live long enough for eviction policy to matter.
func (c *resultCache) put(key string, e *cacheEntry) {
	if !c.accepts(e.size()) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.generation() != e.gen {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.size()
	}
	for k, old := range c.entries {
		if c.bytes+e.size() <= c.maxBytes {
			break
		}
		if k == key {
			continue
		}
		delete(c.entries, k)
		c.bytes -= old.size()
	}
	c.entries[key] = e
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
