package server

import (
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

func entryFor(preds ...string) *cacheEntry {
	return &cacheEntry{body: make([]byte, 100), preds: preds}
}

// quietCache is a cache over an engine that never writes: its generation
// stays 0, the generation entryFor's entries carry.
func quietCache(maxBytes int64) *resultCache {
	return newResultCache(maxBytes, func() uint64 { return 0 })
}

func TestCacheDisabledAlwaysMisses(t *testing.T) {
	c := quietCache(0)
	c.put("k", entryFor("p"))
	if c.get([]byte("k")) != nil {
		t.Fatal("zero-budget cache returned an entry")
	}
	st := c.stats()
	if st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheHitMissAndEviction(t *testing.T) {
	c := quietCache(250) // room for two 100-byte entries
	c.put("a", entryFor("p"))
	c.put("b", entryFor("p"))
	if c.get([]byte("a")) == nil || c.get([]byte("b")) == nil {
		t.Fatal("stored entries missing")
	}
	c.put("c", entryFor("p")) // over budget: evicts a or b
	st := c.stats()
	if st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("after eviction: %d entries / %d bytes, want 2 / 200", st.Entries, st.Bytes)
	}
	if c.get([]byte("c")) == nil {
		t.Fatal("newest entry was the one evicted")
	}

	// Replacing an entry under the same key swaps the accounted bytes.
	big := entryFor("p")
	big.body = make([]byte, 150)
	c.put("c", big)
	if st := c.stats(); st.Bytes > 250 {
		t.Fatalf("replacement double-counted bytes: %+v", st)
	}

	// An entry larger than the whole budget is never stored.
	huge := entryFor("p")
	huge.body = make([]byte, 1000)
	c.put("huge", huge)
	if c.get([]byte("huge")) != nil {
		t.Fatal("over-budget entry was stored")
	}
}

// TestCacheGenerationClosesStoreRace plays the engine's side of the protocol
// by hand — a write bumps the generation, then sweeps — around an evaluation
// that started before it: whatever the interleaving, the stale result is not
// in the cache once the write is done.
func TestCacheGenerationClosesStoreRace(t *testing.T) {
	st := store.New()
	pid, err := st.Intern("p")
	if err != nil {
		t.Fatal(err)
	}
	res, touched := st.NewResolver(), []store.IDTriple{{S: pid, P: pid, O: pid}}
	var engine atomic.Uint64
	c := newResultCache(1<<20, engine.Load)
	entryAt := func(gen uint64) *cacheEntry {
		e := entryFor("p")
		e.gen = gen
		return e
	}
	g := engine.Load() // the evaluation reads the generation and starts

	// A put that precedes the write's bump is stored; the write's sweep, which
	// comes after the bump, drops it.
	c.put("early", entryAt(g))
	if c.get([]byte("early")) == nil {
		t.Fatal("an entry stored before any write is missing")
	}
	engine.Add(1)
	// Between the bump and the sweep the in-flight result is already refused…
	c.put("k", entryAt(g))
	if c.get([]byte("k")) != nil {
		t.Fatal("stale entry stored after the generation moved")
	}
	c.invalidate(res, touched, nil)
	if c.get([]byte("early")) != nil {
		t.Fatal("an entry stored before the bump survived the write's sweep")
	}
	// …and after the sweep.
	c.put("k", entryAt(g))
	if c.get([]byte("k")) != nil {
		t.Fatal("stale entry stored despite an interleaved invalidation")
	}
	// A fresh evaluation at the new generation stores fine and keeps the
	// generation it was computed at.
	c.put("k", entryAt(engine.Load()))
	if e := c.get([]byte("k")); e == nil || e.gen != engine.Load() {
		t.Fatalf("fresh entry %+v, want one at generation %d", e, engine.Load())
	}
}

func TestCachePredicateInvalidation(t *testing.T) {
	s := store.New()
	pid, err := s.Intern("p")
	if err != nil {
		t.Fatal(err)
	}
	res := s.NewResolver()

	c := quietCache(1 << 20)
	c.put("on-p", entryFor("p"))
	c.put("on-q", entryFor("q"))
	c.put("multi", entryFor("q", "p"))
	wild := entryFor()
	wild.anyPred = true
	c.put("wild", wild)

	c.invalidate(res, []store.IDTriple{{S: pid, P: pid, O: pid}}, nil)
	if c.get([]byte("on-p")) != nil {
		t.Fatal("entry on the mutated predicate survived")
	}
	if c.get([]byte("multi")) != nil {
		t.Fatal("multi-predicate entry mentioning p survived")
	}
	if c.get([]byte("wild")) != nil {
		t.Fatal("variable-predicate entry survived")
	}
	if c.get([]byte("on-q")) == nil {
		t.Fatal("entry on the untouched predicate was dropped")
	}
	if st := c.stats(); st.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", st.Invalidations)
	}
}
