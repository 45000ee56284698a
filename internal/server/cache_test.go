package server

import (
	"fmt"
	"testing"

	"repro/internal/store"
)

func entryFor(preds ...string) *cacheEntry {
	return &cacheEntry{body: make([]byte, 100), preds: preds}
}

func TestCacheDisabledAlwaysMisses(t *testing.T) {
	c := newResultCache(0, 4)
	c.put("k", entryFor("p"), c.generation())
	if c.get("k") != nil {
		t.Fatal("zero-budget cache returned an entry")
	}
	st := c.stats()
	if st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheHitMissAndEviction(t *testing.T) {
	c := newResultCache(250, 1) // one shard, room for two 100-byte entries
	g := c.generation()
	c.put("a", entryFor("p"), g)
	c.put("b", entryFor("p"), g)
	if c.get("a") == nil || c.get("b") == nil {
		t.Fatal("stored entries missing")
	}
	c.put("c", entryFor("p"), g) // over budget: evicts a or b
	st := c.stats()
	if st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("after eviction: %d entries / %d bytes, want 2 / 200", st.Entries, st.Bytes)
	}
	if c.get("c") == nil {
		t.Fatal("newest entry was the one evicted")
	}

	// Replacing an entry under the same key swaps the accounted bytes.
	big := entryFor("p")
	big.body = make([]byte, 150)
	c.put("c", big, g)
	if st := c.stats(); st.Bytes > 250 {
		t.Fatalf("replacement double-counted bytes: %+v", st)
	}

	// An entry larger than the whole shard budget is never stored.
	huge := entryFor("p")
	huge.body = make([]byte, 1000)
	c.put("huge", huge, g)
	if c.get("huge") != nil {
		t.Fatal("over-budget entry was stored")
	}
}

func TestCacheGenerationClosesStoreRace(t *testing.T) {
	c := newResultCache(1<<20, 2)
	g := c.generation()
	// A mutation invalidates while the evaluation is in flight…
	var res store.Resolver
	c.invalidate(res, nil, nil)
	// …so the stale result must not enter the cache.
	c.put("k", entryFor("p"), g)
	if c.get("k") != nil {
		t.Fatal("stale entry stored despite an interleaved invalidation")
	}
	// A fresh evaluation at the new generation stores fine.
	c.put("k", entryFor("p"), c.generation())
	if c.get("k") == nil {
		t.Fatal("fresh entry missing")
	}
}

func TestCachePredicateInvalidation(t *testing.T) {
	s := store.New()
	pid, err := s.Intern("p")
	if err != nil {
		t.Fatal(err)
	}
	res := s.NewResolver()

	c := newResultCache(1<<20, 2)
	g := c.generation()
	c.put("on-p", entryFor("p"), g)
	c.put("on-q", entryFor("q"), g)
	c.put("multi", entryFor("q", "p"), g)
	wild := entryFor()
	wild.anyPred = true
	c.put("wild", wild, g)

	c.invalidate(res, []store.IDTriple{{S: pid, P: pid, O: pid}}, nil)
	if c.get("on-p") != nil {
		t.Fatal("entry on the mutated predicate survived")
	}
	if c.get("multi") != nil {
		t.Fatal("multi-predicate entry mentioning p survived")
	}
	if c.get("wild") != nil {
		t.Fatal("variable-predicate entry survived")
	}
	if c.get("on-q") == nil {
		t.Fatal("entry on the untouched predicate was dropped")
	}
	if st := c.stats(); st.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", st.Invalidations)
	}
}

func TestCacheNilDeltaFlushesAll(t *testing.T) {
	var res store.Resolver
	c := newResultCache(1<<20, 4)
	g := c.generation()
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%d", i), entryFor("p"), g)
	}
	c.invalidate(res, nil, nil)
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("%d entries survived a global flush", st.Entries)
	}
}
