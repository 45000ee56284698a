package server

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// entryFor makes a 100-byte entry held once, as resultCache.entry does.
func entryFor(preds ...string) *cacheEntry {
	e := &cacheEntry{body: make([]byte, 100), preds: preds}
	e.refs.Store(1)
	return e
}

// quietCache is a cache over an engine that never writes: its generation
// stays 0, the generation entryFor's entries carry.
func quietCache(maxBytes int64) *resultCache {
	return newResultCache(maxBytes, func() uint64 { return 0 })
}

func TestCacheDisabledAlwaysMisses(t *testing.T) {
	c := quietCache(0)
	c.put([]byte("k"), entryFor("p"))
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
	c.put([]byte("a"), entryFor("p"))
	c.put([]byte("b"), entryFor("p"))
	if c.get([]byte("a")) == nil || c.get([]byte("b")) == nil {
		t.Fatal("stored entries missing")
	}
	c.put([]byte("c"), entryFor("p")) // over budget: evicts a or b
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
	c.put([]byte("c"), big)
	if st := c.stats(); st.Bytes > 250 {
		t.Fatalf("replacement double-counted bytes: %+v", st)
	}

	// An entry larger than the whole budget is never stored.
	huge := entryFor("p")
	huge.body = make([]byte, 1000)
	c.put([]byte("huge"), huge)
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
	c.put([]byte("early"), entryAt(g))
	if c.get([]byte("early")) == nil {
		t.Fatal("an entry stored before any write is missing")
	}
	engine.Add(1)
	// Between the bump and the sweep the in-flight result is already refused…
	c.put([]byte("k"), entryAt(g))
	if c.get([]byte("k")) != nil {
		t.Fatal("stale entry stored after the generation moved")
	}
	c.invalidate(res, touched, nil)
	if c.get([]byte("early")) != nil {
		t.Fatal("an entry stored before the bump survived the write's sweep")
	}
	// …and after the sweep.
	c.put([]byte("k"), entryAt(g))
	if c.get([]byte("k")) != nil {
		t.Fatal("stale entry stored despite an interleaved invalidation")
	}
	// A fresh evaluation at the new generation stores fine and keeps the
	// generation it was computed at.
	c.put([]byte("k"), entryAt(engine.Load()))
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
	c.put([]byte("on-p"), entryFor("p"))
	c.put([]byte("on-q"), entryFor("q"))
	c.put([]byte("multi"), entryFor("q", "p"))
	wild := entryFor()
	wild.anyPred = true
	c.put([]byte("wild"), wild)

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

// TestDeadEntriesAreReusedWhole: a miss reuses a dead entry — struct and body
// — whose capacity is from its length to twice that, the best fitting one,
// and never one a replay still holds.
func TestDeadEntriesAreReusedWhole(t *testing.T) {
	c := quietCache(1 << 20)
	sized := func(key string, n int) *cacheEntry {
		e := c.entry(make([]byte, n))
		e.preds = []string{"p"}
		c.put([]byte(key), e)
		return e
	}
	small, fit, big := sized("small", 90), sized("fit", 120), sized("big", 300)
	held := c.get([]byte("fit")) // a replay in flight
	if st := c.stats(); st.Bytes != 90+120+300 {
		t.Fatalf("bytes %d, want the bodies' capacities %d", st.Bytes, 90+120+300)
	}

	p := store.New()
	pid, err := p.Intern("p")
	if err != nil {
		t.Fatal(err)
	}
	c.invalidate(p.NewResolver(), []store.IDTriple{{S: pid, P: pid, O: pid}}, nil)
	if e := c.entry(make([]byte, 100)); e == fit {
		t.Fatal("a miss reused the body a replay still holds")
	} else if e == big || e == small {
		t.Fatalf("a 100-byte miss reused a %d-byte body: outside [100, 200]", cap(e.body))
	}
	c.release(held)
	if e := c.entry(make([]byte, 100)); e != fit || cap(e.body) != 120 || len(e.body) != 100 {
		t.Fatalf("a 100-byte miss did not reuse the released 120-byte entry whole (len %d cap %d)", len(e.body), cap(e.body))
	}
	if e := c.entry(make([]byte, 160)); e != big {
		t.Fatal("a 160-byte miss did not reuse the dead 300-byte entry")
	}
	if e := c.entry(make([]byte, 80)); e != small {
		t.Fatal("an 80-byte miss did not reuse the dead 90-byte entry")
	}
}

// TestDeadBodiesAreCollected: the cache holds dead entries only weakly, so
// once a write drops them the next collection gives their memory back.
func TestDeadBodiesAreCollected(t *testing.T) {
	const entries, size = 64, 64 << 10
	c := quietCache(entries * size)
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	body := make([]byte, size)
	for i := 0; i < entries; i++ {
		e := c.entry(body)
		e.preds = []string{"p"}
		c.put([]byte(strconv.Itoa(i)), e)
	}
	if st := c.stats(); st.Entries != entries {
		t.Fatalf("%d entries cached, want %d", st.Entries, entries)
	}
	filled := live()
	p := store.New()
	pid, err := p.Intern("p")
	if err != nil {
		t.Fatal(err)
	}
	c.invalidate(p.NewResolver(), []store.IDTriple{{S: pid, P: pid, O: pid}}, nil)
	after := live()
	runtime.KeepAlive(c) // the cache outlives the collection: only its dead entries may go
	t.Logf("heap %d B empty, %d B with %d cached bodies, %d B once they died", before, filled, entries, after)
	if filled < before+entries*size*9/10 {
		t.Fatalf("the cached bodies did not show in the heap: %d → %d", before, filled)
	}
	if after > before+size {
		t.Fatalf("the dead bodies stayed live: heap %d B before, %d B after (%d bodies of %d B died)", before, after, entries, size)
	}
}
