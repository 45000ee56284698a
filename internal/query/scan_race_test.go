package query

// These tests back the concurrency claims of the batched evaluator's leaf
// scans: the scan cursor refills under the store's read-lock while writers
// mutate the store (AddBatch and Remove), and while a materialized View's
// overlay is written. Run under -race in CI. Solution sets are only sanity-checked — the
// docs promise consistency only against a quiescent store — but every
// streamed row must be well-formed and the iteration must never error.

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// raceStore builds a store big enough that a full scan refills its cursor
// some twenty times, with the writers running in between.
func raceStore(t testing.TB, n int) *store.Store {
	t.Helper()
	s := store.New()
	ts := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, store.Triple{
			Subject:   fmt.Sprintf("s%d", i),
			Predicate: fmt.Sprintf("p%d", i%7),
			Object:    fmt.Sprintf("o%d", i%97),
		})
	}
	if _, err := s.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	return s
}

// churn starts the two writers the scan tests run under — one batch-inserting
// fresh (extra-i-j p0 o0) triples, 64 at a time, the other removing them
// again — and returns the function that stops them and waits.
func churn(s *store.Store) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			batch := make([]store.Triple, 0, 64)
			for j := 0; j < 64; j++ {
				batch = append(batch, store.Triple{
					Subject:   fmt.Sprintf("extra-%d-%d", i, j),
					Predicate: "p0",
					Object:    "o0",
				})
			}
			if _, err := s.AddBatch(batch); err != nil {
				panic(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			for j := 0; j < 64; j++ {
				s.Remove(store.Triple{
					Subject:   fmt.Sprintf("extra-%d-%d", i, j),
					Predicate: "p0",
					Object:    "o0",
				})
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestScanUnderConcurrentWrites drives full scans while one goroutine
// batch-inserts fresh triples and another removes them again: the scan cursor
// must stay crash- and race-free while the store mutates under it between
// refills, and every pre-existing triple's row must remain well-formed.
func TestScanUnderConcurrentWrites(t *testing.T) {
	const n = 20_000
	s := raceStore(t, n)
	defer churn(s)()

	bgp := MustParseBGP("?s ?p ?o")
	for i := 0; i < 30; i++ {
		sols := Eval(s, bgp)
		rows := 0
		for sols.Next() {
			if v, ok := sols.Value("s"); !ok || v == "" {
				t.Fatalf("iteration %d: malformed subject binding (%q, %v)", i, v, ok)
			}
			rows++
		}
		if err := sols.Err(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// The writers only ever add and remove their own extra- triples, so
		// every original triple should be scannable... except those caught
		// mid-mutation, which the consistency contract allows to be missed.
		// A gross undercount would mean a cursor lost its position.
		if rows < n/2 {
			t.Fatalf("iteration %d: scan saw only %d of %d stable triples", i, rows, n)
		}
	}
}

// TestScanUnderConcurrentWritesObjectOnly is the same churn against the one
// shape that walks the whole POS family: an object-only cursor, and an
// object-only QueryIDBatch, over the very object whose subject list the
// writers grow and shrink. The cursor resumes by position inside that list
// between refills, so every row must still be well-formed and the stable
// matches must not be grossly undercounted.
func TestScanUnderConcurrentWritesObjectOnly(t *testing.T) {
	const n = 20_000
	s := raceStore(t, n)
	hot, ok := s.SymbolID("o0")
	if !ok {
		t.Fatal("o0 was never interned")
	}
	p := store.IDPattern{O: hot, BoundO: true}
	stable := s.StatsID(p).Count // i%97 == 0, spread over all seven predicates
	if stable < 200 {
		t.Fatalf("only %d stable matches of o0", stable)
	}
	probes := make([]store.IDPattern, 300)
	for i := range probes {
		oid, ok := s.SymbolID(fmt.Sprintf("o%d", i%97))
		if !ok {
			t.Fatalf("o%d was never interned", i%97)
		}
		probes[i] = store.IDPattern{O: oid, BoundO: true}
	}
	defer churn(s)()

	buf := make([]store.IDTriple, 256)
	for i := 0; i < 30; i++ {
		rows := 0
		pt := s.Scan(p)
		for done := false; !done; {
			var k int
			k, done = pt.NextBatch(buf)
			for _, tr := range buf[:k] {
				if tr.O != hot {
					t.Fatalf("iteration %d: cursor over (? ? o0) reported %v", i, tr)
				}
			}
			rows += k
		}
		pt.Release()
		if rows < stable/2 {
			t.Fatalf("iteration %d: cursor saw only %d of %d stable matches", i, rows, stable)
		}
		rows = 0
		s.QueryIDBatch(probes, func(pi int, tr store.IDTriple) bool {
			if tr.O != probes[pi].O {
				t.Errorf("iteration %d: probe %d for object %d answered %v", i, pi, probes[pi].O, tr)
				return false
			}
			rows++
			return true
		})
		if rows < n {
			t.Fatalf("iteration %d: 300 probes over all 97 objects saw only %d rows of a %d-triple store", i, rows, n)
		}
	}
}

// TestScanOverViewUnderOverlayWrites runs full scans over a View while the
// overlay is concurrently written (triples the base never holds, as the view
// contract requires) — the materialization-refresh shape, where inferred
// triples stream in while readers scan the union.
func TestScanOverViewUnderOverlayWrites(t *testing.T) {
	const n = 20_000
	base := raceStore(t, n)
	overlay := base.NewOverlay()
	view, err := store.NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr := store.Triple{Subject: fmt.Sprintf("inf-%d", i%512), Predicate: "p1", Object: "o1"}
			if i%2 == 0 {
				if _, err := overlay.Add(tr); err != nil {
					panic(err)
				}
			} else {
				overlay.Remove(tr)
			}
		}
	}()

	bgp := MustParseBGP("?s ?p ?o")
	for i := 0; i < 30; i++ {
		sols := Eval(view, bgp)
		rows := 0
		for sols.Next() {
			rows++
		}
		if err := sols.Err(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if rows < n/2 {
			t.Fatalf("iteration %d: union scan saw only %d of %d base triples", i, rows, n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWideScanIndependentOfGOMAXPROCS: a scan far wider than any threshold the
// removed shard-parallel path ever used returns the same row multiset and
// makes the same buffer-pool round trips whether the process has one P or
// four — there is one scan path, selected by nothing.
func TestWideScanIndependentOfGOMAXPROCS(t *testing.T) {
	s := raceStore(t, 20_000)
	bgp := MustParseBGP("?s ?p ?o")
	run := func(procs int) (rows []string, gets, puts int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		g0, p0 := exec.PoolCounters()
		sols := Eval(s, bgp)
		for sols.Next() {
			sv, _ := sols.Value("s")
			pv, _ := sols.Value("p")
			ov, _ := sols.Value("o")
			rows = append(rows, sv+" "+pv+" "+ov)
		}
		if err := sols.Err(); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		g1, p1 := exec.PoolCounters()
		sort.Strings(rows)
		return rows, g1 - g0, p1 - p0
	}
	rows1, gets1, puts1 := run(1)
	rows4, gets4, puts4 := run(4)
	if len(rows1) != 20_000 || !slices.Equal(rows1, rows4) {
		t.Fatalf("row multisets differ: %d rows on one P, %d on four", len(rows1), len(rows4))
	}
	if gets1 != gets4 || puts1 != puts4 || gets1 != puts1 {
		t.Fatalf("pool round trips differ: gets/puts %d/%d on one P, %d/%d on four", gets1, puts1, gets4, puts4)
	}
}
