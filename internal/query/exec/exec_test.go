package exec_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// expandFixture builds a store plus a candidate-expansion list whose entries
// all miss: the candidates only ever appear under a different predicate, so a
// scan for (?s p candidate) spins through every candidate without producing a
// row. That keeps a sequential scan inside one Next call long enough for the
// throttled cancellation poll to fire — the regression shape for the pull
// loop forgetting to consult its Ctx.
func expandFixture(t *testing.T, candidates int) (*store.Store, exec.Pattern, []store.SymbolID) {
	t.Helper()
	s := store.New()
	s.MustAdd(store.Triple{Subject: "s0", Predicate: "p", Object: "o0"})
	expand := make([]store.SymbolID, 0, candidates)
	for i := 0; i < candidates; i++ {
		obj := fmt.Sprintf("never-%d", i)
		s.MustAdd(store.Triple{Subject: "filler", Predicate: "q", Object: obj})
		id, ok := s.SymbolID(obj)
		if !ok {
			t.Fatalf("symbol %q not interned", obj)
		}
		expand = append(expand, id)
	}
	pid, ok := s.SymbolID("p")
	if !ok {
		t.Fatal(`symbol "p" not interned`)
	}
	return s, exec.Pattern{exec.Var(0), exec.Lit(pid), exec.Var(1)}, expand
}

// TestScanSequentialCancelledMidPull pins the fix for the sequential scan
// loop: cancellation must be observed between candidate pulls inside a single
// Next call, not only on entry. With an always-true Interrupt hook the scan
// must report ErrInterrupted; before the fix it drained all candidates and
// reported clean exhaustion.
func TestScanSequentialCancelledMidPull(t *testing.T) {
	s, pat, expand := expandFixture(t, 2048)
	op := exec.NewScan(s, pat, expand, 2)
	ctx := &exec.Ctx{Interrupt: func() bool { return true }}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			if !errors.Is(err, exec.ErrInterrupted) {
				t.Fatalf("Next error = %v, want ErrInterrupted", err)
			}
			return
		}
		if b == nil {
			t.Fatal("scan drained to exhaustion: cancellation was never consulted inside the pull loop")
		}
	}
}

// TestScanSequentialUncancelledDrains is the control for the fixture above:
// with no Interrupt hook the same scan must run to clean exhaustion, proving
// the interrupted run stopped because of the hook and not a scan error.
func TestScanSequentialUncancelledDrains(t *testing.T) {
	s, pat, expand := expandFixture(t, 2048)
	op := exec.NewScan(s, pat, expand, 2)
	ctx := &exec.Ctx{}
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatalf("Next error = %v, want clean exhaustion", err)
		}
		if b == nil {
			return
		}
	}
}

// TestScanMatchesReference drains a scan leaf of every bound shape — over a
// store and over a view — and checks its rows against a filter of the triples
// the fixture put in: the cursors (a view's: the base's, then the overlay's)
// report each matching triple once, across batch boundaries and across the
// two members.
func TestScanMatchesReference(t *testing.T) {
	base := store.New()
	var asserted, inferred []store.Triple
	for i := 0; i < 3*exec.BatchSize; i++ { // (? p0 o0) spans several refills
		asserted = append(asserted, store.Triple{Subject: fmt.Sprintf("s%d", i), Predicate: fmt.Sprintf("p%d", i%3), Object: fmt.Sprintf("o%d", i%5)})
	}
	if _, err := base.AddBatch(asserted); err != nil {
		t.Fatal(err)
	}
	overlay := base.NewOverlay()
	for i := 0; i < 2*exec.BatchSize; i++ {
		inferred = append(inferred, store.Triple{Subject: fmt.Sprintf("s%d", i), Predicate: "p0", Object: "inferred"})
	}
	if _, err := overlay.AddBatch(inferred); err != nil {
		t.Fatal(err)
	}
	view, err := store.NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) store.SymbolID {
		v, ok := base.SymbolID(name)
		if !ok {
			t.Fatalf("%q was never interned", name)
		}
		return v
	}
	s4, p0, o0 := id("s4"), id("p0"), id("o0")
	patterns := []store.IDPattern{
		{},
		{S: s4, BoundS: true}, {P: p0, BoundP: true}, {O: o0, BoundO: true},
		{S: s4, P: p0, BoundS: true, BoundP: true},
		{P: p0, O: o0, BoundP: true, BoundO: true},
		{S: s4, O: o0, BoundS: true, BoundO: true},
		{S: id("s0"), P: p0, O: o0, BoundS: true, BoundP: true, BoundO: true},
		{P: p0, O: id("inferred"), BoundP: true, BoundO: true},
	}
	term := func(bound bool, v store.SymbolID, slot int) exec.Term {
		if bound {
			return exec.Lit(v)
		}
		return exec.Var(slot)
	}
	sources := map[string]struct {
		src     exec.Source
		triples []store.Triple
	}{"store": {base, asserted}, "view": {view, slices.Concat(asserted, inferred)}}
	for name, c := range sources {
		src := c.src
		for _, ip := range patterns {
			var want, got []store.IDTriple
			for _, tr := range c.triples {
				it := store.IDTriple{S: id(tr.Subject), P: id(tr.Predicate), O: id(tr.Object)}
				if (!ip.BoundS || it.S == ip.S) && (!ip.BoundP || it.P == ip.P) && (!ip.BoundO || it.O == ip.O) {
					want = append(want, it)
				}
			}
			pat := exec.Pattern{term(ip.BoundS, ip.S, 0), term(ip.BoundP, ip.P, 1), term(ip.BoundO, ip.O, 2)}
			op := exec.NewScan(src, pat, nil, 3)
			var ctx exec.Ctx
			for {
				b, err := op.Next(&ctx)
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				for r := 0; r < b.N; r++ {
					vals := [3]store.SymbolID{ip.S, ip.P, ip.O}
					for i, tm := range pat {
						if tm.IsVar {
							vals[i] = b.Cols[i][r]
						}
					}
					got = append(got, store.IDTriple{S: vals[0], P: vals[1], O: vals[2]})
				}
			}
			store.SortIDTriples(got)
			store.SortIDTriples(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s, pattern %+v: scan yielded %d rows, the reference filter %d (or different rows)", name, ip, len(got), len(want))
			}
		}
	}
}

// fanoutFixture builds a store of subjects fan-0…, each with fanout distinct
// objects under predicate p, and returns the (?s p ?o) pattern with ?s in
// slot 0 and ?o in slot 1 plus the subjects' ids.
func fanoutFixture(t *testing.T, subjects, fanout int) (*store.Store, exec.Pattern, []store.SymbolID) {
	t.Helper()
	s := store.New()
	batch := make([]store.Triple, 0, subjects*fanout)
	for i := 0; i < subjects; i++ {
		for k := 0; k < fanout; k++ {
			batch = append(batch, store.Triple{Subject: fmt.Sprintf("fan-%d", i), Predicate: "p", Object: fmt.Sprintf("o-%d-%d", i, k)})
		}
	}
	if _, err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	pid, _ := s.SymbolID("p")
	ids := make([]store.SymbolID, subjects)
	for i := range ids {
		ids[i], _ = s.SymbolID(fmt.Sprintf("fan-%d", i))
	}
	return s, exec.Pattern{exec.Var(0), exec.Lit(pid), exec.Var(1)}, ids
}

// oneBatch is a reusable leaf yielding one fixed batch: the join tests'
// child, so that building and draining a join exercises no allocation but
// the join's own.
type oneBatch struct {
	b    exec.Batch
	sent bool
}

func (c *oneBatch) Next(*exec.Ctx) (*exec.Batch, error) {
	if c.sent {
		return nil, nil
	}
	c.sent = true
	return &c.b, nil
}

// windowEstimates are per-probe estimates selecting a probe window of one
// row, of a few rows, and of the whole child batch (no estimate).
var windowEstimates = []int{exec.BatchSize, exec.BatchSize / 3, 0}

// TestJoinWindowsMatchReference drains a join whose per-probe fan-out is
// several batches wide under each window size and checks the rows against
// the fixture's own (subject, object) pairs: windowing may reorder rows, never
// add, drop or mispair them with their child row.
func TestJoinWindowsMatchReference(t *testing.T) {
	const subjects, fanout = 5, 3*exec.BatchSize + 17
	s, pat, ids := fanoutFixture(t, subjects, fanout)
	var want []string
	for i, id := range ids {
		for k := 0; k < fanout; k++ {
			oid, _ := s.SymbolID(fmt.Sprintf("o-%d-%d", i, k))
			want = append(want, fmt.Sprint(id, oid))
		}
	}
	sort.Strings(want)
	for _, est := range windowEstimates {
		child := &oneBatch{b: exec.Batch{Cols: [][]store.SymbolID{ids, make([]store.SymbolID, subjects)}, N: subjects}}
		op := exec.NewJoin(child, s, pat, nil, []bool{true, false}, 2, est)
		var got []string
		var ctx exec.Ctx
		short := 0
		for {
			b, err := op.Next(&ctx)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if b.N > exec.BatchSize {
				t.Fatalf("estimate %d: batch of %d rows exceeds BatchSize", est, b.N)
			}
			if b.N < exec.BatchSize {
				short++
			}
			for r := 0; r < b.N; r++ {
				got = append(got, fmt.Sprint(b.Cols[0][r], b.Cols[1][r]))
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("estimate %d: join yielded %d rows, reference %d (or different rows)", est, len(got), len(want))
		}
		if short > 1 {
			t.Fatalf("estimate %d: %d short batches from one child batch; windows must not fragment the output", est, short)
		}
	}
}

// TestJoinFanoutSteadyStateAllocs pins the buffer-ownership contract: once a
// pooled join has grown its match buffers to a workload's fan-out, building,
// draining and releasing the same join again allocates nothing — whatever
// the window, and whether the join ends by exhaustion or by Close.
func TestJoinFanoutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const subjects, fanout = 4, 4 * exec.BatchSize
	s, pat, ids := fanoutFixture(t, subjects, fanout)
	child := &oneBatch{b: exec.Batch{Cols: [][]store.SymbolID{ids, make([]store.SymbolID, subjects)}, N: subjects}}
	bound := []bool{true, false}
	var ctx exec.Ctx // shared: a per-run Ctx would itself escape to the heap
	for _, est := range windowEstimates {
		for _, drain := range []bool{true, false} {
			rows := 0
			allocs := testing.AllocsPerRun(20, func() {
				child.sent = false
				op := exec.NewJoin(child, s, pat, nil, bound, 2, est)
				for {
					b, err := op.Next(&ctx)
					if err != nil || b == nil {
						return
					}
					rows += b.N
					if !drain {
						exec.Close(op)
						return
					}
				}
			})
			if allocs != 0 {
				t.Errorf("estimate %d, drain %v: %.0f allocs per build+drain, want 0", est, drain, allocs)
			}
			if drain && rows != 21*subjects*fanout {
				t.Errorf("estimate %d: drained %d rows over 21 runs, want %d", est, rows, 21*subjects*fanout)
			}
		}
	}
	if gets, puts := exec.PoolCounters(); gets != puts {
		t.Errorf("pool gets %d != puts %d after every join ended or was closed", gets, puts)
	}
}

// TestLeafPipelinesSteadyStateAllocs extends the buffer-ownership contract to
// every leaf: a scan over a store or over a view (one pooled cursor either
// way), a slice scan feeding a join (a semi-naive delta term) and a seed
// feeding a join (the rederivation test) are pooled like joins, so once
// warmed, building one and either draining it or closing it after its first
// batch allocates nothing, and every pool get is matched by a put.
func TestLeafPipelinesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const subjects, fanout = 4, 2 * exec.BatchSize
	s, pat, ids := fanoutFixture(t, subjects, fanout)
	pid := pat[1].ID
	delta := make([]store.IDTriple, subjects)
	for i, id := range ids {
		delta[i] = store.IDTriple{S: id, P: pid, O: id}
	}
	// The slice scan binds ?s (slot 0) and a copy of it (slot 2); the join
	// adds ?o (slot 1). The seed binds ?s alone.
	sliceBound := []bool{true, false, true}
	seedVals, seedBound := []store.SymbolID{ids[0], 0}, []bool{true, false}
	overlay := s.NewOverlay()
	if _, err := overlay.Add(store.Triple{Subject: "fan-0", Predicate: "p", Object: "inferred"}); err != nil {
		t.Fatal(err)
	}
	view, err := store.NewView(s, overlay)
	if err != nil {
		t.Fatal(err)
	}
	pipelines := []struct {
		name  string
		build func() exec.Op
		rows  int
	}{
		{"scan over a store", func() exec.Op { return exec.NewScan(s, pat, nil, 2) }, subjects * fanout},
		{"scan over a view", func() exec.Op { return exec.NewScan(view, pat, nil, 2) }, subjects*fanout + 1},
		{"slice", func() exec.Op {
			leaf := exec.NewSliceScan(delta, exec.Pattern{exec.Var(0), exec.Lit(pid), exec.Var(2)}, 3)
			return exec.NewJoin(leaf, s, pat, nil, sliceBound, 3, 0)
		}, subjects * fanout},
		{"seed", func() exec.Op {
			return exec.NewJoin(exec.NewSeed(seedVals, seedBound, 2), s, pat, nil, seedBound, 2, 0)
		}, fanout},
	}
	var ctx exec.Ctx // shared: a per-run Ctx would itself escape to the heap
	for _, p := range pipelines {
		for _, drain := range []bool{true, false} {
			rows := 0
			allocs := testing.AllocsPerRun(20, func() {
				op := p.build()
				for {
					b, err := op.Next(&ctx)
					if err != nil || b == nil {
						return
					}
					rows += b.N
					if !drain {
						exec.Close(op)
						return
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s, drain %v: %.0f allocs per build+drain, want 0", p.name, drain, allocs)
			}
			if drain && rows != 21*p.rows {
				t.Errorf("%s: drained %d rows over 21 runs, want %d", p.name, rows, 21*p.rows)
			}
		}
	}
	if gets, puts := exec.PoolCounters(); gets != puts {
		t.Errorf("pool gets %d != puts %d after every pipeline ended or was closed", gets, puts)
	}
}
