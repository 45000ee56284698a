package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/reason"
	"repro/internal/store"
)

// TestConcurrentQueriesAndMutations hammers the handler from parallel
// readers while a writer streams mutations through /triples — the test the
// race detector watches: queries read the view and the cache while
// mutations re-materialize and invalidate. Assertions are weak on purpose
// (every response well-formed, final state exact); the value is the
// interleaving.
func TestConcurrentQueriesAndMutations(t *testing.T) {
	s := newTestServer(t, Config{})
	const (
		readers = 4
		rounds  = 60
	)
	queries := []string{"?x type vehicle", "?x type car", "?x locatedIn ?y", "?x ?p rome"}

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res := postQuery(t, s, QueryRequest{BGP: queries[(r+i)%len(queries)]})
				if res.status != 200 || res.trailer.Error != "" {
					t.Errorf("reader %d: status=%d trailer=%+v", r, res.status, res.trailer)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			subj := fmt.Sprintf("van%d", i)
			code, _, errResp := postTriples(t, s, MutateRequest{Add: []TripleJSON{
				{Subject: subj, Predicate: store.TypePredicate, Object: "car"},
			}})
			if code != 200 {
				t.Errorf("writer add %d: %d %s", i, code, errResp.Error)
				return
			}
			if i%2 == 0 {
				code, _, errResp = postTriples(t, s, MutateRequest{Remove: []TripleJSON{
					{Subject: subj, Predicate: store.TypePredicate, Object: "car"},
				}})
				if code != 200 {
					t.Errorf("writer remove %d: %d %s", i, code, errResp.Error)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent state is exact: the odd-i vans survived, each inferred up to
	// vehicle.
	res := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"})
	want := 3 + rounds/2 // beetle, hilux, bus1 + surviving vans
	if len(res.rows) != want {
		t.Fatalf("final vehicle retrieval has %d rows, want %d", len(res.rows), want)
	}
}

// TestAnswerMatchesItsGeneration: a writer alternates two writes through
// POST /triples — assert x type A, retract it — with a pause after each,
// while readers send /query
// requests, cached and uncached. Every write changes the engine, so a
// generation's parity fixes its state: even generations (0, at boot,
// included) have no x, odd ones have x in A and, inferred, B and C. Every
// answer whose trailer names a generation must be that generation's answer;
// an answer that omits it overlapped a write and is only counted.
func TestAnswerMatchesItsGeneration(t *testing.T) {
	base := store.New()
	schema := []store.Triple{
		{Subject: "A", Predicate: reason.SubClassOfPredicate, Object: "B"},
		{Subject: "B", Predicate: reason.SubClassOfPredicate, Object: "C"},
	}
	for i := 0; i < 40; i++ {
		schema = append(schema, store.Triple{Subject: fmt.Sprintf("s%02d", i), Predicate: store.TypePredicate, Object: "A"})
	}
	if _, err := base.AddBatch(schema); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Base: base})
	type probe struct {
		bgp, v    string
		even, odd []string // the sorted answer at an even and an odd generation
	}
	var members []string
	for i := 0; i < 40; i++ {
		members = append(members, fmt.Sprintf("s%02d", i))
	}
	probes := []probe{
		{"x type ?c", "c", nil, []string{"A", "B", "C"}},
		{"?x type C", "x", members, append(append([]string(nil), members...), "x")},
		{"?x type ?c . ?c subClassOf C", "x", append(members, members...), append(append(append([]string(nil), members...), members...), "x", "x")},
	}
	for _, p := range probes {
		sort.Strings(p.even)
		sort.Strings(p.odd)
	}

	xa := []TripleJSON{{Subject: "x", Predicate: store.TypePredicate, Object: "A"}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := MutateRequest{Add: xa}
			if i%2 == 1 {
				req = MutateRequest{Remove: xa}
			}
			if code, _, errResp := postTriples(t, s, req); code != 200 {
				t.Errorf("write %d: %d %s", i, code, errResp.Error)
				return
			}
			time.Sleep(100 * time.Microsecond) // room for whole answers
		}
	}()

	const readers, perReader = 2, 1500
	var wg sync.WaitGroup
	var checked, omitted, cached atomic.Int64
	deadline := time.Now().Add(time.Second)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader && time.Now().Before(deadline); i++ {
				p := probes[i%len(probes)]
				req := QueryRequest{BGP: p.bgp}
				if i%2 == 1 {
					req.Limit = 1000 + r*perReader + i // a key of its own: a miss
				}
				res := postQuery(t, s, req)
				if res.status != 200 || res.trailer.Error != "" {
					t.Errorf("%q: status %d, trailer %+v", p.bgp, res.status, res.trailer)
					return
				}
				if res.trailer.Cached {
					cached.Add(1)
				}
				g := res.trailer.Generation
				if g == nil {
					omitted.Add(1)
					continue
				}
				want := p.even
				if *g%2 == 1 {
					want = p.odd
				}
				if got := res.values(p.v); !equalStrings(got, want) {
					t.Errorf("%q (cached %v) at generation %d answered %v, want %v", p.bgp, res.trailer.Cached, *g, got, want)
					return
				}
				checked.Add(1)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-done
	if checked.Load() < 20 {
		t.Fatalf("only %d answers named a generation", checked.Load())
	}
	t.Logf("%d answers matched their generation (%d of them cached); %d omitted the generation", checked.Load(), cached.Load(), omitted.Load())
}

// TestReplayNeverSeesRecycledBody: readers replay and evaluate queries whose
// answers are all the same size — one class under eight variable names, so a
// dead entry under one key is the best fit for a miss under any other — while
// a writer toggles an instance, invalidating them all each time. Every
// answer that names a generation, every replay among them, must be that
// generation's answer under its own variable: a body recycled while a replay
// still wrote it would show another key's name or another generation's rows
// (and, under -race, the unsynchronized overwrite).
func TestReplayNeverSeesRecycledBody(t *testing.T) {
	base := store.New()
	ts := []store.Triple{{Subject: "A", Predicate: reason.SubClassOfPredicate, Object: "B"}}
	var members []string
	for i := 0; i < 40; i++ {
		members = append(members, fmt.Sprintf("s%02d", i))
		ts = append(ts, store.Triple{Subject: members[i], Predicate: store.TypePredicate, Object: "A"})
	}
	if _, err := base.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Base: base})
	even, odd := members, append(append([]string(nil), members...), "xx")
	sort.Strings(odd)

	xa := []TripleJSON{{Subject: "xx", Predicate: store.TypePredicate, Object: "A"}}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req := MutateRequest{Add: xa}
			if i%2 == 1 {
				req = MutateRequest{Remove: xa}
			}
			if code, _, errResp := postTriples(t, s, req); code != 200 {
				t.Errorf("write %d: %d %s", i, code, errResp.Error)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const readers, perReader = 4, 4000
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	var checked, replays atomic.Int64
	deadline := time.Now().Add(time.Second)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader && time.Now().Before(deadline); i++ {
				v := vars[(i*7+r)%len(vars)]
				res := postQuery(t, s, QueryRequest{BGP: "?" + v + " type B"})
				if res.status != 200 || res.trailer.Error != "" {
					t.Errorf("?%s type B: status %d, trailer %+v", v, res.status, res.trailer)
					return
				}
				g := res.trailer.Generation
				if g == nil {
					continue
				}
				want := even
				if *g%2 == 1 {
					want = odd
				}
				if len(res.header.Vars) != 1 || res.header.Vars[0] != v {
					t.Errorf("?%s type B (cached %v) at generation %d answered under the variables %v", v, res.trailer.Cached, *g, res.header.Vars)
					return
				}
				if got := res.values(v); !equalStrings(got, want) {
					t.Errorf("?%s type B (cached %v) at generation %d answered %v, want %v", v, res.trailer.Cached, *g, got, want)
					return
				}
				checked.Add(1)
				if res.trailer.Cached {
					replays.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-done
	if replays.Load() < 20 {
		t.Fatalf("only %d replays named their generation", replays.Load())
	}
	t.Logf("%d answers matched their generation and variable, %d of them replays", checked.Load(), replays.Load())
}
