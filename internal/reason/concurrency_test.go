package reason

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/store"
)

// TestReasonConcurrentReadsDuringMaintenance races readers on every view
// read path against a writer driving incremental adds and removes through
// the reasoner, and now and then a two-sided Apply (a batch asserted and
// several triples retracted under the readers in one write). Written for
// -race: each write is one write section, so readers see the fixpoint before
// it or after it (TestReadsSeeOneGeneration checks that), and the final
// quiescent materialization must be exact.
func TestReasonConcurrentReadsDuringMaintenance(t *testing.T) {
	base := vehicleBase(t)
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	const writes = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.InstancesFunc("vehicle", func(string) bool { return true })
				r.View().Contains(store.Triple{Subject: "herbie", Predicate: store.TypePredicate, Object: "vehicle"})
				r.Provenance(store.Triple{Subject: "car", Predicate: SubClassOfPredicate, Object: "vehicle"})
				sols := r.Query(query.BGP{query.Pat(query.Var("x"), query.Lit(store.TypePredicate), query.Var("c"))})
				for sols.Next() {
				}
				if err := sols.Err(); err != nil {
					panic(err)
				}
				r.InferredCount()
			}
		}()
	}
	for i := 0; i < writes; i++ {
		tr := store.Triple{
			Subject:   fmt.Sprintf("inst-%d", i%16),
			Predicate: store.TypePredicate,
			Object:    []string{"car", "pickup", "roadvehicle"}[i%3],
		}
		if i%2 == 0 {
			if _, err := r.Add(tr); err != nil {
				t.Fatal(err)
			}
		} else {
			r.Remove(tr)
		}
		if i%50 == 49 {
			refile := []store.Triple{{Subject: "herbie", Predicate: store.TypePredicate, Object: "pickup"}, tr}
			if _, _, err := r.Apply(refile, base.Triples()[:3], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent again: the materialization must be the exact closure.
	checkAgainstNaive(t, r, r.Rules(), "after concurrent maintenance")
}

// TestReadsSeeOneGeneration: one writer asserts and retracts one triple with
// Apply, back to back, while one reader asks a question every generation
// answers alike. An answer any generation would not give is a torn read: the
// reader saw a state between two generations. The four reads are the ones a
// write changes through both stores: a query whose one row DRed overdeletes
// and restores, a query whose rows a propagation adds one by one, and the
// two class retrievals across a provenance flip (the triple moves between
// base and overlay). Each case stops after 20 000 reads or 500 ms. The
// writer yields after each write: a reader waits for every write section it
// meets, and without the yield a loaded machine under -race gave the reader
// too few turns to count.
func TestReadsSeeOneGeneration(t *testing.T) {
	sub := func(c, d string) store.Triple {
		return store.Triple{Subject: c, Predicate: SubClassOfPredicate, Object: d}
	}
	typ := func(x, c string) store.Triple {
		return store.Triple{Subject: x, Predicate: store.TypePredicate, Object: c}
	}
	rows := func(r *Reasoner, o query.Term) int {
		sols := r.Query(query.BGP{query.Pat(query.Lit("x"), query.Lit(store.TypePredicate), o)})
		n := 0
		for sols.Next() {
			n++
		}
		return n
	}
	for _, tc := range []struct {
		name string
		base []store.Triple
		flip store.Triple // retracted and re-asserted, or asserted and retracted
		torn func(r *Reasoner) bool
	}{
		{"x type C survives the rederivation", []store.Triple{sub("A", "B"), sub("B", "C"), typ("x", "A"), typ("x", "B")}, typ("x", "A"),
			func(r *Reasoner) bool { return rows(r, query.Lit("C")) != 1 }},
		{"x type ?c has 0 or 3 rows", []store.Triple{sub("A", "B"), sub("B", "C")}, typ("x", "A"),
			func(r *Reasoner) bool { n := rows(r, query.Var("c")); return n != 0 && n != 3 }},
		{"Subsumees across a provenance flip", []store.Triple{sub("A", "B"), sub("B", "C")}, sub("A", "C"),
			func(r *Reasoner) bool { return len(r.Subsumees("C")) != 3 }},
		{"Instances across a provenance flip", []store.Triple{sub("A", "C"), typ("x", "A")}, typ("x", "C"),
			func(r *Reasoner) bool { return !reflect.DeepEqual(r.Instances("C"), []string{"x"}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := store.New()
			if _, err := base.AddBatch(tc.base); err != nil {
				t.Fatal(err)
			}
			r, err := Materialize(base, RDFSRules())
			if err != nil {
				t.Fatal(err)
			}
			stop, started, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				flip := []store.Triple{tc.flip}
				for i := 0; ; i++ {
					if i == 1 {
						close(started)
					}
					select {
					case <-stop:
						return
					default:
					}
					var err error
					if i%2 == 0 {
						_, _, err = r.Apply(nil, flip, nil)
					} else {
						_, _, err = r.Apply(flip, nil, nil)
					}
					if err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}()
			<-started
			reads, torn := 0, 0
			for deadline := time.Now().Add(500 * time.Millisecond); reads < 20000 && time.Now().Before(deadline); reads++ {
				if tc.torn(r) {
					torn++
				}
			}
			close(stop)
			<-done
			if torn > 0 || reads < 200 {
				t.Fatalf("%d of %d reads saw a state no generation had (want 0 of at least 200)", torn, reads)
			}
			t.Logf("%d reads, none torn", reads)
		})
	}
}

// TestClosedReadsAcrossAReopen races readers of a closed super-property —
// the query, the class-retrieval walk and the count — against a writer that
// moves one instance in and out of it and, halfway, adds a property hazard,
// which reopens the closure under the readers. Every answer must be one a
// generation gives: ten or eleven subjects within s, before the reopen and
// after it. Written for -race.
func TestClosedReadsAcrossAReopen(t *testing.T) {
	within := func(x string) store.Triple { return store.Triple{Subject: x, Predicate: "locatedIn", Object: "s"} }
	base := store.New()
	ts := []store.Triple{{Subject: "locatedIn", Predicate: SubPropertyOfPredicate, Object: "within"}}
	for i := 0; i < 10; i++ {
		ts = append(ts, within(fmt.Sprintf("a%d", i)))
	}
	if _, err := base.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	r, err := MaterializeServing(base, RDFSRules())
	if err != nil || !r.PropertiesClosed() {
		t.Fatalf("MaterializeServing: %v, properties closed %v", err, r.PropertiesClosed())
	}
	bgp := query.MustParseBGP("?x within s")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := r.Query(bgp).All()
				subjects := 0
				r.View().ForEachSubject("within", "s", func(string) bool { subjects++; return true })
				if err != nil || len(rows) < 10 || len(rows) > 11 || subjects < 10 || subjects > 11 {
					t.Errorf("a read saw %d rows (%v) and %d subjects within s; every generation has 10 or 11", len(rows), err, subjects)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		var err error
		if i%2 == 0 {
			_, _, err = r.Apply([]store.Triple{within("x")}, nil, nil)
		} else {
			_, _, err = r.Apply(nil, []store.Triple{within("x")}, nil)
		}
		if i == 100 {
			_, _, err = r.Apply([]store.Triple{{Subject: "within", Predicate: DomainPredicate, Object: "Placed"}}, nil, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if r.PropertiesClosed() {
		t.Fatal("a domain on within, which has a sub-property, left the properties closed")
	}
	checkAgainstNaive(t, r, r.Rules(), "after the reopen")
}
