package reason

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// TestReasonConcurrentReadsDuringMaintenance races readers on every view
// read path against a writer driving incremental adds and removes through
// the reasoner, and now and then a two-sided Apply (a batch asserted and
// several triples retracted under the readers in one write). Written for
// -race: readers may observe
// mid-maintenance states (that is documented), but never a torn one, and the
// final quiescent materialization must be exact.
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
