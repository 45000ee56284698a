package reason_test

import (
	"fmt"

	"repro/internal/reason"
	"repro/internal/store"
)

// ExampleMaterialize forward-chains the RDFS rules over a two-class
// hierarchy and reads the entailed annotations back.
func ExampleMaterialize() {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "car", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
	}); err != nil {
		panic(err)
	}

	r, err := reason.Materialize(base, reason.RDFSRules())
	if err != nil {
		panic(err)
	}
	fmt.Println(r.Instances("vehicle"))
	prov, _ := r.Provenance(store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "vehicle"})
	fmt.Println(prov)
	// Output:
	// [beetle]
	// inferred
}

// ExampleReasoner_Add shows incremental maintenance: adding one triple
// propagates only its consequences, and the event hook observes both the
// asserted triple and the inference.
func ExampleReasoner_Add() {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "car", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
	}); err != nil {
		panic(err)
	}
	r, err := reason.Materialize(base, reason.RDFSRules())
	if err != nil {
		panic(err)
	}

	res := base.NewResolver()
	r.SetOnEvent(func(d reason.Delta) {
		for _, t := range d.Added {
			fmt.Printf("+ %s %s %s\n", res.Name(t.S), res.Name(t.P), res.Name(t.O))
		}
	})

	if _, err := r.Add(store.Triple{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"}); err != nil {
		panic(err)
	}
	// Output:
	// + beetle type car
	// + beetle type vehicle
}
