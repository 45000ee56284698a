package store_test

import (
	"bytes"
	"fmt"

	"repro/internal/store"
)

// ExampleStore_Snapshot writes a store as JSON lines and restores it into a
// fresh store: the canonical sorted order makes snapshots byte-stable, so
// equal stores produce identical bytes whatever order they were built in.
func ExampleStore_Snapshot() {
	s := store.New()
	if _, err := s.AddBatch([]store.Triple{
		{Subject: "beetle", Predicate: "type", Object: "car"},
		{Subject: "beetle", Predicate: "locatedIn", Object: "rome"},
	}); err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	n, err := s.Snapshot(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(n, "triples")
	fmt.Print(buf.String())

	restored := store.New()
	if _, err := store.Restore(restored, &buf); err != nil {
		panic(err)
	}
	fmt.Println("restored:", restored.Len())
	// Output:
	// 2 triples
	// {"Subject":"beetle","Predicate":"locatedIn","Object":"rome"}
	// {"Subject":"beetle","Predicate":"type","Object":"car"}
	// restored: 2
}

// ExampleStore_Query shows the sorted deterministic ordering contract of
// the string-level pattern reads.
func ExampleStore_Query() {
	s := store.New()
	if _, err := s.AddBatch([]store.Triple{
		{Subject: "b", Predicate: "type", Object: "car"},
		{Subject: "a", Predicate: "type", Object: "car"},
		{Subject: "a", Predicate: "type", Object: "dog"},
	}); err != nil {
		panic(err)
	}
	for _, t := range s.Query(store.Pattern{Predicate: "type", Object: "car"}) {
		fmt.Println(t)
	}
	// Output:
	// (a type car)
	// (b type car)
}
