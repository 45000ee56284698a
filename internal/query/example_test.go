package query_test

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/store"
)

// ExampleParseBGP parses the textual BGP form the command lines and the
// HTTP API accept: patterns separated by '.', '?name' a variable.
func ExampleParseBGP() {
	bgp, err := query.ParseBGP("?x type car . ?x locatedIn ?site")
	if err != nil {
		panic(err)
	}
	fmt.Println(bgp)
	fmt.Println(bgp.Vars())

	_, err = query.ParseBGP("?x type")
	fmt.Println(err)
	// Output:
	// ?x type car . ?x locatedIn ?site
	// [x site]
	// query: pattern "?x type" has 2 terms, want 3 (subject predicate object)
}

// ExampleEval evaluates a two-pattern join and drains the streaming
// solutions.
func ExampleEval() {
	s := store.New()
	if _, err := s.AddBatch([]store.Triple{
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "pickup1", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "beetle", Predicate: "locatedIn", Object: "rome"},
	}); err != nil {
		panic(err)
	}

	sols := query.Eval(s, query.MustParseBGP("?x type car . ?x locatedIn ?site"))
	for sols.Next() {
		x, _ := sols.Value("x")
		site, _ := sols.Value("site")
		fmt.Println(x, site)
	}
	if err := sols.Err(); err != nil {
		panic(err)
	}
	// Output:
	// beetle rome
}

// ExampleCanonical shows the cache key two spellings of one query share.
func ExampleCanonical() {
	a := query.MustParseBGP("?x type car . ?x locatedIn ?site")
	b := query.MustParseBGP("?v locatedIn ?where . ?v type car")
	fmt.Println(query.Canonical(a))
	fmt.Println(query.Canonical(a) == query.Canonical(b))
	// Output:
	// ?v0 locatedIn ?v1 . ?v0 type car
	// true
}
