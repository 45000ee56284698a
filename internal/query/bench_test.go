package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/tboxio"
)

// e5Store builds the E5-shaped corpus the store benchmarks use: n type
// annotations spread over a few hundred classes.
func e5Store(b *testing.B, n int) *store.Store {
	b.Helper()
	ts := make([]store.Triple, n)
	for i := range ts {
		ts[i] = store.Triple{
			Subject:   fmt.Sprintf("inst-%d", i),
			Predicate: store.TypePredicate,
			Object:    fmt.Sprintf("class-%d", i%317),
		}
	}
	s := store.New()
	if _, err := s.AddBatch(ts); err != nil {
		b.Fatal(err)
	}
	return s
}

// e5Index classifies a root class over 32 of the corpus classes, matching
// the 32-subsumee fan-out of the store package's expansion benchmark.
func e5Index(b testing.TB) *store.OntologyIndex {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("root <= exists r.k\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&sb, "class-%d <= root and exists r.k%d\n", i, i)
	}
	tb, err := tboxio.ParseString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		b.Fatal(err)
	}
	return oi
}

// BenchmarkExpandedClassQuery is the E5 class-query benchmark both ways:
// the retired InstancesOfExpanded helper's algorithm (a hand-rolled
// subsumee-union over ForEachSubject with string-keyed dedup, reproduced
// inline) against the same retrieval phrased as a one-pattern BGP with the
// Expand option. The two must return identical answers (the query tests
// prove it) at comparable cost — the bar for retiring the helper was that
// the BGP form not lose to it.
func BenchmarkExpandedClassQuery(b *testing.B) {
	const n = 100_000
	s := e5Store(b, n)
	oi := e5Index(b)
	b.Run("legacy-helper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// expandedReference (query_test.go) is the retired helper's
			// algorithm, shared with the equivalence test.
			if got := expandedReference(s, oi, "root"); len(got) == 0 {
				b.Fatal("no instances")
			}
		}
	})
	b.Run("bgp-expand", func(b *testing.B) {
		b.ReportAllocs()
		bgp := BGP{Pat(Var("x"), Lit(store.TypePredicate), Lit("root"))}
		for i := 0; i < b.N; i++ {
			got, err := Eval(s, bgp, Expand(oi)).Project("x")
			if err != nil {
				b.Fatal(err)
			}
			if len(got) == 0 {
				b.Fatal("no instances")
			}
		}
	})
}

// BenchmarkSolutionsStream measures the raw iterator: streaming every
// (instance, class) solution of an unselective pattern without
// materializing bindings.
func BenchmarkSolutionsStream(b *testing.B) {
	const n = 100_000
	s := e5Store(b, n)
	bgp := BGP{Pat(Var("x"), Lit(store.TypePredicate), Var("c"))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sols := Eval(s, bgp)
		count := 0
		for sols.Next() {
			count++
		}
		if count != n {
			b.Fatalf("streamed %d solutions, want %d", count, n)
		}
	}
}

// joinWorkload builds exactly n distinct triples with join structure on top
// of the type annotations: each instance carries a type triple and a
// locatedIn triple placing it in one of 89 sites, and every site sits in one
// of 7 regions, so 2- and 3-pattern BGPs have real work to do.
func joinWorkload(n int) []store.Triple {
	ts := make([]store.Triple, 0, n)
	for j := 0; j < 89 && len(ts) < n; j++ {
		ts = append(ts, store.Triple{Subject: fmt.Sprintf("site-%d", j), Predicate: "partOf", Object: fmt.Sprintf("region-%d", j%7)})
	}
	for i := 0; len(ts) < n; i++ {
		inst := fmt.Sprintf("inst-%d", i)
		ts = append(ts, store.Triple{Subject: inst, Predicate: store.TypePredicate, Object: fmt.Sprintf("class-%d", i%317)})
		if len(ts) < n {
			ts = append(ts, store.Triple{Subject: inst, Predicate: "locatedIn", Object: fmt.Sprintf("site-%d", i%89)})
		}
	}
	return ts
}

// benchJoin measures one BGP over the n-triple join corpus, reporting
// solutions per query so plan regressions show up as a metric change, not
// just a time change.
func benchJoin(b *testing.B, n int, bgp BGP) {
	s := store.New()
	if _, err := s.AddBatch(joinWorkload(n)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	solutions := 0
	for i := 0; i < b.N; i++ {
		sols := Eval(s, bgp)
		for sols.Next() {
			solutions++
		}
		if err := sols.Err(); err != nil {
			b.Fatal(err)
		}
	}
	if solutions == 0 {
		b.Fatal("join produced no solutions")
	}
	b.ReportMetric(float64(solutions)/float64(b.N), "solutions/query")
}

// BenchmarkQueryJoin2 measures a 2-pattern BGP join at 10⁵ triples: the
// instances of one class together with their sites.
func BenchmarkQueryJoin2(b *testing.B) {
	benchJoin(b, 100_000, MustParseBGP("?x type class-5 . ?x locatedIn ?site"))
}

// BenchmarkQueryJoin3 measures a 3-pattern BGP join at 10⁵ triples: the
// same, extended through the site→region edge.
func BenchmarkQueryJoin3(b *testing.B) {
	benchJoin(b, 100_000, MustParseBGP("?x type class-5 . ?x locatedIn ?site . ?site partOf ?region"))
}

// BenchmarkQueryJoin3At1e6 is the 3-pattern join at 10⁶ triples — the
// million-triple row of EXPERIMENTS.md's batched-execution table.
func BenchmarkQueryJoin3At1e6(b *testing.B) {
	benchJoin(b, 1_000_000, MustParseBGP("?x type class-5 . ?x locatedIn ?site . ?site partOf ?region"))
}
