package experiments

import (
	"strconv"
	"testing"
)

// The benchmarks below regenerate, one per table, the experiments recorded in
// EXPERIMENTS.md with their default parameters. Each benchmark reports the
// experiment's headline figure as a custom metric so the shape of the result
// is visible directly in the -bench output, alongside the usual time and
// allocation figures.
//
//	go test -bench=. -benchmem ./internal/experiments
//
// cmd/benchrunner prints the full tables instead of timing them.

// metric parses a numeric cell from an experiment table for ReportMetric.
func metric(b *testing.B, tbl *Table, row int, column string) float64 {
	b.Helper()
	cell := tbl.Cell(row, column)
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("experiment %s: cell (%d, %s) = %q is not numeric", tbl.ID, row, column, cell)
	}
	return v
}

// BenchmarkE1Definitions regenerates the E1 table: acceptance rates of the
// three definitions of "ontonomy" over a mixed artifact population.
func BenchmarkE1Definitions(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E1(DefaultE1Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "discrimination"), "functional-discrimination")
	b.ReportMetric(metric(b, tbl, 2, "discrimination"), "structural-discrimination")
}

// BenchmarkE2Isomorphism regenerates the E2 figure: structural-meaning
// collision rate vs definition size.
func BenchmarkE2Isomorphism(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E2(DefaultE2Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "collision rate"), "collision-rate-smallest-k")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "collision rate"), "collision-rate-largest-k")
}

// BenchmarkE3Differentiation regenerates the E3 figure: collisions remaining
// vs unfolding depth.
func BenchmarkE3Differentiation(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E3(DefaultE3Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "colliding pairs"), "collisions-depth0-smallest-vocab")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "mean unfolded size"), "mean-size-deepest")
}

// BenchmarkE4SemanticFields regenerates the E4 table: atomistic vs
// field-relative translation loss.
func BenchmarkE4SemanticFields(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E4(DefaultE4Params())
	}
	rows := len(tbl.Rows)
	b.ReportMetric(metric(b, tbl, rows-2, "atomistic error"), "doorknob-atomistic-error")
	b.ReportMetric(metric(b, tbl, rows-2, "field-relative error"), "doorknob-field-error")
}

// BenchmarkE5Pragmatics regenerates the E5 table: retrieval quality vs
// annotation drift with and without ontology expansion.
func BenchmarkE5Pragmatics(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E5(DefaultE5Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "expanded F1"), "expanded-F1-no-drift")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "expanded F1"), "expanded-F1-max-drift")
}

// BenchmarkE5bEvolution regenerates the E5b table: a fixed ontonomy against
// evolving usage categories.
func BenchmarkE5bEvolution(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E5b(DefaultE5bParams())
	}
	b.ReportMetric(metric(b, tbl, 0, "ontology macro F1"), "ontology-F1-no-splits")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "ontology macro F1"), "ontology-F1-max-splits")
}

// BenchmarkE6Hermeneutic regenerates the E6 table: interpretation accuracy
// with and without reader context.
func BenchmarkE6Hermeneutic(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E6(DefaultE6Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "mean accuracy"), "accuracy-no-context")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "mean accuracy"), "accuracy-rich-context")
}

// BenchmarkE7Transmission regenerates the E7 table: fidelity along a chain of
// readers under situated vs policed readings.
func BenchmarkE7Transmission(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = E7(DefaultE7Params())
	}
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "situated fidelity"), "situated-fidelity-end-of-chain")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "override rate"), "override-rate-end-of-chain")
}

// BenchmarkA1Subsumption regenerates the A1 ablation: subsumption query cost
// across hierarchy shapes and reasoning procedures.
func BenchmarkA1Subsumption(b *testing.B) {
	var tbl *Table
	for i := 0; i < b.N; i++ {
		tbl = A1(DefaultA1Params())
	}
	b.ReportMetric(metric(b, tbl, 0, "mean µs/query"), "structural-tree-us-per-query")
	b.ReportMetric(metric(b, tbl, len(tbl.Rows)-1, "mean µs/query"), "tableau-dag-us-per-query")
}
