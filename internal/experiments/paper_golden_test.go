//go:build paper

package experiments

import "testing"

// TestPaperTablesGoldenTimed is TestPaperTablesGolden for the experiments
// with timing columns, E5c and A1, which take seconds at their default
// parameters and so stay out of the default test run. CI's bench job runs it:
//
//	go test -tags paper -run TestPaperTablesGoldenTimed ./internal/experiments
func TestPaperTablesGoldenTimed(t *testing.T) {
	checkPaperTables(t, true)
}
