package doccheck_test

import (
	"testing"

	"repro/internal/tools/analysis/analysistest"
	"repro/internal/tools/analyzers/doccheck"
)

func TestDoccheck(t *testing.T) {
	defer func(prev []string) { doccheck.Packages = prev }(doccheck.Packages)
	doccheck.Packages = []string{"a", "nodoc"}
	analysistest.Run(t, analysistest.TestData(), doccheck.Analyzer, "a", "nodoc")
}
