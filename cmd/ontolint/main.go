// Command ontolint is the repository's vet tool: one binary bundling every
// custom analyzer in internal/tools/analyzers, driven by go vet so analysis
// results are cached and test variants are covered like any other unit:
//
//	go build -o /tmp/ontolint ./cmd/ontolint
//	go vet -vettool=/tmp/ontolint ./...
//
// The analyzers (see DESIGN.md "Enforced invariants"): lockcheck (mutex
// discipline), poolcheck (sync.Pool Get/Put balance and pointer-shaped
// pool members), maporder (no map-ordered user-visible output), interruptcheck
// (batch-pulling loops honor cancellation) and doccheck (exported identifiers
// are documented). Intentional violations are silenced, with a recorded
// reason, by an `//ontolint:ignore <analyzer> <reason>` comment on or above
// the offending line.
package main

import (
	"repro/internal/tools/analysis/unitchecker"
	"repro/internal/tools/analyzers/doccheck"
	"repro/internal/tools/analyzers/interruptcheck"
	"repro/internal/tools/analyzers/lockcheck"
	"repro/internal/tools/analyzers/maporder"
	"repro/internal/tools/analyzers/poolcheck"
)

func main() {
	unitchecker.Main(
		lockcheck.Analyzer,
		poolcheck.Analyzer,
		maporder.Analyzer,
		interruptcheck.Analyzer,
		doccheck.Analyzer,
	)
}
