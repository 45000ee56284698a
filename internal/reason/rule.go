// Package reason is the store's materialization layer: a forward-chaining
// entailment engine that evaluates a declarative set of Horn rules over
// triple patterns to a fixpoint — RDFS-style subclass/subproperty reasoning
// plus arbitrary user rules — and keeps the result incrementally correct as
// the asserted triples change. DESIGN.md "The materialization layer" is its
// design, with the seed round's contract and the proof that propagation rules
// may skip their own conclusions.
//
// Materialize computes the entailments of a rule set by semi-naive evaluation
// at the dictionary-id level (each round joins only against the previous
// round's delta); inferred triples live in an overlay store sharing the base's
// dictionary and lock, and the union is served through a store.View that the
// query layer evaluates like any store, in query.Materialized mode. Apply is
// the one write: the adds propagate their delta, the removes run
// delete-and-rederive — overdelete every inferred triple whose derivation may
// have used a removed one, then rederive the survivors and propagate — never a
// recomputation from scratch. A write is one section on the view, one journal
// commit and one Delta (SetOnEvent).
//
// # Files
//
// rule.go holds Rule and its validation; rdfs.go the RDFS rule set; parse.go
// ParseRules; compile.go the compilation of rule atoms onto exec.Pattern, the
// per-delta-atom join orders and the propagation marking; seed.go the seed
// round (matchAll, the sorted head set, one LoadSorted); engine.go the
// Reasoner — Materialize and MaterializeServing, the term loop, Apply and
// DRed, the write scratch, Stats and the serving reads.
//
// # Tests
//
// ref_test.go holds the engine to the model's recompute-from-scratch closure
// (repro/internal/model) after every write of random rule sets and schedules
// (FuzzReasonMatchesReference), and random two-sided writes — removes drawn
// from the base, the write's own adds, inferred-only and absent triples, with
// repeats — to the model's counts and to "generation + 1 and one Delta iff
// anything changed" (TestApplyMatchesReference); an Add followed by its Remove
// restores the byte-identical provenance snapshot. bulk_test.go holds the seed
// round to Materialize over an empty base plus AddBatch and to the closure,
// over random and adversarial schemas with the head buffer shrunk, and pins
// which rules markPropagation marks. golden_test.go pins the boot figures,
// Stats, every Delta's sizes and the provenance sha256 of a seeded schedule
// (TestReasonCountsGolden), and that the registered counters read Stats.
// concurrency_test.go races every view read against maintenance and requires
// that no reader sees a state between two generations
// (TestReadsSeeOneGeneration). TestApplyLargeRetractionIsNotQuadratic times
// one large retraction against many small ones on the thread's CPU clock;
// TestApplySteadyStateAllocs pins a warmed retype at 5 allocations at most,
// the stores' own. closed_test.go holds MaterializeServing's closed view
// to the full materialization on every read over random corpora, property
// hierarchies and writes (TestClosedTypingMatchesRDFS), pins when it keeps
// type-propagation and subPropertyOf-propagation, that the serving corpus's
// overlay stores no super-property triple, and a cold closed Q2 and ?x
// within S at the stored ones' allocations. BenchmarkMaterializeServing times the boot fixpoint on the
// harness's corpus shape and BenchmarkRetypeServing one write on it.
package reason

import (
	"fmt"
	"strings"

	"repro/internal/query"
)

// Rule is one Horn rule over triple patterns: when every pattern of Body
// matches (sharing variables the way a BGP joins), the Head pattern —
// instantiated with the body's bindings — is entailed. Patterns reuse
// query.TriplePattern, so rules are written in the same Lit/Var vocabulary
// as queries and parse in the same textual syntax.
type Rule struct {
	// Name labels the rule in diagnostics and Stats; optional.
	Name string
	// Head is the single conclusion pattern. Every variable in it must
	// occur in the body (range restriction), so an instantiated head is
	// always ground.
	Head query.TriplePattern
	// Body is the non-empty conjunction of premise patterns.
	Body []query.TriplePattern
}

// String renders the rule in the textual form ParseRules reads:
// "head :- body . body".
func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, p := range r.Body {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s :- %s", r.Head.String(), strings.Join(parts, " . "))
}

// Validate checks the rule is well-formed: a non-empty body, every pattern
// well-formed (query.TriplePattern.Validate: no empty literals or variable
// names), and every head variable bound by the body. Range restriction is
// what guarantees termination — an instantiated head can only mention
// symbols that occur in matched triples or in the rule's own literals, so the
// derivable set is bounded by the finite Herbrand base and every fixpoint
// computation halts.
func (r Rule) Validate() error {
	if len(r.Body) == 0 {
		return fmt.Errorf("reason: rule %q has an empty body; facts belong in the store, not the rule set", r.Name)
	}
	bodyVars := map[string]bool{}
	for _, p := range r.Body {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("reason: rule %q body: %w", r.Name, err)
		}
		for _, t := range [...]query.Term{p.Subject, p.Predicate, p.Object} {
			if t.IsVar {
				bodyVars[t.Value] = true
			}
		}
	}
	if err := r.Head.Validate(); err != nil {
		return fmt.Errorf("reason: rule %q head: %w", r.Name, err)
	}
	for _, t := range [...]query.Term{r.Head.Subject, r.Head.Predicate, r.Head.Object} {
		if t.IsVar && !bodyVars[t.Value] {
			return fmt.Errorf("reason: rule %q head variable ?%s does not occur in the body (rules must be range-restricted)", r.Name, t.Value)
		}
	}
	return nil
}

// ValidateRules validates every rule of a set, identifying the offender by
// position and name.
func ValidateRules(rules []Rule) error {
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}
