// Package reason is the store's materialization layer: a forward-chaining
// entailment engine that evaluates a declarative set of Horn rules over
// triple patterns to a fixpoint — RDFS-style subclass/subproperty reasoning
// plus arbitrary user rules — and keeps the result incrementally correct as
// the asserted triples change.
//
// The paper's §4 treats the ontology as something the database consults at
// query time; at production scale, read-heavy workloads want the entailed
// triples materialized once and every retrieval to be a plain index read.
// This package turns the query layer's Expand rewriting into a precomputed
// inference layer: Materialize computes the entailments of a rule set by
// semi-naive evaluation at the dictionary-id level (each round joins only
// against the previous round's delta, so work is proportional to new facts,
// not to the whole database), inferred triples live in an overlay store
// sharing the base's dictionary (store.NewOverlay), and the union is served
// through a store.View that the query layer evaluates like any store —
// query.Materialized replaces query.Expand.
//
// Maintenance is incremental in both directions. Add propagates just the
// delta through the rules. Remove runs delete-and-rederive (DRed):
// overdelete every inferred triple whose derivation may have used the
// removed one, then rederive the survivors from what remains and propagate —
// never a recomputation from scratch. The engine is verified against a naive
// recompute-from-scratch reference evaluator by property and fuzz tests, and
// an Add followed by its Remove provably restores the byte-identical
// materialization snapshot.
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
