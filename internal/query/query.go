// Package query is the store's declarative query layer: SPARQL-style basic
// graph patterns (BGPs) over repro/internal/store, with variables, joins,
// ontology-aware expansion and streaming solutions. DESIGN.md "The query
// layer" is its design; the operators it lowers onto are package exec.
//
// A TriplePattern is three Terms, each either a literal (Lit) or a variable
// (Var); a BGP is a conjunction of patterns joined on their shared variables.
// Eval plans the BGP from the source's per-pattern statistics and evaluates it
// as batched index-nested-loop joins on dictionary ids; solutions resolve to
// strings only when read.
//
//	sols := query.Eval(s, query.BGP{
//		query.Pat(query.Var("x"), query.Lit(store.TypePredicate), query.Lit("car")),
//		query.Pat(query.Var("x"), query.Lit("locatedIn"), query.Var("site")),
//	})
//	defer sols.Close()
//	for sols.Next() {
//		b := sols.Bind() // {"x": ..., "site": ...}
//	}
//
// With the Expand option, a pattern whose predicate is the literal
// store.TypePredicate and whose object is a literal class is rewritten into
// the union over the class's subsumees, as any Subsumer reports them — the
// paper's §4 ontology-mediated query answering as a query option (Instances is
// the one-pattern form). Solutions follow SPARQL bag semantics; All, and
// Project's deduplicated projection, are the conveniences most callers want.
// The audit (repro/internal/core), experiments E5 and E5b, cmd/ontoaudit and
// the server all query through this package.
//
// # Files
//
// query.go holds the terms, patterns, Validate and Compile; eval.go the
// planner, the lowering and Solutions; parse.go ParseBGP (one allocation,
// terms sliced from the text); canonical.go the one canonical form behind
// Canonical, CanonicalWithVars and AppendCanonical; trace.go the WithTrace
// planner record behind EXPLAIN.
//
// # Tests
//
// ref_test.go holds the evaluator to the model's backtracking evaluator
// (repro/internal/model) over random stores and BGPs — shared-variable joins,
// repeated variables, unsatisfiable literals, empty stores, expansion, the
// greedy planner — as a property test and FuzzEvalMatchesReference, with
// mid-batch interrupts and empty batches. parse_ref_test.go keeps the
// strings.Fields parser and the string-sort key as references for ParseBGP
// and AppendCanonical (FuzzParseAndKey). TestPlanOrderIndependence runs every
// permutation of a join; TestPlannerGolden pins the planner's decisions on the
// harness's query shapes; TestExpansionMatchesRawReadsOnE5Corpus holds Expand
// to the raw subsumee union; close_test.go requires every exit to return its
// executor buffers; scan_race_test.go runs scans under concurrent writes with
// -race. BenchmarkQueryJoin2 and BenchmarkQueryJoin3 pin 6 and 7 allocs/op.
package query

import (
	"fmt"
	"strings"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// Term is one component of a triple pattern: a literal value or a named
// variable. The zero Term is an empty literal, which no triple can match
// (Eval reports it as an error).
type Term struct {
	// Value is the literal value, or the variable's name.
	Value string
	// IsVar distinguishes a variable from a literal.
	IsVar bool
}

// Var returns a variable term. Occurrences of the same name anywhere in a
// BGP denote the same variable and must bind to the same value.
func Var(name string) Term {
	return Term{Value: name, IsVar: true}
}

// Lit returns a literal term.
func Lit(value string) Term {
	return Term{Value: value}
}

// String renders the term in the textual form ParseBGP reads: ?name for a
// variable, the bare value for a literal.
func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Value
	}
	return t.Value
}

// TriplePattern is one pattern of a BGP: a triple whose components may be
// variables. It replaces the bound-only store.Pattern for query purposes —
// a store.Pattern can only say "wildcard", a TriplePattern names the
// wildcard so patterns can join on it.
type TriplePattern struct {
	Subject, Predicate, Object Term
}

// Pat builds a triple pattern.
func Pat(subject, predicate, object Term) TriplePattern {
	return TriplePattern{Subject: subject, Predicate: predicate, Object: object}
}

// terms returns the components in subject, predicate, object order.
func (p TriplePattern) terms() [3]Term {
	return [3]Term{p.Subject, p.Predicate, p.Object}
}

// String renders the pattern in the textual form ParseBGP reads.
func (p TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s", p.Subject, p.Predicate, p.Object)
}

// Validate reports a malformed pattern: a variable with an empty name, or an
// empty literal, which no triple can match. It is the one such check — Eval
// runs it on every pattern of a BGP, reason's Rule.Validate on every atom of
// a rule.
func (p TriplePattern) Validate() error {
	for _, t := range p.terms() {
		switch {
		case t.Value != "":
		case t.IsVar:
			return fmt.Errorf("pattern (%s) names a variable with an empty name", p)
		default:
			return fmt.Errorf("pattern (%s) has an empty literal; no triple can match it", p)
		}
	}
	return nil
}

// Compile is the one compiler of a triple pattern to the operator runtime's
// form: each variable becomes the slot that slot assigns its name, each
// literal the id that lit assigns its value. Eval compiles a BGP with its
// variable table and the source's dictionary; the reasoner compiles a rule's
// atoms with the rule's table, interning literals eagerly.
func (p TriplePattern) Compile(slot func(name string) int, lit func(value string) store.SymbolID) exec.Pattern {
	var out exec.Pattern
	for i, t := range p.terms() {
		if t.IsVar {
			out[i] = exec.Var(slot(t.Value))
		} else {
			out[i] = exec.Lit(lit(t.Value))
		}
	}
	return out
}

// BGP is a basic graph pattern: a conjunction of triple patterns joined on
// their shared variables. An empty BGP has exactly one solution, the empty
// binding (the neutral element of the join).
type BGP []TriplePattern

// Vars returns the variable names of the BGP in order of first appearance
// (subject, predicate, object within a pattern; patterns in BGP order,
// regardless of the order the planner evaluates them in).
func (b BGP) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range b {
		for _, t := range p.terms() {
			if t.IsVar && !seen[t.Value] {
				seen[t.Value] = true
				out = append(out, t.Value)
			}
		}
	}
	return out
}

// String renders the BGP in the textual form ParseBGP reads: patterns
// joined by " . ".
func (b BGP) String() string {
	parts := make([]string, len(b))
	for i, p := range b {
		parts[i] = p.String()
	}
	return strings.Join(parts, " . ")
}

// Binding is one solution of a BGP: a value for every variable.
type Binding map[string]string
