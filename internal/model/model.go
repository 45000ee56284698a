// Package model is the one naive reference the engine is held to: a set of
// triples, one backtracking matcher of basic graph patterns over it, the rule
// closure as a fixpoint of that same matcher, and a ledger of the writes a
// server acknowledged. It is deliberately the dumbest correct implementation
// — no dictionary, no index, no plan, no incremental maintenance — so an
// engine that agrees with it is right for a reason the engine does not share.
// DESIGN.md "The reference model" places it.
//
// Set.Match filters by one pattern (the store's reference); Set.Eval
// backtracks over every triple in pattern order, with a subsumees hook that
// rewrites ?x type C as query.Expand does (the query layer's); Set.Closure
// runs Eval over each rule body until a pass derives nothing new (the
// reasoner's); Set.Apply is one write as reason.Reasoner.Apply performs it,
// adds one by one, then removes; Set.Subsumees reads a closure's subClassOf
// as reason.Reasoner.Subsumees does. A Ledger (ledger.go) records the
// asserted set after each acknowledged write, keyed by (incarnation,
// generation) because generations restart at every reopen, and a tail of
// writes sent but not acknowledged, of which a crash may keep any prefix
// (Recoverable).
//
// The store, query and reason suites hold their packages to it, and the
// durable composition rig holds a whole server to it. It imports only the
// standard library, which is what lets the in-package tests of those packages
// import it without a cycle (TestModelImportsOnlyTheStandardLibrary keeps it
// so). Every slice it returns is sorted, and TestModelHandWorked holds it to
// answers worked out by hand — a repeated variable, an unsatisfiable literal,
// expansion through two levels, the six RDFS rules on three classes —
// because a wrong reference passes a wrong engine.
package model

import (
	"cmp"
	"maps"
	"slices"
	"strings"
)

// TypePredicate is the predicate of the patterns Eval's subsumees hook
// rewrites: the store's "type".
const TypePredicate = "type"

// SubClassOfPredicate is the predicate Subsumees reads: the RDFS rules'
// "subClassOf".
const SubClassOfPredicate = "subClassOf"

// Triple is one fact. It has store.Triple's fields, so each converts to the
// other.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the triple as its three terms separated by spaces.
func (t Triple) String() string { return t.Subject + " " + t.Predicate + " " + t.Object }

// compare orders triples by subject, then predicate, then object, as the
// store's sorted reads do.
func (t Triple) compare(u Triple) int {
	return cmp.Or(strings.Compare(t.Subject, u.Subject),
		strings.Compare(t.Predicate, u.Predicate),
		strings.Compare(t.Object, u.Object))
}

// Term is a literal or a variable. It has query.Term's fields, so a query
// term converts to it.
type Term struct {
	Value string
	IsVar bool
}

// Pattern is one triple pattern; a basic graph pattern is a []Pattern.
type Pattern struct {
	Subject, Predicate, Object Term
}

// Rule derives its Head, instantiated, from every solution of its Body.
type Rule struct {
	Head Pattern
	Body []Pattern
}

// Binding maps each variable of a solution to its value. It has
// query.Binding's type, so each converts to the other.
type Binding map[string]string

// String renders the binding as "name=value" pairs sorted by name, each
// followed by a space: two bindings are equal exactly when their strings are.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k + "=" + b[k] + " ")
	}
	return sb.String()
}

// Set is a set of triples.
type Set map[Triple]bool

// NewSet returns the set of ts.
func NewSet(ts ...Triple) Set {
	s := make(Set, len(ts))
	for _, t := range ts {
		s[t] = true
	}
	return s
}

// Add puts t in the set, reporting whether it was absent.
func (s Set) Add(t Triple) bool {
	if s[t] {
		return false
	}
	s[t] = true
	return true
}

// Remove takes t out of the set, reporting whether it was present.
func (s Set) Remove(t Triple) bool {
	if !s[t] {
		return false
	}
	delete(s, t)
	return true
}

// Clone returns a copy of the set.
func (s Set) Clone() Set { return maps.Clone(s) }

// Sorted returns the set's triples, sorted.
func (s Set) Sorted() []Triple {
	out := make([]Triple, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	slices.SortFunc(out, Triple.compare)
	return out
}

// Equal reports whether the two sets hold the same triples.
func (s Set) Equal(o Set) bool { return maps.Equal(s, o) }

// Apply performs w on the set as the engine's one write does: the adds one
// by one, then the removes one by one. It returns the triples each side
// changed, in the order they changed it; a triple w adds and removes is on
// both sides and ends absent.
func (s Set) Apply(w Write) (added, removed []Triple) {
	for _, t := range w.Add {
		if s.Add(t) {
			added = append(added, t)
		}
	}
	for _, t := range w.Remove {
		if s.Remove(t) {
			removed = append(removed, t)
		}
	}
	return added, removed
}

// Match returns the triples of the set that match p, sorted. A variable
// that occurs twice in p must take one value.
func (s Set) Match(p Pattern) []Triple {
	var out []Triple
	bind := Binding{}
	for t := range s {
		if _, ok := match(p, t, bind, nil); ok {
			out = append(out, t)
			clear(bind)
		}
	}
	slices.SortFunc(out, Triple.compare)
	return out
}

// Eval returns every solution of the basic graph pattern bgp over the set,
// sorted by their strings, one per way of matching the patterns in order. A
// variable takes one value throughout bgp. With subsumees set, a pattern
// whose predicate is the literal TypePredicate and whose object is a literal
// class matches a triple whose object is any of subsumees(class): query
// expansion, as query.Expand rewrites it.
func (s Set) Eval(bgp []Pattern, subsumees func(class string) []string) []Binding {
	var out []Binding
	s.solve(bgp, subsumees, func(b Binding) { out = append(out, maps.Clone(b)) })
	slices.SortFunc(out, func(a, b Binding) int { return strings.Compare(a.String(), b.String()) })
	return out
}

// solve is Eval's backtracking, handing each solution to yield, which must
// not keep it.
func (s Set) solve(bgp []Pattern, subsumees func(class string) []string, yield func(Binding)) {
	classes := make([]map[string]bool, len(bgp))
	for i, p := range bgp {
		if subsumees != nil && !p.Predicate.IsVar && p.Predicate.Value == TypePredicate && !p.Object.IsVar {
			classes[i] = map[string]bool{}
			for _, c := range subsumees(p.Object.Value) {
				classes[i][c] = true
			}
		}
	}
	facts := s.Sorted()
	bind := Binding{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(bgp) {
			yield(bind)
			return
		}
		for _, t := range facts {
			if bound, ok := match(bgp[i], t, bind, classes[i]); ok {
				rec(i + 1)
				for _, v := range bound {
					delete(bind, v)
				}
			}
		}
	}
	rec(0)
}

// match extends bind with the values t gives p's unbound variables and
// reports whether t matches p under it, returning the variables it bound; on
// a mismatch bind is left as it was. A non-nil classes replaces p's object
// literal by membership in it.
func match(p Pattern, t Triple, bind Binding, classes map[string]bool) ([]string, bool) {
	var bound []string
	values := [3]string{t.Subject, t.Predicate, t.Object}
	for i, term := range [3]Term{p.Subject, p.Predicate, p.Object} {
		v, ok := values[i], false
		switch have, isBound := bind[term.Value]; {
		case !term.IsVar && i == 2 && classes != nil:
			ok = classes[v]
		case !term.IsVar:
			ok = term.Value == v
		case isBound:
			ok = have == v
		default:
			bind[term.Value] = v
			bound, ok = append(bound, term.Value), true
		}
		if !ok {
			for _, name := range bound {
				delete(bind, name)
			}
			return nil, false
		}
	}
	return bound, true
}

// Closure returns the set closed under rules: every rule is applied to every
// solution of its body over everything derived so far, until a pass derives
// nothing new.
func (s Set) Closure(rules []Rule) Set {
	facts := s.Clone()
	for {
		var fresh []Triple
		for _, r := range rules {
			facts.solve(r.Body, nil, func(b Binding) { fresh = append(fresh, instantiate(r.Head, b)) })
		}
		changed := false
		for _, t := range fresh {
			changed = facts.Add(t) || changed
		}
		if !changed {
			return facts
		}
	}
}

// instantiate grounds p with the binding's values for its variables.
func instantiate(p Pattern, b Binding) Triple {
	get := func(t Term) string {
		if t.IsVar {
			return b[t.Value]
		}
		return t.Value
	}
	return Triple{get(p.Subject), get(p.Predicate), get(p.Object)}
}

// Subsumees returns class, then every other c with "c subClassOf class" in
// the set, sorted: what reason.Reasoner.Subsumees answers when the set is
// its materialized view.
func (s Set) Subsumees(class string) []string {
	var out []string
	for _, t := range s.Match(Pattern{Term{Value: "c", IsVar: true}, Term{Value: SubClassOfPredicate}, Term{Value: class}}) {
		if t.Subject != class {
			out = append(out, t.Subject)
		}
	}
	return append([]string{class}, out...)
}
