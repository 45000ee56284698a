package reason

import (
	"slices"
	"sort"

	"repro/internal/query"
	"repro/internal/store"
)

// The RDFS-style vocabulary the built-in rule set interprets. The names are
// bare (no namespace prefixes) to match the store's existing "type"
// convention (store.TypePredicate).
const (
	// SubClassOfPredicate relates a class to a superclass; a view with closed
	// typing (store.View.CloseTyping) reads it under the same name.
	SubClassOfPredicate = store.SubClassOfPredicate
	// SubPropertyOfPredicate relates a property to a superproperty.
	SubPropertyOfPredicate = "subPropertyOf"
	// DomainPredicate relates a property to the class of its subjects.
	DomainPredicate = "domain"
	// RangePredicate relates a property to the class of its objects.
	RangePredicate = "range"
)

// RDFSRules returns the built-in RDFS-style rule set:
//
//   - subClassOf transitivity,
//   - type propagation through subClassOf (the materialized counterpart of
//     query.Expand — an instance of a class is an instance of its
//     superclasses),
//   - subPropertyOf transitivity,
//   - property propagation through subPropertyOf,
//   - domain and range inference (using a property types its subject/object).
//
// The slice is freshly allocated; callers may append user rules to it.
func RDFSRules() []Rule {
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	s, o := query.Var("s"), query.Var("o")
	p, q := query.Var("p"), query.Var("q")
	typ := query.Lit(store.TypePredicate)
	return []Rule{
		{
			Name: "subClassOf-transitivity",
			Head: query.Pat(x, query.Lit(SubClassOfPredicate), z),
			Body: []query.TriplePattern{
				query.Pat(x, query.Lit(SubClassOfPredicate), y),
				query.Pat(y, query.Lit(SubClassOfPredicate), z),
			},
		},
		{
			Name: "type-propagation",
			Head: query.Pat(s, typ, y),
			Body: []query.TriplePattern{
				query.Pat(s, typ, x),
				query.Pat(x, query.Lit(SubClassOfPredicate), y),
			},
		},
		{
			Name: "subPropertyOf-transitivity",
			Head: query.Pat(p, query.Lit(SubPropertyOfPredicate), q),
			Body: []query.TriplePattern{
				query.Pat(p, query.Lit(SubPropertyOfPredicate), y),
				query.Pat(y, query.Lit(SubPropertyOfPredicate), q),
			},
		},
		{
			Name: "subPropertyOf-propagation",
			Head: query.Pat(s, q, o),
			Body: []query.TriplePattern{
				query.Pat(s, p, o),
				query.Pat(p, query.Lit(SubPropertyOfPredicate), q),
			},
		},
		{
			Name: "domain-inference",
			Head: query.Pat(s, typ, x),
			Body: []query.TriplePattern{
				query.Pat(s, p, o),
				query.Pat(p, query.Lit(DomainPredicate), x),
			},
		},
		{
			Name: "range-inference",
			Head: query.Pat(o, typ, x),
			Body: []query.TriplePattern{
				query.Pat(s, p, o),
				query.Pat(p, query.Lit(RangePredicate), x),
			},
		},
	}
}

// servingRules splits instance typing off a rule set: it returns the rules
// without the built-in type-propagation rule, and true, when their
// materialization, read with closed typing (store.View.CloseTyping),
// answers exactly what the full set would have materialized, so
// type-propagation's conclusions need not be stored.
// That holds when the set also closes subClassOf (the built-in transitivity
// rule, so the closed read's one step reaches every superclass) and no other
// rule can read a propagated type or mint a typing hazard: every rule not of
// RDFSRules keeps type and variables out of its body's predicates, and
// range, subPropertyOf and variables out of its head's. The corpus must then
// hold no TypingHazard triple, now or after any write; hasTypingHazard checks
// a store. Otherwise it returns rules unchanged and false.
func servingRules(rules []Rule) ([]Rule, bool) {
	builtin := RDFSRules() // subClassOf transitivity, then type-propagation, first
	at, closes := -1, false
	for i, r := range rules {
		switch {
		case sameRule(r, builtin[1]):
			at = i
		case sameRule(r, builtin[0]):
			closes = true
		case slices.ContainsFunc(builtin, func(b Rule) bool { return sameRule(r, b) }):
		case readsTyping(r):
			return rules, false
		}
	}
	if at < 0 || !closes {
		return rules, false
	}
	return append(rules[:at:at], rules[at+1:]...), true
}

// sameRule reports whether two rules are the same, name included.
func sameRule(a, b Rule) bool {
	return a.Name == b.Name && a.Head == b.Head && slices.Equal(a.Body, b.Body)
}

// readsTyping reports whether a rule can read a type triple — a body atom
// whose predicate is type or a variable — or conclude a typing hazard — a
// head whose predicate is range, subPropertyOf or a variable.
func readsTyping(r Rule) bool {
	for _, p := range r.Body {
		if p.Predicate.IsVar || p.Predicate.Value == store.TypePredicate {
			return true
		}
	}
	h := r.Head.Predicate
	return h.IsVar || h.Value == RangePredicate || h.Value == SubPropertyOfPredicate
}

// TypingHazard reports whether t lets an RDFS rule body read a propagated
// type triple: (type range _) and (type subPropertyOf _) make range
// inference and property propagation read them, and (_ subPropertyOf range)
// and (_ subPropertyOf subPropertyOf) derive those two from triples that are
// not hazards themselves. A corpus free of the four stays free of them under
// the rules servingRules keeps, which derive one only from another.
func TypingHazard(t store.Triple) bool {
	switch {
	case t.Subject == store.TypePredicate && (t.Predicate == RangePredicate || t.Predicate == SubPropertyOfPredicate):
		return true
	case t.Predicate == SubPropertyOfPredicate && (t.Object == RangePredicate || t.Object == SubPropertyOfPredicate):
		return true
	}
	return false
}

// hasTypingHazard reports whether the store holds a TypingHazard triple.
func hasTypingHazard(s *store.Store) bool {
	for _, p := range [...]store.Pattern{
		{Subject: store.TypePredicate, Predicate: RangePredicate},
		{Subject: store.TypePredicate, Predicate: SubPropertyOfPredicate},
		{Predicate: SubPropertyOfPredicate, Object: RangePredicate},
		{Predicate: SubPropertyOfPredicate, Object: SubPropertyOfPredicate},
	} {
		if s.Count(p) > 0 {
			return true
		}
	}
	return false
}

// OntologyTriples exports a classified OntologyIndex as subClassOf triples:
// one (sub, subClassOf, super) triple per proper subsumption pair. The index
// stores the subsumption closure, so the export is already transitively
// closed and the transitivity rule is a no-op over it; what matters is that
// type propagation over these triples derives exactly the annotations
// query.Expand would have unioned over — the bridge the equivalence tests
// walk. The result is sorted (subject, then object) for determinism.
func OntologyTriples(oi *store.OntologyIndex) []store.Triple {
	var out []store.Triple
	for _, sub := range oi.Classes() {
		for _, super := range oi.Subsumers(sub) {
			if super == sub {
				continue
			}
			out = append(out, store.Triple{Subject: sub, Predicate: SubClassOfPredicate, Object: super})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Subject != out[j].Subject {
			return out[i].Subject < out[j].Subject
		}
		return out[i].Object < out[j].Object
	})
	return out
}
