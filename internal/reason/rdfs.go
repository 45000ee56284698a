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
	// typing (store.View.Close) reads it under the same name.
	SubClassOfPredicate = store.SubClassOfPredicate
	// SubPropertyOfPredicate relates a property to a superproperty; a view
	// with closed properties reads it under the same name.
	SubPropertyOfPredicate = store.SubPropertyOfPredicate
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

// servingRules splits off a rule set the one-step rules whose conclusions a
// closed view answers (store.View.Close) instead of storing them: it returns
// the rules to materialize, and the closures whose rules it dropped, when
// their materialization, read through those closures, answers exactly what
// the full set would have materialized.
//
//   - type-propagation goes (store.ClosedTyping) when the set also closes
//     subClassOf (the built-in transitivity rule, so the closed read's one
//     step reaches every superclass), no rule outside RDFSRules can read a
//     propagated type or mint a typing hazard (readsTyping), and the base
//     holds no TypingHazard triple. The caller must keep TypingHazard
//     triples out of every later write.
//   - subPropertyOf-propagation goes (store.ClosedProperties) when the set
//     also closes subPropertyOf and no rule outside RDFSRules can read a
//     propagated property triple or mint a property hazard
//     (readsProperties), and the base holds no property hazard
//     (hasPropertyHazard). The reasoner checks every later write itself
//     (Reasoner.propertyHazard).
//
// Otherwise it returns the rules unchanged and no closure.
func servingRules(rules []Rule, base *store.Store) ([]Rule, store.Closure) {
	builtin := RDFSRules() // in the order RDFSRules lists them
	has := func(i int) bool {
		return slices.ContainsFunc(rules, func(r Rule) bool { return sameRule(r, builtin[i]) })
	}
	var closes store.Closure
	if has(0) && has(1) && !hasTypingHazard(base) {
		closes |= store.ClosedTyping
	}
	if has(2) && has(3) && !hasPropertyHazard(base, rules) {
		closes |= store.ClosedProperties
	}
	for _, r := range rules {
		if slices.ContainsFunc(builtin, func(b Rule) bool { return sameRule(r, b) }) {
			continue
		}
		if readsTyping(r) {
			closes &^= store.ClosedTyping
		}
		if readsProperties(r) {
			closes &^= store.ClosedProperties
		}
	}
	return withoutClosed(rules, closes), closes
}

// withoutClosed returns a copy of rules without the propagation rules of the
// closures in closes.
func withoutClosed(rules []Rule, closes store.Closure) []Rule {
	builtin := RDFSRules()
	return slices.DeleteFunc(slices.Clone(rules), func(r Rule) bool {
		return closes&store.ClosedTyping != 0 && sameRule(r, builtin[1]) ||
			closes&store.ClosedProperties != 0 && sameRule(r, builtin[3])
	})
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

// readsProperties reports whether a rule can read a propagated property
// triple without naming its predicate — a body atom whose predicate is a
// variable — or conclude a property hazard — a head whose predicate is
// subPropertyOf, domain, range or a variable. A body atom with a literal
// predicate is a hazard only once that predicate has a strict
// sub-property, which the reasoner checks on every write (propertyHazard).
func readsProperties(r Rule) bool {
	for _, p := range r.Body {
		if p.Predicate.IsVar {
			return true
		}
	}
	h := r.Head.Predicate
	return h.IsVar || h.Value == SubPropertyOfPredicate || h.Value == DomainPredicate || h.Value == RangePredicate
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

// vocabularyNames are the RDFS predicates the closures are read by: none
// may sit on either side of subPropertyOf while properties are closed.
var vocabularyNames = [...]string{store.TypePredicate, SubClassOfPredicate, SubPropertyOfPredicate, DomainPredicate, RangePredicate}

// bodyPredicates returns the literal body predicates of the rules outside
// RDFSRules.
func bodyPredicates(rules []Rule) []string {
	builtin := RDFSRules()
	var out []string
	for _, r := range rules {
		if slices.ContainsFunc(builtin, func(b Rule) bool { return sameRule(r, b) }) {
			continue
		}
		for _, p := range r.Body {
			if !p.Predicate.IsVar {
				out = append(out, p.Predicate.Value)
			}
		}
	}
	return out
}

// hasPropertyHazard reports whether the store holds a property hazard
// (Reasoner.propertyHazard) under rules. Its asserted subPropertyOf triples
// decide it: no kept rule concludes subPropertyOf, domain or range
// (readsProperties), a vocabulary name sits beside subPropertyOf in the
// closure only if it does in an asserted triple, and a property has a strict
// sub-property in the closure only if some asserted (p subPropertyOf q) has
// p other than q — the last edge of the shortest chain reaching it.
func hasPropertyHazard(s *store.Store, rules []Rule) bool {
	reads := bodyPredicates(rules)
	for _, t := range s.Query(store.Pattern{Predicate: SubPropertyOfPredicate}) {
		switch {
		case slices.Contains(vocabularyNames[:], t.Subject) || slices.Contains(vocabularyNames[:], t.Object):
			return true
		case t.Subject == t.Object:
		case slices.Contains(reads, t.Object),
			s.Count(store.Pattern{Subject: t.Object, Predicate: DomainPredicate}) > 0,
			s.Count(store.Pattern{Subject: t.Object, Predicate: RangePredicate}) > 0:
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
