package reason

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// This file holds the closed view (MaterializeServing, store.View.Close) to
// the full RDFS materialization: two reasoners over the same random corpus
// and the same random writes, one storing every propagated type and property
// triple and one answering them from the subClassOf and subPropertyOf
// closures, must give the same answer to every read — every pattern shape,
// joins whose probes meet type and super-property patterns bound every way,
// cursors drained a few triples at a time, counts, provenance and class
// retrieval.

// closedVocab is the random corpus's vocabulary: few enough names that
// instances carry several types, subClassOf closes cycles, and domain and
// range type through properties.
var (
	closedInstances  = []string{"i0", "i1", "i2", "i3", "i4"}
	closedClasses    = []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	closedProperties = []string{"p0", "p1", "p2", "p3", "p4"}
)

// closedPick draws a name of the pool.
func closedPick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// closedFact draws one instance or class triple: a type, a property edge or
// a subClassOf edge.
func closedFact(rng *rand.Rand) store.Triple {
	switch rng.Intn(8) {
	case 0, 1, 2:
		return store.Triple{Subject: closedPick(rng, closedInstances), Predicate: closedPick(rng, closedProperties), Object: closedPick(rng, closedInstances)}
	case 3, 4:
		return store.Triple{Subject: closedPick(rng, closedClasses), Predicate: SubClassOfPredicate, Object: closedPick(rng, closedClasses)}
	}
	return store.Triple{Subject: closedPick(rng, closedInstances), Predicate: store.TypePredicate, Object: closedPick(rng, closedClasses)}
}

// closedHierarchy draws a property hierarchy — a chain, a diamond or a
// cycle entered from below, p4 outside it — with a domain or a range on some
// of its leaves, the properties without a strict sub-property: a schema
// holding no property hazard.
func closedHierarchy(rng *rand.Rand) []store.Triple {
	sp := func(a, b int) store.Triple {
		return store.Triple{Subject: closedProperties[a], Predicate: SubPropertyOfPredicate, Object: closedProperties[b]}
	}
	var ts []store.Triple
	switch rng.Intn(3) {
	case 0:
		ts = []store.Triple{sp(0, 1), sp(1, 2), sp(2, 3)}
	case 1:
		ts = []store.Triple{sp(0, 1), sp(0, 2), sp(1, 3), sp(2, 3)}
	default:
		ts = []store.Triple{sp(0, 1), sp(1, 2), sp(2, 1)}
	}
	hasSub := map[string]bool{}
	for _, t := range ts {
		hasSub[t.Object] = true
	}
	for _, p := range closedProperties {
		if !hasSub[p] && rng.Intn(2) == 0 {
			ts = append(ts, store.Triple{Subject: p, Predicate: closedPick(rng, []string{DomainPredicate, RangePredicate}), Object: closedPick(rng, closedClasses)})
		}
	}
	return ts
}

// closedTriple draws one triple of a random corpus or a write: a fact, or
// one time in five a subPropertyOf, domain or range triple over any
// properties, which may be a property hazard (keeping the closed reasoner's
// properties open at boot, or reopening them in a write) but is never a
// TypingHazard, which MaterializeServing relies on its caller to refuse.
func closedTriple(rng *rand.Rand) store.Triple {
	switch rng.Intn(10) {
	case 0:
		return store.Triple{Subject: closedPick(rng, closedProperties), Predicate: SubPropertyOfPredicate, Object: closedPick(rng, closedProperties)}
	case 1:
		return store.Triple{Subject: closedPick(rng, closedProperties), Predicate: closedPick(rng, []string{DomainPredicate, RangePredicate}), Object: closedPick(rng, closedClasses)}
	}
	return closedFact(rng)
}

// closedHazard reports whether a full materialization holds a property
// hazard of the built-in rules, read off its closure: a vocabulary predicate
// beside subPropertyOf, or a domain or a range on a property with a strict
// sub-property.
func closedHazard(full *Reasoner) bool {
	v := full.View()
	for _, t := range v.Query(store.Pattern{Predicate: SubPropertyOfPredicate}) {
		if slices.Contains(vocabularyNames[:], t.Subject) || slices.Contains(vocabularyNames[:], t.Object) {
			return true
		}
		if t.Subject != t.Object && (len(v.Query(store.Pattern{Subject: t.Object, Predicate: DomainPredicate})) > 0 ||
			len(v.Query(store.Pattern{Subject: t.Object, Predicate: RangePredicate})) > 0) {
			return true
		}
	}
	return false
}

// closedJoins are the BGPs whose probes meet a type pattern bound each way:
// subject and object (an all-bound probe), object, subject, a variable
// predicate with its subject or object bound, and a predicate bound by an
// earlier pattern, so that one batch holds type probes and others.
var closedJoins = []string{
	"?x p0 ?y . ?x type c0",
	"?c subClassOf c0 . ?x type ?c",
	"?x p1 ?y . ?y type ?c",
	"?x type c1 . ?x ?p ?o",
	"?x type c2 . ?y ?p ?x",
	"?x p0 ?y . ?x ?p ?y",
	"?x type ?c . ?c subClassOf ?d",
	"?x type ?c . ?y type ?c",
	"?a ?p c0 . ?x ?p ?o",
	"?x p3 ?y . ?y type c0",
	"?x type c0 . ?x p1 ?y",
	"?p subPropertyOf p3 . ?x ?p ?y",
	"?x p2 ?y . ?y p3 ?z",
}

// rows renders an answer's rows sorted, duplicates kept.
func closedRows(t *testing.T, src query.Source, bgp query.BGP) []string {
	bs, err := query.Eval(src, bgp, query.Materialized()).All()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(bs))
	for i, b := range bs {
		keys := make([]string, 0, len(b))
		for k, v := range b {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		out[i] = strings.Join(keys, " ")
	}
	sort.Strings(out)
	return out
}

// drain reads a cursor dry through buffers of random small sizes.
func drain(rng *rand.Rand, pt *store.ScanPart) []store.IDTriple {
	var out []store.IDTriple
	buf := make([]store.IDTriple, 3)
	for {
		n, done := pt.NextBatch(buf[:1+rng.Intn(len(buf))])
		out = append(out, buf[:n]...)
		if done {
			pt.Release()
			return out
		}
	}
}

// checkClosed holds the closed reasoner to the full one on every read.
func checkClosed(t *testing.T, rng *rand.Rand, full, closed *Reasoner, context string) {
	t.Helper()
	fv, cv := full.View(), closed.View()
	if got, want := cv.Triples(), fv.Triples(); !slices.Equal(got, want) {
		t.Fatalf("%s: closed view\n%v\nfull view\n%v", context, got, want)
	}
	if cv.Len() != fv.Len() || closed.InferredCount() != full.InferredCount() {
		t.Fatalf("%s: closed view counts %d triples, %d inferred; the full one %d, %d", context, cv.Len(), closed.InferredCount(), fv.Len(), full.InferredCount())
	}
	terms := func(pool ...[]string) []query.Term {
		out := []query.Term{query.Var("v")}
		for _, p := range pool {
			for _, name := range p {
				out = append(out, query.Lit(name))
			}
		}
		return out
	}
	nodes := terms(closedInstances, closedClasses, closedProperties)
	preds := terms(closedProperties, []string{store.TypePredicate, SubClassOfPredicate, SubPropertyOfPredicate, DomainPredicate})
	for _, s := range nodes {
		for _, p := range preds {
			for _, o := range nodes {
				pat := query.Pat(s, p, o)
				if s.IsVar {
					pat.Subject = query.Var("s")
				}
				if o.IsVar {
					pat.Object = query.Var("o")
				}
				bgp := query.BGP{pat}
				got, want := closedRows(t, cv, bgp), closedRows(t, fv, bgp)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %v over the closed view\n%q\nover the full view\n%q", context, bgp, got, want)
				}
			}
		}
	}
	for _, text := range closedJoins {
		bgp := query.MustParseBGP(text)
		if got, want := closedRows(t, cv, bgp), closedRows(t, fv, bgp); !slices.Equal(got, want) {
			t.Fatalf("%s: %s over the closed view\n%q\nover the full view\n%q", context, text, got, want)
		}
	}
	// Cursors resume by value: drained a few triples at a time, each pattern
	// shape gives every triple once.
	for _, p := range []store.Pattern{
		{},
		{Predicate: store.TypePredicate},
		{Subject: "i0"},
		{Subject: "i1", Predicate: store.TypePredicate},
		{Object: "c0"},
		{Predicate: store.TypePredicate, Object: "c0"},
		{Predicate: store.TypePredicate, Object: "c3"},
		{Predicate: "p3"},
		{Predicate: "p1"},
		{Subject: "i0", Predicate: "p3"},
		{Predicate: "p3", Object: "i1"},
		{Subject: "i2", Object: "i3"},
		{Subject: "i2", Predicate: "p2", Object: "i3"},
	} {
		got, want := drained(rng, cv, p), drained(rng, fv, p)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %+v drained from the closed view %v, from the full one %v", context, p, got, want)
		}
	}
	for _, c := range closedClasses {
		if got, want := closed.Instances(c), full.Instances(c); !slices.Equal(got, want) {
			t.Fatalf("%s: instances of %s: closed %v, full %v", context, c, got, want)
		}
	}
	for _, i := range closedInstances {
		for _, p := range preds[1:] {
			for _, o := range nodes[1:] {
				tr := store.Triple{Subject: i, Predicate: p.Value, Object: o.Value}
				gp, gok := cv.Provenance(tr)
				wp, wok := fv.Provenance(tr)
				if gp != wp || gok != wok {
					t.Fatalf("%s: provenance of %v: closed %v %v, full %v %v", context, tr, gp, gok, wp, wok)
				}
			}
		}
	}
	for _, p := range closedProperties {
		for _, o := range closedInstances {
			var got, want []string
			cv.ForEachSubject(p, o, func(s string) bool { got = append(got, s); return true })
			fv.ForEachSubject(p, o, func(s string) bool { want = append(want, s); return true })
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: subjects of %s %s: closed %v, full %v", context, p, o, got, want)
			}
		}
	}
}

// drained is the pattern's matches drained from v's cursor, as sorted
// text; a pattern naming a name v never interned matches nothing.
func drained(rng *rand.Rand, v *store.View, p store.Pattern) []string {
	var ip store.IDPattern
	for _, c := range []struct {
		name  string
		id    *store.SymbolID
		bound *bool
	}{{p.Subject, &ip.S, &ip.BoundS}, {p.Predicate, &ip.P, &ip.BoundP}, {p.Object, &ip.O, &ip.BoundO}} {
		if c.name == "" {
			continue
		}
		id, ok := v.SymbolID(c.name)
		if !ok {
			return nil
		}
		*c.id, *c.bound = id, true
	}
	res := v.NewResolver()
	var out []string
	for _, t := range drain(rng, v.Scan(ip)) {
		out = append(out, res.Name(t.S)+" "+res.Name(t.P)+" "+res.Name(t.O))
	}
	sort.Strings(out)
	return out
}

// TestClosedTypingMatchesRDFS: random corpora with multi-typed instances,
// subClassOf cycles, domain- and range-derived types and subPropertyOf
// edges, then random two-sided writes, each applied to both reasoners; after
// each, every read of the closed view equals the full one's. Two kinds of
// corpus: one drawn triple by triple, whose random subPropertyOf, domain and
// range triples over every property leave some boots holding a property
// hazard, so their properties stay open from boot; and one built on a
// property hierarchy (a chain, a diamond or a subPropertyOf cycle, domains
// and ranges on its leaves), whose properties close at boot. Now and then a
// write brings a property hazard, which reopens them.
func TestClosedTypingMatchesRDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const random, hierarchies = 60, 30
	var openAtBoot, stayed int
	for trial := 0; trial < random+hierarchies; trial++ {
		var corpus []store.Triple
		if trial >= random {
			corpus = closedHierarchy(rng)
		}
		for i, n := 0, 4+rng.Intn(16); i < n; i++ {
			if trial < random {
				corpus = append(corpus, closedTriple(rng))
			} else {
				corpus = append(corpus, closedFact(rng))
			}
		}
		fullBase, closedBase := store.New(), store.New()
		for _, b := range []*store.Store{fullBase, closedBase} {
			if _, err := b.AddBatch(corpus); err != nil {
				t.Fatal(err)
			}
		}
		full, err := Materialize(fullBase, RDFSRules())
		if err != nil {
			t.Fatal(err)
		}
		closed, err := MaterializeServing(closedBase, RDFSRules())
		if err != nil {
			t.Fatal(err)
		}
		hazard := closedHazard(full)
		if !closed.TypingClosed() || closed.PropertiesClosed() == hazard {
			t.Fatalf("trial %d: typing closed %v, properties closed %v over a corpus holding a property hazard %v", trial, closed.TypingClosed(), closed.PropertiesClosed(), hazard)
		}
		if hazard {
			openAtBoot++
		}
		checkClosed(t, rng, full, closed, fmt.Sprintf("trial %d: boot", trial))
		for step := 0; step < 6; step++ {
			var adds, removes []store.Triple
			for i, n := 0, rng.Intn(4); i < n; i++ {
				adds = append(adds, closedTriple(rng))
			}
			asserted := closedBase.Triples()
			for i, n := 0, rng.Intn(4); i < n; i++ {
				if len(asserted) > 0 && rng.Intn(3) > 0 {
					removes = append(removes, asserted[rng.Intn(len(asserted))])
				} else {
					removes = append(removes, closedTriple(rng))
				}
			}
			if len(adds) > 0 && rng.Intn(4) == 0 {
				removes = append(removes, adds[0]) // added and removed by one write
			}
			for _, r := range []*Reasoner{full, closed} {
				if _, _, err := r.Apply(adds, removes, nil); err != nil {
					t.Fatal(err)
				}
			}
			checkClosed(t, rng, full, closed, fmt.Sprintf("trial %d step %d: +%v -%v", trial, step, adds, removes))
		}
		if closed.PropertiesClosed() {
			stayed++
		}
	}
	t.Logf("%d of %d random corpora held a property hazard at boot; %d of %d trials kept their properties closed to the end", openAtBoot, random, stayed, random+hierarchies)
	if openAtBoot == 0 || openAtBoot > random/2 {
		t.Errorf("%d of %d random corpora held a property hazard at boot: both boots should be drawn, the closed one more often", openAtBoot, random)
	}
	if stayed < hierarchies/3 || stayed >= random+hierarchies-openAtBoot {
		t.Errorf("%d of %d trials kept their properties closed: the writes should reopen some, and many should stay closed", stayed, random+hierarchies)
	}
}

// TestMaterializeServingKeepsTypePropagation: a rule set or a corpus under
// which a rule body could read a propagated type keeps type-propagation
// stored, and its view open.
func TestMaterializeServingKeepsTypePropagation(t *testing.T) {
	user, err := ParseRules("?x tagged ?c :- ?x type ?c")
	if err != nil {
		t.Fatal(err)
	}
	varPred, err := ParseRules("?x seen ?y :- ?x ?p ?y")
	if err != nil {
		t.Fatal(err)
	}
	hazardHead, err := ParseRules("?p range ?c :- ?p marks ?c")
	if err != nil {
		t.Fatal(err)
	}
	harmless, err := ParseRules("?x near ?z :- ?x locatedIn ?y . ?y partOf ?z")
	if err != nil {
		t.Fatal(err)
	}
	corpus := []store.Triple{
		{Subject: "a", Predicate: SubClassOfPredicate, Object: "b"},
		{Subject: "x", Predicate: store.TypePredicate, Object: "a"},
	}
	for _, c := range []struct {
		name   string
		rules  []Rule
		extra  []store.Triple
		closed bool
	}{
		{"RDFS", RDFSRules(), nil, true},
		{"RDFS and a rule reading neither type nor a variable predicate", append(RDFSRules(), harmless...), nil, true},
		{"a body reading type", append(RDFSRules(), user...), nil, false},
		{"a body with a variable predicate", append(RDFSRules(), varPred...), nil, false},
		{"a head concluding range", append(RDFSRules(), hazardHead...), nil, false},
		{"no transitivity", RDFSRules()[1:], nil, false},
		{"no type-propagation", slices.Delete(RDFSRules(), 1, 2), nil, false},
		{"type range c", RDFSRules(), []store.Triple{{Subject: store.TypePredicate, Predicate: RangePredicate, Object: "c"}}, false},
		{"type subPropertyOf q", RDFSRules(), []store.Triple{{Subject: store.TypePredicate, Predicate: SubPropertyOfPredicate, Object: "q"}}, false},
		{"q subPropertyOf range", RDFSRules(), []store.Triple{{Subject: "q", Predicate: SubPropertyOfPredicate, Object: RangePredicate}}, false},
		{"q subPropertyOf subPropertyOf", RDFSRules(), []store.Triple{{Subject: "q", Predicate: SubPropertyOfPredicate, Object: SubPropertyOfPredicate}}, false},
	} {
		base := store.New()
		if _, err := base.AddBatch(append(slices.Clone(corpus), c.extra...)); err != nil {
			t.Fatal(err)
		}
		r, err := MaterializeServing(base, c.rules)
		if err != nil {
			t.Fatal(err)
		}
		if r.TypingClosed() != c.closed {
			t.Errorf("%s: typing closed %v, want %v", c.name, r.TypingClosed(), c.closed)
		}
		stored := r.Overlay().Contains(store.Triple{Subject: "x", Predicate: store.TypePredicate, Object: "b"})
		if hasProp := slices.ContainsFunc(c.rules, func(r Rule) bool { return r.Name == "type-propagation" }); stored != (hasProp && !c.closed) {
			t.Errorf("%s: x type b stored %v with type-propagation in the rules %v and typing closed %v", c.name, stored, hasProp, c.closed)
		}
		for _, tr := range c.extra {
			if !TypingHazard(tr) {
				t.Errorf("%v is not a TypingHazard", tr)
			}
		}
	}
}

// TestMaterializeServingKeepsPropertyPropagation: a rule set or a corpus
// under which a rule could read a propagated property triple keeps
// subPropertyOf-propagation stored — its properties open from boot — and the
// rest close them.
func TestMaterializeServingKeepsPropertyPropagation(t *testing.T) {
	parse := func(text string) []Rule {
		rs, err := ParseRules(text)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	corpus := []store.Triple{
		{Subject: "locatedIn", Predicate: SubPropertyOfPredicate, Object: "within"},
		{Subject: "locatedIn", Predicate: RangePredicate, Object: "Site"},
		{Subject: "x", Predicate: "locatedIn", Object: "s"},
	}
	for _, c := range []struct {
		name   string
		rules  []Rule
		extra  []store.Triple
		closed bool
	}{
		{"RDFS", RDFSRules(), nil, true},
		{"RDFS and a rule reading type", append(RDFSRules(), parse("?x tagged ?c :- ?x type ?c")...), nil, true},
		{"a rule reading a property without sub-properties", append(RDFSRules(), parse("?x near ?y :- ?x locatedIn ?y")...), nil, true},
		{"a rule reading a property with one", append(RDFSRules(), parse("?x near ?y :- ?x within ?y")...), nil, false},
		{"a body with a variable predicate", append(RDFSRules(), parse("?x seen ?y :- ?x ?p ?y")...), nil, false},
		{"a head concluding domain", append(RDFSRules(), parse("?p domain ?c :- ?p marks ?c")...), nil, false},
		{"no transitivity", slices.Delete(RDFSRules(), 2, 3), nil, false},
		{"within domain Place", RDFSRules(), []store.Triple{{Subject: "within", Predicate: DomainPredicate, Object: "Place"}}, false},
		{"within range Place", RDFSRules(), []store.Triple{{Subject: "within", Predicate: RangePredicate, Object: "Place"}}, false},
		{"locatedIn subPropertyOf type", RDFSRules(), []store.Triple{{Subject: "locatedIn", Predicate: SubPropertyOfPredicate, Object: store.TypePredicate}}, false},
		{"domain subPropertyOf q", RDFSRules(), []store.Triple{{Subject: DomainPredicate, Predicate: SubPropertyOfPredicate, Object: "q"}}, false},
		{"q subPropertyOf q", RDFSRules(), []store.Triple{{Subject: "within", Predicate: SubPropertyOfPredicate, Object: "within"}, {Subject: "within", Predicate: DomainPredicate, Object: "Place"}}, false},
		{"a self-loop on a property with a domain", RDFSRules(), []store.Triple{{Subject: "near", Predicate: SubPropertyOfPredicate, Object: "near"}, {Subject: "near", Predicate: DomainPredicate, Object: "Place"}}, true},
	} {
		base := store.New()
		if _, err := base.AddBatch(append(slices.Clone(corpus), c.extra...)); err != nil {
			t.Fatal(err)
		}
		r, err := MaterializeServing(base, c.rules)
		if err != nil {
			t.Fatal(err)
		}
		if r.PropertiesClosed() != c.closed {
			t.Errorf("%s: properties closed %v, want %v", c.name, r.PropertiesClosed(), c.closed)
		}
		within := store.Triple{Subject: "x", Predicate: "within", Object: "s"}
		hasProp := slices.ContainsFunc(c.rules, func(r Rule) bool { return r.Name == "subPropertyOf-propagation" })
		if stored := r.Overlay().Contains(within); stored != (hasProp && !c.closed) {
			t.Errorf("%s: x within s stored %v with the propagation rule %v and properties closed %v", c.name, stored, hasProp, c.closed)
		}
		if hasProp && !r.View().Contains(within) {
			t.Errorf("%s: x within s is not in the view", c.name)
		}
	}
}

// TestServingOverlayStoresNoPropagatedProperty pins what closed properties
// save on the harness's corpus shape: the overlay stores no triple of a
// property that has a strict sub-property, and the view counts what the
// full materialization stores.
func TestServingOverlayStoresNoPropagatedProperty(t *testing.T) {
	corpus := servingCorpusN(t, 120, 10_000)
	fullBase, closedBase := store.New(), store.New()
	for _, b := range []*store.Store{fullBase, closedBase} {
		if _, err := b.AddBatch(corpus); err != nil {
			t.Fatal(err)
		}
	}
	full, err := Materialize(fullBase, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	closed, err := MaterializeServing(closedBase, RDFSRules())
	if err != nil || !closed.PropertiesClosed() {
		t.Fatalf("MaterializeServing: %v, properties closed %v", err, closed.PropertiesClosed())
	}
	for _, super := range []string{"within", "containedIn"} {
		if n := closed.Overlay().Count(store.Pattern{Predicate: super}); n != 0 {
			t.Errorf("the overlay stores %d %s triples", n, super)
		}
		if got, want := len(closed.View().Query(store.Pattern{Predicate: super})), len(full.View().Query(store.Pattern{Predicate: super})); got != want || got == 0 {
			t.Errorf("the closed view answers %d %s triples, the full one %d", got, super, want)
		}
	}
	if got, want := closed.InferredCount(), full.InferredCount(); got != want {
		t.Errorf("InferredCount: closed %d, full %d", got, want)
	}
	t.Logf("overlay: %d triples stored closed, %d materialized, of %d inferred", closed.Overlay().Len(), full.Overlay().Len(), full.InferredCount())
}

// TestClosedQ2AllocatesNoMoreThanMaterialized pins the cost of a cold
// closed read: the harness's Q2, ?x type C . ?x locatedIn S, over a
// 48-class hierarchy, for the class with the most subsumees and for a leaf,
// allocates no more over the closed view than over the full
// materialization, and answers the same number of rows.
func TestClosedQ2AllocatesNoMoreThanMaterialized(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	const classes = 48
	corpus := servingCorpusN(t, classes, 20_000)
	fullBase, closedBase := store.New(), store.New()
	for _, b := range []*store.Store{fullBase, closedBase} {
		if _, err := b.AddBatch(corpus); err != nil {
			t.Fatal(err)
		}
	}
	full, err := Materialize(fullBase, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	closed, err := MaterializeServing(closedBase, RDFSRules())
	if err != nil || !closed.TypingClosed() {
		t.Fatalf("MaterializeServing: %v, typing closed %v", err, closed.TypingClosed())
	}
	root, leaf := "", ""
	for c := 0; c < classes; c++ {
		name := workload.ClassName(c)
		switch n := len(closed.Subsumees(name)); {
		case root == "" || n > len(closed.Subsumees(root)):
			root = name
		case n == 1 && leaf == "":
			leaf = name
		}
	}
	if len(closed.Subsumees(root)) < 10 || leaf == "" {
		t.Fatalf("hierarchy too flat: root %s has %d subsumees, leaf %q", root, len(closed.Subsumees(root)), leaf)
	}
	for _, class := range []string{root, leaf} {
		bgp := query.MustParseBGP("?x type " + class + " . ?x locatedIn site-3")
		rows := func(v *store.View) func() int {
			return func() int {
				n := 0
				sols := query.Eval(v, bgp, query.Materialized())
				for sb, ok := sols.NextBatch(); ok; sb, ok = sols.NextBatch() {
					n += sb.Len()
				}
				return n
			}
		}
		fullRows, closedRows := rows(full.View()), rows(closed.View())
		if f, c := fullRows(), closedRows(); f != c || f == 0 {
			t.Fatalf("%s: %d rows over the full view, %d over the closed one", class, f, c)
		}
		fa := testing.AllocsPerRun(50, func() { fullRows() })
		ca := testing.AllocsPerRun(50, func() { closedRows() })
		t.Logf("%s (%d subsumees): %.1f allocs materialized, %.1f closed", class, len(closed.Subsumees(class)), fa, ca)
		if ca > fa {
			t.Errorf("%s: a closed Q2 allocates %.1f times, the materialized one %.1f", class, ca, fa)
		}
	}
}

// TestClosedWithinAllocatesNoMoreThanMaterialized pins the cost of a cold
// read of a super-property: ?x within S, for a site, allocates no more over
// the closed view, where every row comes from the closure, than over the
// full materialization, where every row is stored, and answers the same
// rows.
func TestClosedWithinAllocatesNoMoreThanMaterialized(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	corpus := servingCorpusN(t, 48, 20_000)
	fullBase, closedBase := store.New(), store.New()
	for _, b := range []*store.Store{fullBase, closedBase} {
		if _, err := b.AddBatch(corpus); err != nil {
			t.Fatal(err)
		}
	}
	full, err := Materialize(fullBase, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	closed, err := MaterializeServing(closedBase, RDFSRules())
	if err != nil || !closed.PropertiesClosed() {
		t.Fatalf("MaterializeServing: %v, properties closed %v", err, closed.PropertiesClosed())
	}
	bgp := query.MustParseBGP("?x within site-3")
	rows := func(v *store.View) func() int {
		return func() int {
			n := 0
			sols := query.Eval(v, bgp, query.Materialized())
			for sb, ok := sols.NextBatch(); ok; sb, ok = sols.NextBatch() {
				n += sb.Len()
			}
			return n
		}
	}
	fullRows, closedRows := rows(full.View()), rows(closed.View())
	if f, c := fullRows(), closedRows(); f != c || f == 0 {
		t.Fatalf("%d rows over the full view, %d over the closed one", f, c)
	}
	fa := testing.AllocsPerRun(50, func() { fullRows() })
	ca := testing.AllocsPerRun(50, func() { closedRows() })
	t.Logf("?x within site-3: %.1f allocs materialized, %.1f closed", fa, ca)
	if ca > fa {
		t.Errorf("a closed ?x within site-3 allocates %.1f times, the materialized one %.1f", ca, fa)
	}
}
