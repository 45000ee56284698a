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

// This file holds closed typing (MaterializeServing, store.View.CloseTyping)
// to the full RDFS materialization: two reasoners over the same random
// corpus and the same random writes, one storing every propagated type and
// one answering them from the subClassOf closure, must give the same answer
// to every read — every pattern shape, joins whose probes meet type patterns
// bound every way, cursors drained a few triples at a time, counts,
// provenance and class retrieval.

// closedVocab is the random corpus's vocabulary: few enough names that
// instances carry several types, subClassOf closes cycles, and domain and
// range type through properties.
var (
	closedInstances  = []string{"i0", "i1", "i2", "i3", "i4"}
	closedClasses    = []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	closedProperties = []string{"p0", "p1", "p2"}
)

// closedTriple draws one corpus triple. None is a TypingHazard: those are
// what MaterializeServing refuses to close over.
func closedTriple(rng *rand.Rand) store.Triple {
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	t := store.Triple{Subject: pick(closedInstances), Predicate: store.TypePredicate, Object: pick(closedClasses)}
	switch rng.Intn(10) {
	case 0, 1, 2:
		t.Predicate, t.Object = pick(closedProperties), pick(closedInstances)
	case 3, 4:
		t = store.Triple{Subject: pick(closedClasses), Predicate: SubClassOfPredicate, Object: pick(closedClasses)}
	case 5:
		t = store.Triple{Subject: pick(closedProperties), Predicate: pick([]string{DomainPredicate, RangePredicate}), Object: pick(closedClasses)}
	case 6:
		t = store.Triple{Subject: pick(closedProperties), Predicate: SubPropertyOfPredicate, Object: pick(closedProperties)}
	}
	return t
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
}

// rows renders an answer's rows sorted, duplicates kept.
func closedRows(t *testing.T, src query.Source, bgp query.BGP) []string {
	t.Helper()
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
	preds := terms(closedProperties, []string{store.TypePredicate, SubClassOfPredicate, DomainPredicate})
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
		for _, i := range closedInstances {
			tr := store.Triple{Subject: i, Predicate: store.TypePredicate, Object: c}
			gp, gok := cv.Provenance(tr)
			wp, wok := fv.Provenance(tr)
			if gp != wp || gok != wok {
				t.Fatalf("%s: provenance of %v: closed %v %v, full %v %v", context, tr, gp, gok, wp, wok)
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
// subClassOf cycles and domain- and range-derived types, then random
// two-sided writes, each applied to both reasoners; after each, every read
// of the closed view equals the full one's.
func TestClosedTypingMatchesRDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		var corpus []store.Triple
		for i, n := 0, 4+rng.Intn(16); i < n; i++ {
			corpus = append(corpus, closedTriple(rng))
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
		if !closed.TypingClosed() {
			t.Fatalf("trial %d: a hazard-free corpus under RDFSRules was not closed", trial)
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
