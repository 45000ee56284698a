package model

import (
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// triples parses "s p o" texts.
func triples(texts ...string) []Triple {
	var out []Triple
	for _, text := range texts {
		f := strings.Fields(text)
		out = append(out, Triple{f[0], f[1], f[2]})
	}
	return out
}

// bgp parses "s p o . s p o" with ?name a variable.
func bgp(text string) []Pattern {
	term := func(s string) Term {
		if name, ok := strings.CutPrefix(s, "?"); ok {
			return Term{Value: name, IsVar: true}
		}
		return Term{Value: s}
	}
	var out []Pattern
	for _, part := range strings.Split(text, ".") {
		f := strings.Fields(part)
		out = append(out, Pattern{term(f[0]), term(f[1]), term(f[2])})
	}
	return out
}

// rdfs is the six rules of reason.RDFSRules, spelled out by hand.
func rdfs() []Rule {
	rule := func(head, body string) Rule { return Rule{Head: bgp(head)[0], Body: bgp(body)} }
	return []Rule{
		rule("?x subClassOf ?z", "?x subClassOf ?y . ?y subClassOf ?z"),
		rule("?s type ?y", "?s type ?x . ?x subClassOf ?y"),
		rule("?p subPropertyOf ?q", "?p subPropertyOf ?y . ?y subPropertyOf ?q"),
		rule("?s ?q ?o", "?s ?p ?o . ?p subPropertyOf ?q"),
		rule("?s type ?x", "?s ?p ?o . ?p domain ?x"),
		rule("?o type ?x", "?s ?p ?o . ?p range ?x"),
	}
}

// rows renders solutions as their strings.
func rows(bs []Binding) []string {
	out := []string{}
	for _, b := range bs {
		out = append(out, b.String())
	}
	return out
}

// texts renders triples as their strings.
func texts(ts []Triple) []string {
	out := []string{}
	for _, t := range ts {
		out = append(out, t.String())
	}
	return out
}

// hierarchy is the two-level corpus of the expansion cases: c2 ⊑ c1 ⊑ c0,
// one instance asserted at each level and one outside it.
var hierarchy = []string{
	"c1 subClassOf c0", "c2 subClassOf c1",
	"i0 type c0", "i1 type c1", "i2 type c2", "j type d",
}

// threeClasses is the RDFS case's corpus: A ⊑ B ⊑ C, hasPart ⊑ related ⊑
// linked, related's domain A, linked's range C, and one hasPart edge.
var threeClasses = []string{
	"A subClassOf B", "B subClassOf C",
	"hasPart subPropertyOf related", "related subPropertyOf linked",
	"related domain A", "linked range C",
	"a hasPart b",
}

// TestModelHandWorked holds the model to answers worked out by hand: a
// wrong reference passes a wrong engine.
func TestModelHandWorked(t *testing.T) {
	cases := []struct {
		name  string
		facts []string
		got   func(s Set) []string
		want  []string
	}{
		{
			"a repeated variable takes one value",
			[]string{"a p a", "a p b", "b p b", "b q b"},
			func(s Set) []string { return rows(s.Eval(bgp("?x p ?x"), nil)) },
			[]string{"x=a ", "x=b "},
		},
		{
			"a repeated variable across patterns joins",
			[]string{"a p b", "b p c", "c p a", "a q c"},
			func(s Set) []string { return rows(s.Eval(bgp("?x p ?y . ?y p ?z . ?x q ?z"), nil)) },
			[]string{"x=a y=b z=c "},
		},
		{
			"Match filters one pattern",
			[]string{"a p a", "a p b", "b p b", "b q b"},
			func(s Set) []string { return texts(s.Match(bgp("?x p ?x")[0])) },
			[]string{"a p a", "b p b"},
		},
		{
			"an unsatisfiable literal empties the join",
			[]string{"a p b", "b p c"},
			func(s Set) []string { return rows(s.Eval(bgp("?x p ?y . ?y never ?z"), nil)) },
			[]string{},
		},
		{
			"a pattern of literals only is one empty solution or none",
			[]string{"a p b"},
			func(s Set) []string {
				return append(rows(s.Eval(bgp("a p b"), nil)), rows(s.Eval(bgp("a p c"), nil))...)
			},
			[]string{""},
		},
		{
			"without expansion a type pattern is literal",
			hierarchy,
			func(s Set) []string { return rows(s.Eval(bgp("?x type c0"), nil)) },
			[]string{"x=i0 "},
		},
		{
			"the asserted hierarchy reaches one level",
			hierarchy,
			func(s Set) []string { return s.Subsumees("c0") },
			[]string{"c0", "c1"},
		},
		{
			"expansion through the closure reaches both levels",
			hierarchy,
			func(s Set) []string {
				return rows(s.Eval(bgp("?x type c0"), s.Closure(rdfs()).Subsumees))
			},
			[]string{"x=i0 ", "x=i1 ", "x=i2 "},
		},
		{
			"expansion rewrites literal classes only",
			hierarchy,
			func(s Set) []string {
				return rows(s.Eval(bgp("?x type ?c . ?c subClassOf c0"), s.Closure(rdfs()).Subsumees))
			},
			[]string{"c=c1 x=i1 "},
		},
		{
			"a cycle's class subsumes itself once",
			[]string{"c0 subClassOf c1", "c1 subClassOf c0"},
			func(s Set) []string { return s.Closure(rdfs()).Subsumees("c0") },
			[]string{"c0", "c1"},
		},
		{
			"the six RDFS rules on three classes",
			threeClasses,
			func(s Set) []string { return texts(s.Closure(rdfs()).Sorted()) },
			[]string{
				"A subClassOf B", "A subClassOf C", "B subClassOf C",
				"a hasPart b", "a linked b", "a related b",
				"a type A", "a type B", "a type C",
				"b type C",
				"hasPart subPropertyOf linked", "hasPart subPropertyOf related",
				"linked range C", "related domain A", "related subPropertyOf linked",
			},
		},
		{
			"a write's adds go first, then its removes",
			[]string{"a p b", "a p c"},
			func(s Set) []string {
				added, removed := s.Apply(Write{Add: triples("a p b", "x p y", "x p y"), Remove: triples("a p c", "x p y", "q q q")})
				return append(append(texts(added), "|"), append(texts(removed), "|", strconv.Itoa(len(s)))...)
			},
			[]string{"x p y", "|", "a p c", "x p y", "|", "1"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.got(NewSet(triples(c.facts...)...)); !slices.Equal(got, c.want) {
				t.Fatalf("got  %q\nwant %q", got, c.want)
			}
		})
	}
}

// TestLedgerUnacknowledgedTail walks a ledger through acknowledged writes,
// a no-op write, an unacknowledged tail and a reopen that kept part of it.
func TestLedgerUnacknowledgedTail(t *testing.T) {
	sets := func(ss []Set) []string {
		var out []string
		for _, s := range ss {
			out = append(out, strings.Join(texts(s.Sorted()), ","))
		}
		return out
	}
	l := NewLedger(NewSet(triples("a p a")...), 3)
	l.Send(Write{Add: triples("b p b")})
	if added, removed := l.Ack(); len(added) != 1 || len(removed) != 0 || l.At() != (Key{0, 4}) {
		t.Fatalf("acknowledging an add: %v, %v at %v; want one added at {0 4}", added, removed, l.At())
	}
	l.Send(Write{Remove: triples("c p c")})
	if added, removed := l.Ack(); len(added)+len(removed) != 0 || l.At() != (Key{0, 4}) {
		t.Fatalf("a write that changed nothing: %v, %v at %v; want nothing at {0 4}", added, removed, l.At())
	}
	l.Send(Write{Remove: triples("a p a")})
	l.Send(Write{Add: triples("c p c")})
	want := []string{"a p a,b p b", "b p b", "b p b,c p c"}
	if got := sets(l.Recoverable()); !slices.Equal(got, want) {
		t.Fatalf("Recoverable with a two-write tail = %q, want %q", got, want)
	}
	for k, w := range map[Key]string{{0, 3}: "a p a", {0, 4}: "a p a,b p b"} {
		if s, ok := l.State(k); !ok || sets([]Set{s})[0] != w {
			t.Fatalf("State(%v) = %v, %v; want %s", k, s, ok, w)
		}
	}
	l.Reopen(1, 0)
	if got := sets([]Set{l.Acked()}); l.At() != (Key{1, 0}) || got[0] != "b p b" {
		t.Fatalf("after reopening with one tail write kept: %q at %v; want b p b at {1 0}", got, l.At())
	}
	if got := sets(l.Recoverable()); !slices.Equal(got, []string{"b p b"}) {
		t.Fatalf("a reopen leaves the tail at %q; want it empty", got)
	}
	if _, ok := l.State(Key{1, 4}); ok {
		t.Fatal("generation 4 of the new incarnation was never served")
	}
}

// TestModelImportsOnlyTheStandardLibrary is the import guard: the package's
// non-test files import the standard library only, so the in-package tests
// of store, query and reason can import it without a cycle.
func TestModelImportsOnlyTheStandardLibrary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if pkg, err := build.Import(path, ".", build.FindOnly); err != nil || !pkg.Goroot {
				t.Errorf("%s imports %s, which is not in the standard library", name, path)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-test file found; the guard is looking in the wrong directory")
	}
}
