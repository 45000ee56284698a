package query

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCanonicalIgnoresVariableNames(t *testing.T) {
	a := MustParseBGP("?x type car . ?x locatedIn ?site")
	b := MustParseBGP("?subj type car . ?subj locatedIn ?where")
	if Canonical(a) != Canonical(b) {
		t.Fatalf("renamed variables changed the key:\n%q\n%q", Canonical(a), Canonical(b))
	}
}

func TestCanonicalIgnoresPatternOrder(t *testing.T) {
	a := MustParseBGP("?x type car . ?x locatedIn ?site . ?site type garage")
	b := MustParseBGP("?s type garage . ?v locatedIn ?s . ?v type car")
	if Canonical(a) != Canonical(b) {
		t.Fatalf("reordered patterns changed the key:\n%q\n%q", Canonical(a), Canonical(b))
	}
}

func TestCanonicalSeparatesDistinctQueries(t *testing.T) {
	cases := [][2]string{
		{"?x type car", "?x type pickup"},
		{"?x type car", "?x type car . ?x type car"},
		{"?a p ?b . ?b p ?a", "?a p ?b . ?a p ?b"},
		{"?x type car", "?x ?p car"},
		{"lit type car", "?x type car"},
	}
	for _, c := range cases {
		a, b := MustParseBGP(c[0]), MustParseBGP(c[1])
		if Canonical(a) == Canonical(b) {
			t.Errorf("distinct BGPs %q and %q share key %q", c[0], c[1], Canonical(a))
		}
	}
}

// TestCanonicalKeyIsEquivalentBGP checks soundness end to end: parsing a
// BGP's canonical key back yields a BGP with the same solution multiset (up
// to variable names) on a concrete store.
func TestCanonicalKeyIsEquivalentBGP(t *testing.T) {
	s := fill(t,
		[3]string{"a", "type", "car"},
		[3]string{"b", "type", "car"},
		[3]string{"a", "locatedIn", "rome"},
		[3]string{"b", "locatedIn", "paris"},
		[3]string{"rome", "type", "city"},
	)
	for _, text := range []string{
		"?x type car . ?x locatedIn ?site . ?site type city",
		"?x type car",
		"?x ?p ?o",
	} {
		bgp := MustParseBGP(text)
		key := Canonical(bgp)
		reparsed, err := ParseBGP(key)
		if err != nil {
			t.Fatalf("canonical key %q does not parse: %v", key, err)
		}
		if Canonical(reparsed) != key {
			t.Fatalf("canonicalization is not idempotent: %q -> %q", key, Canonical(reparsed))
		}
		want, err := Eval(s, bgp).All()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eval(s, reparsed).All()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("%q: key BGP has %d solutions, original %d", text, len(got), len(want))
		}
	}
}

func TestParseBGPErrorPaths(t *testing.T) {
	cases := []struct {
		name, text, wantSub string
	}{
		{"empty input", "", "no patterns"},
		{"whitespace only", "   \n\t ", "no patterns"},
		{"separators only", " . ; \n .", "no patterns"},
		{"unterminated pattern", "?x type car . ?x locatedIn", "has 2 terms"},
		{"one term", "?x", "has 1 terms"},
		{"four terms", "?x type car extra", "has 4 terms"},
		{"empty variable name", "? type car", "empty name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bgp, err := ParseBGP(c.text)
			if err == nil {
				t.Fatalf("ParseBGP(%q) = %v, want error", c.text, bgp)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("ParseBGP(%q) error %q does not mention %q", c.text, err, c.wantSub)
			}
		})
	}
	// A variable-only triple is legal — every component may be a variable —
	// and must parse, not error.
	if _, err := ParseBGP("?s ?p ?o"); err != nil {
		t.Fatalf("variable-only pattern should parse: %v", err)
	}
}

func TestInterruptStopsEvaluation(t *testing.T) {
	// A store big enough that the full cross product would take a while.
	triples := make([][3]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		triples = append(triples, [3]string{"s" + strconv.Itoa(i%500), "p", "o" + strconv.Itoa(i%40)})
	}
	s := fill(t, triples...)

	// Cancelled from the start: the iterator must terminate quickly and
	// report ErrInterrupted even though the BGP has a huge solution space.
	bgp := MustParseBGP("?a p ?b . ?c p ?d . ?e p ?f")
	sols := Eval(s, bgp, Interrupt(nil, time.Now()))
	n := 0
	for sols.Next() {
		n++
		if n > 4*interruptTickMask {
			t.Fatal("iterator kept producing solutions long after cancellation")
		}
	}
	if !errors.Is(sols.Err(), ErrInterrupted) {
		t.Fatalf("Err = %v, want ErrInterrupted", sols.Err())
	}

	// Never cancelled: the hook must not change the result set.
	small := fill(t, [3]string{"a", "type", "car"}, [3]string{"b", "type", "car"})
	got := bindings(t, Eval(small, MustParseBGP("?x type car"), Interrupt(context.Background(), time.Now().Add(time.Hour))))
	want := bindings(t, Eval(small, MustParseBGP("?x type car")))
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("an Interrupt that never fires changed the solutions: %v vs %v", got, want)
	}
}

var canonicalSink string

func BenchmarkCanonical(b *testing.B) {
	bgp := MustParseBGP("?x type car . ?x locatedIn ?site . ?site type city . ?site partOf ?country")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		canonicalSink = Canonical(bgp)
	}
}
