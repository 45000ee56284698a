package reason

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// This file verifies the semi-naive engine and its incremental maintenance
// against the dumbest correct evaluator: a string-level naive fixpoint that
// re-applies every rule over every fact combination until nothing changes,
// recomputed from scratch after every mutation. The engine must agree with
// it on the full materialization after arbitrary schedules of adds and
// removes — as a seeded property test here and as a fuzz target
// (FuzzReasonMatchesReference).

// naiveClosure computes the rule closure of the asserted triples by naive
// brute-force fixpoint iteration.
func naiveClosure(asserted []store.Triple, rules []Rule) map[store.Triple]bool {
	facts := map[store.Triple]bool{}
	for _, t := range asserted {
		facts[t] = true
	}
	for {
		var fresh []store.Triple
		for _, r := range rules {
			naiveMatch(r, facts, map[string]string{}, 0, &fresh)
		}
		changed := false
		for _, t := range fresh {
			if !facts[t] {
				facts[t] = true
				changed = true
			}
		}
		if !changed {
			return facts
		}
	}
}

// naiveMatch enumerates every instantiation of the rule body over the fact
// set by backtracking, appending each instantiated head to out.
func naiveMatch(r Rule, facts map[store.Triple]bool, bind map[string]string, atom int, out *[]store.Triple) {
	if atom == len(r.Body) {
		*out = append(*out, instantiate(r.Head, bind))
		return
	}
	p := r.Body[atom]
	for f := range facts {
		trial := map[string]string{}
		for k, v := range bind {
			trial[k] = v
		}
		if unifyTerm(p.Subject, f.Subject, trial) &&
			unifyTerm(p.Predicate, f.Predicate, trial) &&
			unifyTerm(p.Object, f.Object, trial) {
			naiveMatch(r, facts, trial, atom+1, out)
		}
	}
}

func unifyTerm(t query.Term, val string, bind map[string]string) bool {
	if !t.IsVar {
		return t.Value == val
	}
	if b, ok := bind[t.Value]; ok {
		return b == val
	}
	bind[t.Value] = val
	return true
}

func instantiate(p query.TriplePattern, bind map[string]string) store.Triple {
	get := func(t query.Term) string {
		if t.IsVar {
			return bind[t.Value]
		}
		return t.Value
	}
	return store.Triple{Subject: get(p.Subject), Predicate: get(p.Predicate), Object: get(p.Object)}
}

// sortedTriples renders a fact set sorted, for diffs.
func sortedTriples(m map[store.Triple]bool) []store.Triple {
	out := make([]store.Triple, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object < b.Object
	})
	return out
}

// checkAgainstNaive compares the reasoner's materialized view against the
// naive closure of the base store's current triples.
func checkAgainstNaive(t *testing.T, r *Reasoner, rules []Rule, context string) {
	t.Helper()
	want := naiveClosure(r.Base().Triples(), rules)
	got := map[store.Triple]bool{}
	for _, tr := range r.View().Triples() {
		got[tr] = true
	}
	if len(got) != len(want) {
		t.Fatalf("%s: materialization has %d triples, naive closure %d\n got: %v\nwant: %v",
			context, len(got), len(want), sortedTriples(got), sortedTriples(want))
	}
	for tr := range want {
		if !got[tr] {
			t.Fatalf("%s: naive closure contains %v, materialization does not", context, tr)
		}
	}
	// The overlay must hold exactly the inferred (non-asserted) part.
	for _, tr := range r.Overlay().Triples() {
		if r.Base().Contains(tr) {
			t.Fatalf("%s: %v is both asserted and in the overlay (invariant violated)", context, tr)
		}
	}
}

// randomRules generates a small random range-restricted rule set.
func randomRules(rng *rand.Rand) []Rule {
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q", "r"}
	vars := []string{"x", "y", "z"}
	term := func(pool []string) query.Term {
		if rng.Intn(2) == 0 {
			return query.Var(vars[rng.Intn(len(vars))])
		}
		return query.Lit(pool[rng.Intn(len(pool))])
	}
	pattern := func() query.TriplePattern {
		return query.Pat(term(nodes), term(preds), term(nodes))
	}
	var rules []Rule
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		body := []query.TriplePattern{pattern()}
		if rng.Intn(2) == 0 {
			body = append(body, pattern())
		}
		bodyVars := map[string]bool{}
		for _, p := range body {
			for _, t := range []query.Term{p.Subject, p.Predicate, p.Object} {
				if t.IsVar {
					bodyVars[t.Value] = true
				}
			}
		}
		head := pattern()
		fix := func(t query.Term, pool []string) query.Term {
			if t.IsVar && !bodyVars[t.Value] {
				return query.Lit(pool[rng.Intn(len(pool))])
			}
			return t
		}
		head.Subject = fix(head.Subject, nodes)
		head.Predicate = fix(head.Predicate, preds)
		head.Object = fix(head.Object, nodes)
		rules = append(rules, Rule{Name: fmt.Sprintf("rand-%d", i), Head: head, Body: body})
	}
	return rules
}

// randomTriple draws a triple from the same small vocabulary the rules use,
// so rules actually fire.
func randomTriple(rng *rand.Rand) store.Triple {
	nodes := []string{"a", "b", "c", "d"}
	preds := []string{"p", "q", "r"}
	return store.Triple{
		Subject:   nodes[rng.Intn(len(nodes))],
		Predicate: preds[rng.Intn(len(preds))],
		Object:    nodes[rng.Intn(len(nodes))],
	}
}

// TestReasonMatchesReference drives random rule sets and random add/remove
// schedules through the engine and checks the materialization against the
// naive recompute-from-scratch closure after every step.
func TestReasonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		rules := randomRules(rng)
		base := store.New()
		for i, n := 0, rng.Intn(10); i < n; i++ {
			base.MustAdd(randomTriple(rng))
		}
		r, err := Materialize(base, rules)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAgainstNaive(t, r, rules, fmt.Sprintf("trial %d: initial", trial))
		for step := 0; step < 8; step++ {
			tr := randomTriple(rng)
			if rng.Intn(2) == 0 {
				if _, err := r.Add(tr); err != nil {
					t.Fatalf("trial %d step %d: Add(%v): %v", trial, step, tr, err)
				}
				checkAgainstNaive(t, r, rules, fmt.Sprintf("trial %d step %d: after Add(%v)", trial, step, tr))
			} else {
				r.Remove(tr)
				checkAgainstNaive(t, r, rules, fmt.Sprintf("trial %d step %d: after Remove(%v)", trial, step, tr))
			}
		}
	}
}

// TestReasonAddRemoveRestoresSnapshot is the incremental-maintenance
// round-trip property: over random rule sets and stores, Add(t) followed by
// Remove(t) for a t that was not asserted returns the materialized view to a
// byte-identical snapshot — delete-and-rederive leaves no residue and loses
// no surviving derivation.
func TestReasonAddRemoveRestoresSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 120; trial++ {
		rules := randomRules(rng)
		base := store.New()
		for i, n := 0, 2+rng.Intn(10); i < n; i++ {
			base.MustAdd(randomTriple(rng))
		}
		r, err := Materialize(base, rules)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := randomTriple(rng)
		if r.Base().Contains(tr) {
			continue // Remove would genuinely change the asserted state
		}
		var before bytes.Buffer
		if _, err := r.View().Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		var beforeTagged bytes.Buffer
		if _, err := r.View().SnapshotProvenance(&beforeTagged); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Add(tr); err != nil {
			t.Fatalf("trial %d: Add(%v): %v", trial, tr, err)
		}
		if !r.Remove(tr) {
			t.Fatalf("trial %d: Remove(%v) found nothing to remove", trial, tr)
		}
		var after bytes.Buffer
		if _, err := r.View().Snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("trial %d: Add(%v); Remove(%v) did not restore the materialization\nbefore:\n%s\nafter:\n%s",
				trial, tr, tr, before.String(), after.String())
		}
		var afterTagged bytes.Buffer
		if _, err := r.View().SnapshotProvenance(&afterTagged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(beforeTagged.Bytes(), afterTagged.Bytes()) {
			t.Fatalf("trial %d: Add(%v); Remove(%v) changed provenance tags\nbefore:\n%s\nafter:\n%s",
				trial, tr, tr, beforeTagged.String(), afterTagged.String())
		}
	}
}

// FuzzReasonMatchesReference feeds byte-derived rule sets and operation
// schedules to the engine, holding it to the naive reference closure after
// every mutation. Non-negative seeds draw a random rule set and store;
// negative ones pick an adversarial schema of bulk_test.go (mostly the RDFS
// set, whose propagation rules skip their own conclusions), so the schedule
// of adds and removes runs on top of a bulk-built overlay. CI runs a short
// pass.
func FuzzReasonMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(99), []byte{7, 3, 1, 0, 200, 13, 42, 8})
	cases := adversarialCases(f)
	for i := range cases {
		f.Add(int64(-1-i), []byte{0, 2, 4, 1, 3, 6, 5, 8, 7, 10, 9, 11})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		var c bulkCase
		if seed < 0 {
			c = cases[int(-(seed+1)%int64(len(cases)))]
			c.pool = append(append([]store.Triple(nil), c.asserted...), c.pool...)
		} else {
			c.rules = randomRules(rng)
			for i, n := 0, rng.Intn(8); i < n; i++ {
				c.asserted = append(c.asserted, randomTriple(rng))
			}
			for _, s := range []string{"a", "b", "c", "d"} {
				for _, p := range []string{"p", "q", "r"} {
					for _, o := range []string{"a", "b", "c", "d"} {
						c.pool = append(c.pool, store.Triple{Subject: s, Predicate: p, Object: o})
					}
				}
			}
		}
		base := store.New()
		if _, err := base.AddBatch(c.asserted); err != nil {
			t.Fatal(err)
		}
		r, err := Materialize(base, c.rules)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, r, c.rules, "initial")
		for i, op := range ops {
			tr := c.pool[int(op>>1)%len(c.pool)]
			if op&1 == 0 {
				if _, err := r.Add(tr); err != nil {
					t.Fatal(err)
				}
			} else {
				r.Remove(tr)
			}
			checkAgainstNaive(t, r, c.rules, fmt.Sprintf("op %d", i))
		}
	})
}
