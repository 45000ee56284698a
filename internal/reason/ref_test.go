package reason

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/store"
)

// This file verifies the semi-naive engine and its incremental maintenance
// against the dumbest correct evaluator: the model's naive fixpoint
// (internal/model), which re-applies every rule over every fact combination
// until nothing changes, recomputed from scratch after every mutation. The
// engine must agree with it on the full materialization after arbitrary
// schedules of adds and removes — as a seeded property test here and as a
// fuzz target (FuzzReasonMatchesReference).

// modelPattern converts a pattern to the model's.
func modelPattern(p query.TriplePattern) model.Pattern {
	return model.Pattern{Subject: model.Term(p.Subject), Predicate: model.Term(p.Predicate), Object: model.Term(p.Object)}
}

// modelRules converts rules to the model's.
func modelRules(rules []Rule) []model.Rule {
	out := make([]model.Rule, len(rules))
	for i, r := range rules {
		out[i].Head = modelPattern(r.Head)
		for _, p := range r.Body {
			out[i].Body = append(out[i].Body, modelPattern(p))
		}
	}
	return out
}

// modelTriples converts triples to the model's.
func modelTriples(ts []store.Triple) []model.Triple {
	out := make([]model.Triple, len(ts))
	for i, t := range ts {
		out[i] = model.Triple(t)
	}
	return out
}

// modelSet is the model's set of ts.
func modelSet(ts []store.Triple) model.Set { return model.NewSet(modelTriples(ts)...) }

// closure is the model's rule closure of the asserted triples.
func closure(asserted []store.Triple, rules []Rule) map[store.Triple]bool {
	out := map[store.Triple]bool{}
	for t := range modelSet(asserted).Closure(modelRules(rules)) {
		out[store.Triple(t)] = true
	}
	return out
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
	want := closure(r.Base().Triples(), rules)
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

// recordDeltas installs an event hook on r that keeps every Delta (its lists
// copied: they are the reasoner's once the hook returns) in the returned
// slice.
func recordDeltas(r *Reasoner) *[]Delta {
	events := new([]Delta)
	r.SetOnEvent(func(d Delta) {
		d.Added, d.Removed = slices.Clone(d.Added), slices.Clone(d.Removed)
		*events = append(*events, d)
	})
	return events
}

// applyChecked runs one Apply and holds it to four references: the model's
// closure for the materialization; the model's sequential write — the adds
// one by one, then the removes one by one, over a plain set — for the two
// counts, the base's contents and what the Delta must cover; the base's
// digest recomputed from scratch; and "generation +1 and exactly one Delta
// iff anything changed, else neither". events is what recordDeltas returned
// for r.
func applyChecked(t *testing.T, r *Reasoner, rules []Rule, events *[]Delta, adds, removes []store.Triple, context string) {
	t.Helper()
	seq := modelSet(r.Base().Triples())
	wantAdded, wantRemoved := seq.Apply(model.Write{Add: modelTriples(adds), Remove: modelTriples(removes)})
	gen, fired := r.Generation(), len(*events)
	added, removed, err := r.Apply(adds, removes, nil)
	if err != nil {
		t.Fatalf("%s: Apply(%v, %v): %v", context, adds, removes, err)
	}
	if added != len(wantAdded) || removed != len(wantRemoved) {
		t.Fatalf("%s: Apply(%v, %v) = %d added, %d removed; one at a time it is %d and %d", context, adds, removes, added, removed, len(wantAdded), len(wantRemoved))
	}
	want := make([]store.Triple, 0, len(seq))
	for _, tr := range seq.Sorted() {
		want = append(want, store.Triple(tr))
	}
	if got := r.Base().Triples(); !slices.Equal(got, want) {
		t.Fatalf("%s: Apply(%v, %v) left the base at %v, want %v", context, adds, removes, got, want)
	}
	var scratch store.Digest
	for _, tr := range want {
		scratch.Add(tr)
	}
	if got := r.Base().Position(); got.Digest != scratch || got.Gen != r.Generation() {
		t.Fatalf("%s: Apply(%v, %v) left the base at position %v, want generation %d and the digest %v of its triples", context, adds, removes, got, r.Generation(), scratch)
	}
	if changed := added+removed > 0; !changed {
		if r.Generation() != gen || len(*events) != fired {
			t.Fatalf("%s: a write that changed nothing moved generation %d → %d and fired %d events", context, gen, r.Generation(), len(*events)-fired)
		}
	} else {
		if r.Generation() != gen+1 || len(*events) != fired+1 {
			t.Fatalf("%s: a content-changing write moved generation %d → %d and fired %d events, want +1 and one", context, gen, r.Generation(), len(*events)-fired)
		}
		d, res := (*events)[fired], r.Base().NewResolver()
		covered := map[store.Triple]bool{}
		for _, ids := range [2][]store.IDTriple{d.Added, d.Removed} {
			for _, id := range ids {
				covered[store.Triple{Subject: res.Name(id.S), Predicate: res.Name(id.P), Object: res.Name(id.O)}] = true
			}
		}
		for _, w := range append(slices.Clone(wantAdded), wantRemoved...) {
			if !covered[store.Triple(w)] {
				t.Fatalf("%s: the Delta does not cover the asserted change %v", context, w)
			}
		}
		if d.Gen != gen+1 {
			t.Fatalf("%s: Delta carries generation %d, want %d", context, d.Gen, gen+1)
		}
	}
	checkAgainstNaive(t, r, rules, context)
}

// randomApply draws one two-sided write: a few adds from draw, and removes
// from the base, from this call's own adds, from the inferred-only triples
// and from draw again (mostly absent), with duplicates on both sides.
func randomApply(rng *rand.Rand, r *Reasoner, draw func() store.Triple) (adds, removes []store.Triple) {
	for i, n := 0, rng.Intn(4); i < n; i++ {
		adds = append(adds, draw())
	}
	if len(adds) > 0 && rng.Intn(3) == 0 {
		adds = append(adds, adds[rng.Intn(len(adds))])
	}
	asserted, inferred := r.Base().Triples(), r.Overlay().Triples()
	for i, n := 0, rng.Intn(5); i < n; i++ {
		switch k := rng.Intn(5); {
		case k == 0 && len(adds) > 0:
			removes = append(removes, adds[rng.Intn(len(adds))])
		case k == 1 && len(inferred) > 0:
			removes = append(removes, inferred[rng.Intn(len(inferred))])
		case k == 2:
			removes = append(removes, draw())
		case k == 3 && len(removes) > 0:
			removes = append(removes, removes[rng.Intn(len(removes))])
		case len(asserted) > 0:
			removes = append(removes, asserted[rng.Intn(len(asserted))])
		}
	}
	return adds, removes
}

// TestApplyMatchesReference is the mixed-write property: random rule sets and
// stores, then random two-sided Apply steps, each held to applyChecked's
// references.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 120; trial++ {
		rules := randomRules(rng)
		base := store.New()
		for i, n := 0, rng.Intn(10); i < n; i++ {
			base.MustAdd(randomTriple(rng))
		}
		r, err := Materialize(base, rules)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		events := recordDeltas(r)
		for step := 0; step < 6; step++ {
			adds, removes := randomApply(rng, r, func() store.Triple { return randomTriple(rng) })
			applyChecked(t, r, rules, events, adds, removes, fmt.Sprintf("trial %d step %d", trial, step))
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
// schedules — single adds and removes, and two-sided Apply steps — to the
// engine, holding it to the naive reference closure (and, through
// applyChecked, the sequential model) after every mutation. Non-negative seeds draw a random rule set and store;
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
		events := recordDeltas(r)
		pick := func(op byte) store.Triple { return c.pool[int(op>>2)%len(c.pool)] }
		for i := 0; i < len(ops); i++ {
			op, context := ops[i], fmt.Sprintf("op %d", i)
			var adds, removes []store.Triple
			switch op & 3 {
			case 0:
				adds = []store.Triple{pick(op)}
			case 1:
				removes = []store.Triple{pick(op)}
			default:
				// A two-sided write: this byte's triple and the next's
				// asserted, the one after retracted — named twice — and, for
				// kind 3, the first add retracted by the same write.
				adds = []store.Triple{pick(op)}
				if i+1 < len(ops) {
					i++
					adds = append(adds, pick(ops[i]))
				}
				if i+1 < len(ops) {
					i++
					removes = append(removes, pick(ops[i]), pick(ops[i]))
				}
				if op&3 == 3 {
					removes = append(removes, adds[0])
				}
			}
			applyChecked(t, r, c.rules, events, adds, removes, context)
		}
	})
}
