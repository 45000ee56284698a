package reason

import (
	"fmt"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// This file compiles rules to the dictionary-id level and lowers the
// semi-naive matching onto the batched operator runtime in
// repro/internal/query/exec — the same operators the query layer evaluates
// BGPs with, so materialization is batch joins over deltas instead of a
// private tuple-at-a-time matcher. A rule's atoms compile to the exec.Pattern
// a BGP's patterns compile to (query.TriplePattern.Compile): literals are
// interned ids (head literals are interned eagerly, so a rule can conclude
// symbols no asserted triple mentions yet), variables slot indexes into the
// operator tree's columnar batches. Every pipeline the engine runs is one
// exec.Lower of a precomputed order, from one of three leaves: a store scan
// (matchAll, the seed round's whole rule), a slice of the delta (matchDelta,
// one semi-naive term "atom di ranges over the delta, the rest probe the full
// materialization") or a seeded row (derives, the rederivation test); every
// one drains through drainHeads, and the last two are built from the
// reasoner's write scratch.

// crule is one compiled rule: its head, its body, the number of distinct
// variables, and the precomputed evaluation orders — one per choice of delta
// atom (delta atom first, then greedily most-bound-next), plus the order used
// when rederiving with the head's variables pre-bound.
type crule struct {
	name       string
	head       exec.Pattern
	body       []exec.Pattern
	nvars      int
	deltaOrder [][]exec.Step // deltaOrder[i]: the body in evaluation order with atom i first
	headOrder  []exec.Step   // the body in evaluation order with head variables pre-bound
	// selfAtom is the index of the recursive body atom of a propagation rule
	// (see markPropagation), -1 for every other rule: the atom that is not
	// fed the triples the rule itself concluded in the previous round.
	selfAtom int
}

// compileRules validates and compiles a rule set against the base store's
// dictionary.
func compileRules(base *store.Store, rules []Rule) ([]crule, error) {
	if err := ValidateRules(rules); err != nil {
		return nil, err
	}
	out := make([]crule, 0, len(rules))
	for _, r := range rules {
		vars := map[string]int{}
		slot := func(name string) int {
			idx, ok := vars[name]
			if !ok {
				idx = len(vars)
				vars[name] = idx
			}
			return idx
		}
		var err error
		lit := func(value string) store.SymbolID {
			id, e := base.Intern(value)
			if err == nil {
				err = e
			}
			return id
		}
		cr := crule{name: r.Name, selfAtom: -1}
		for _, p := range r.Body {
			cr.body = append(cr.body, p.Compile(slot, lit))
		}
		cr.head = r.Head.Compile(slot, lit)
		if err != nil {
			return nil, fmt.Errorf("reason: compiling rule %q: %w", r.Name, err)
		}
		cr.nvars = len(vars)
		cr.deltaOrder = make([][]exec.Step, len(cr.body))
		for i := range cr.body {
			cr.deltaOrder[i] = cr.orderFrom([]int{i}, make([]bool, cr.nvars))
		}
		headVars := make([]bool, cr.nvars)
		cr.head.Bind(headVars)
		cr.headOrder = cr.orderFrom(nil, headVars)
		out = append(out, cr)
	}
	markPropagation(out)
	return out, nil
}

// markPropagation recognises the propagation rules of a rule set — the shape
// the RDFS set contains twice, type-propagation over subClassOf and
// subPropertyOf-propagation over subPropertyOf — and records their recursive
// atom in selfAtom. The exact syntactic condition: a rule L with two body
// atoms R and E, in either order, where
//
//   - E = (x e y) is an edge: x and y are distinct variables and e is a
//     literal predicate;
//   - R mentions x but not y, and its predicate is not the literal e (so a
//     transitivity rule is never its own L);
//   - the head is R with every x replaced by y;
//   - some rule T of the same set closes e: (a e c) ← (a e b), (b e c) with
//     three distinct variables, body atoms in either order.
//
// For such a pair a triple A[y] that L concluded in round k (from A[x] and
// (x e y)) is not fed back to R in round k+1: whatever that term would add —
// A[z], from A[y] and an edge (y e z) no newer than A[y] — also follows from
// A[x] and (x e z), and T, all of whose terms run, has concluded (x e z) by
// round k. DESIGN.md ("Propagation rules do not re-read their own
// conclusions") has the three-case proof that this derivation is always
// evaluated; it needs only a set closed under the rules plus a delta, so the
// skip applies to every propagation — initial, incremental, and the
// re-propagation phase of delete-and-rederive — but not to overdeletion,
// which runs the same term loop (Reasoner.terms) with the skip off.
func markPropagation(rules []crule) {
	closed := map[store.SymbolID]bool{}
	for i := range rules {
		if e, ok := rules[i].transitivityOver(); ok {
			closed[e] = true
		}
	}
	for i := range rules {
		r := &rules[i]
		if len(r.body) != 2 {
			continue
		}
		for ri := 0; ri < 2 && r.selfAtom < 0; ri++ {
			rec, edge := r.body[ri], r.body[1-ri]
			x, e, y := edge[0], edge[1], edge[2]
			if !x.IsVar || e.IsVar || !y.IsVar || x.Slot == y.Slot || !closed[e.ID] {
				continue
			}
			if rec[1] == e {
				continue
			}
			walks, ok := false, true
			for k, t := range rec {
				want := t
				if t.IsVar && t.Slot == x.Slot {
					want, walks = y, true
				}
				if (t.IsVar && t.Slot == y.Slot) || r.head[k] != want {
					ok = false
				}
			}
			if ok && walks {
				r.selfAtom = ri
			}
		}
	}
}

// transitivityOver reports the literal predicate e the rule closes
// transitively: (a e c) ← (a e b), (b e c) over three distinct variables,
// body atoms in either order.
func (r *crule) transitivityOver() (store.SymbolID, bool) {
	if len(r.body) != 2 {
		return 0, false
	}
	e := r.head[1]
	if e.IsVar {
		return 0, false
	}
	for _, a := range [...]exec.Pattern{r.head, r.body[0], r.body[1]} {
		if !a[0].IsVar || a[1] != e || !a[2].IsVar {
			return 0, false
		}
	}
	for i := 0; i < 2; i++ {
		first, second := r.body[i], r.body[1-i]
		a, b, c := first[0].Slot, first[2].Slot, second[2].Slot
		if second[0].Slot == b && a != b && b != c && a != c &&
			r.head[0].Slot == a && r.head[2].Slot == c {
			return e.ID, true
		}
	}
	return 0, false
}

// orderFrom completes an evaluation order: starting from the given prefix of
// atoms — their variables, and any flagged in bound, count as bound — it
// repeatedly appends the remaining atom with the most bound components (ties
// to the earlier atom), the static analogue of the query planner's
// follow-the-join heuristic. bound is updated in place.
func (r *crule) orderFrom(prefix []int, bound []bool) []exec.Step {
	order := make([]exec.Step, 0, len(r.body))
	used := make([]bool, len(r.body))
	take := func(i int) {
		used[i] = true
		order = append(order, exec.Step{Pat: r.body[i]})
		r.body[i].Bind(bound)
	}
	for _, i := range prefix {
		take(i)
	}
	for len(order) < len(r.body) {
		best, bestScore := -1, -1
		for i, a := range r.body {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a {
				if !t.IsVar || bound[t.Slot] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		take(best)
	}
	return order
}

// headTriple instantiates the rule's head from row r of a complete-binding
// batch (heads are range-restricted, so every head variable has a bound slot
// by the time a body pipeline emits rows).
func (r *crule) headTriple(b *exec.Batch, row int) store.IDTriple {
	var out [3]store.SymbolID
	for i, t := range r.head {
		if t.IsVar {
			out[i] = b.Cols[t.Slot][row]
		} else {
			out[i] = t.ID
		}
	}
	return store.IDTriple{S: out[0], P: out[1], O: out[2]}
}

// matchAll enumerates every instantiation of the rule's body over db,
// emitting each instantiated head. It is the whole rule in one pipeline —
// what every semi-naive term of a round degenerates to when the delta is the
// entire database — so the seed round runs it once per rule instead of once
// per body atom: a store scan over the body atom with the fewest matches,
// then one batch join per remaining atom in that atom's deltaOrder.
func matchAll(ctx *exec.Ctx, r *crule, db *store.Store, emit func(store.IDTriple) bool) {
	di, least := 0, -1
	for i, a := range r.body {
		if n := db.StatsID(a.Template()).Count; least < 0 || n < least {
			di, least = i, n
		}
	}
	// Unlike a delta term, whose probes mostly miss, a whole-database join
	// fans out (every class probes for all its instances): hand each join
	// the query planner's per-probe estimate so it windows its probes instead
	// of buffering a whole child batch's matches.
	var stepsArr [4]exec.Step // a longer body's copy grows onto the heap
	steps := append(stepsArr[:0], r.deltaOrder[di]...)
	bound := make([]bool, r.nvars)
	for i := range steps {
		steps[i].Est = exec.CardOf(db.StatsID(steps[i].Pat.Template())).Fanout(steps[i].Pat, bound)
		steps[i].Pat.Bind(bound)
	}
	clear(bound)
	drainHeads(ctx, r, exec.Lower(db, nil, steps, bound, r.nvars), emit)
}

// drainHeads pulls the pipeline dry under ctx, emitting the rule's head for
// every row, and reports whether it ran to completion; emit returns false to
// stop, and the abandoned pipeline hands its pooled buffers back.
func drainHeads(ctx *exec.Ctx, r *crule, op exec.Op, emit func(store.IDTriple) bool) bool {
	for {
		b, err := op.Next(ctx)
		if err != nil || b == nil {
			return true
		}
		for row := 0; row < b.N; row++ {
			if !emit(r.headTriple(b, row)) {
				exec.Close(op)
				return false
			}
		}
	}
}

// matchDelta enumerates every instantiation of the rule whose atom di
// matches a triple of delta and whose remaining atoms match the reasoner's
// view, emitting each instantiated head; emit returns false to stop the
// enumeration, and matchDelta reports whether it ran to completion. This is
// one term of the semi-naive expansion — restricting one atom to the delta
// makes a round's work proportional to the new facts, and iterating di over
// all body positions covers every derivation that uses at least one new fact
// — run as a batched pipeline: a SliceScan leaf over the delta, then one
// batch join per remaining atom in the precomputed deltaOrder. Heads are
// emitted from the pipeline's output batches, after every probe's read-lock
// has been released, so emit may (unlike a store iterator callback) buffer
// freely. Callers hold r.mu: the pipeline is built from write scratch.
func (r *Reasoner) matchDelta(cr *crule, di int, delta []store.IDTriple, emit func(store.IDTriple) bool) bool {
	if len(delta) == 0 {
		return true
	}
	order := cr.deltaOrder[di]
	bound := r.scratch.bound[:cr.nvars]
	clear(bound)
	order[0].Pat.Bind(bound)
	op := exec.Lower(r.view, exec.NewSliceScan(delta, order[0].Pat, cr.nvars), order[1:], bound, cr.nvars)
	return drainHeads(&r.scratch.ctx, cr, op, emit)
}

// derives reports whether the rule derives the given triple in one step from
// the reasoner's view: the head is unified with the triple, the resulting
// bindings seed a one-row leaf, and the whole body is evaluated as batch
// joins under that seed (the headOrder). It is the rederivation test of the
// delete-and-rederive maintenance pass; the pipeline is abandoned at the
// first surviving row. Callers hold r.mu: the pipeline is built from write
// scratch.
func (r *Reasoner) derives(cr *crule, t store.IDTriple) bool {
	vals, bound := r.scratch.vals[:cr.nvars], r.scratch.bound[:cr.nvars]
	clear(vals)
	clear(bound)
	tv := [3]store.SymbolID{t.S, t.P, t.O}
	for i, ht := range cr.head {
		if !ht.IsVar {
			if ht.ID != tv[i] {
				return false
			}
			continue
		}
		if bound[ht.Slot] {
			if vals[ht.Slot] != tv[i] {
				return false
			}
			continue
		}
		vals[ht.Slot] = tv[i]
		bound[ht.Slot] = true
	}
	op := exec.Lower(r.view, exec.NewSeed(vals, bound, cr.nvars), cr.headOrder, bound, cr.nvars)
	return !drainHeads(&r.scratch.ctx, cr, op, func(store.IDTriple) bool { return false })
}
