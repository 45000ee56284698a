package reason

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/query/exec"
	"repro/internal/store"
)

// This file compiles rules to the dictionary-id level and lowers the
// semi-naive matching onto the batched operator runtime in
// repro/internal/query/exec — the same operators the query layer evaluates
// BGPs with, so materialization is batch joins over deltas instead of a
// private tuple-at-a-time matcher. A compiled rule's literals are interned
// ids (head literals are interned eagerly, so a rule can conclude symbols no
// asserted triple mentions yet), its variables are slot indexes into the
// operator tree's columnar batches, and each semi-naive term "atom di ranges
// over the delta, the rest probe the full materialization" becomes a
// SliceScan leaf over the delta feeding shard-grouped batch joins against
// the view.

// cterm is one compiled pattern component: an interned literal or a
// variable slot index.
type cterm struct {
	isVar bool
	v     int            // variable slot, when isVar
	id    store.SymbolID // literal id, when !isVar
}

// catom is one compiled triple pattern.
type catom struct {
	t [3]cterm
}

// execPattern lowers the atom onto the operator runtime's pattern form.
func (a catom) execPattern() exec.Pattern {
	var p exec.Pattern
	for i, t := range a.t {
		if t.isVar {
			p[i] = exec.Var(t.v)
		} else {
			p[i] = exec.Lit(t.id)
		}
	}
	return p
}

// idPattern is the atom as a store pattern: literals bound, variables
// wildcards (a repeated variable is not expressible there, so the count of
// the pattern is an upper bound on the atom's matches).
func (a catom) idPattern() store.IDPattern {
	return store.IDPattern{
		S: a.t[0].id, BoundS: !a.t[0].isVar,
		P: a.t[1].id, BoundP: !a.t[1].isVar,
		O: a.t[2].id, BoundO: !a.t[2].isVar,
	}
}

// bindVars marks the atom's variable slots bound.
func (a catom) bindVars(bound []bool) {
	for _, t := range a.t {
		if t.isVar {
			bound[t.v] = true
		}
	}
}

// crule is one compiled rule: its head, its body, the number of distinct
// variables, and the precomputed evaluation orders — one per choice of delta
// atom (delta atom first, then greedily most-bound-next), plus the order used
// when rederiving with the head's variables pre-bound.
type crule struct {
	name       string
	head       catom
	body       []catom
	nvars      int
	deltaOrder [][]int // deltaOrder[i]: evaluation order with atom i first
	headOrder  []int   // evaluation order with head variables pre-bound
	// selfAtom is the index of the recursive body atom of a propagation rule
	// (see markPropagation), -1 for every other rule: the atom that is not
	// fed the triples the rule itself concluded in the previous round.
	selfAtom int
}

// compileTerm compiles one term, interning literals and assigning variable
// slots through vars.
func compileTerm(t query.Term, vars map[string]int, base *store.Store) (cterm, error) {
	if t.IsVar {
		idx, ok := vars[t.Value]
		if !ok {
			idx = len(vars)
			vars[t.Value] = idx
		}
		return cterm{isVar: true, v: idx}, nil
	}
	id, err := base.Intern(t.Value)
	if err != nil {
		return cterm{}, err
	}
	return cterm{id: id}, nil
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
		cr := crule{name: r.Name}
		for _, p := range r.Body {
			var a catom
			var err error
			for i, t := range [3]query.Term{p.Subject, p.Predicate, p.Object} {
				if a.t[i], err = compileTerm(t, vars, base); err != nil {
					return nil, fmt.Errorf("reason: compiling rule %q: %w", r.Name, err)
				}
			}
			cr.body = append(cr.body, a)
		}
		var err error
		for i, t := range [3]query.Term{r.Head.Subject, r.Head.Predicate, r.Head.Object} {
			if cr.head.t[i], err = compileTerm(t, vars, base); err != nil {
				return nil, fmt.Errorf("reason: compiling rule %q: %w", r.Name, err)
			}
		}
		cr.nvars = len(vars)
		cr.deltaOrder = make([][]int, len(cr.body))
		for i := range cr.body {
			cr.deltaOrder[i] = cr.orderFrom([]int{i}, cr.varsOf(i, nil))
		}
		headVars := map[int]bool{}
		for _, t := range cr.head.t {
			if t.isVar {
				headVars[t.v] = true
			}
		}
		cr.headOrder = cr.orderFrom(nil, headVars)
		cr.selfAtom = -1
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
// which is a different pass.
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
			x, e, y := edge.t[0], edge.t[1], edge.t[2]
			if !x.isVar || e.isVar || !y.isVar || x.v == y.v || !closed[e.id] {
				continue
			}
			if rec.t[1] == e {
				continue
			}
			walks, ok := false, true
			for k, t := range rec.t {
				want := t
				if t.isVar && t.v == x.v {
					want, walks = y, true
				}
				if (t.isVar && t.v == y.v) || r.head.t[k] != want {
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
	e := r.head.t[1]
	if e.isVar {
		return 0, false
	}
	for _, a := range [...]catom{r.head, r.body[0], r.body[1]} {
		if !a.t[0].isVar || a.t[1] != e || !a.t[2].isVar {
			return 0, false
		}
	}
	for i := 0; i < 2; i++ {
		first, second := r.body[i], r.body[1-i]
		a, b, c := first.t[0].v, first.t[2].v, second.t[2].v
		if second.t[0].v == b && a != b && b != c && a != c &&
			r.head.t[0].v == a && r.head.t[2].v == c {
			return e.id, true
		}
	}
	return 0, false
}

// varsOf accumulates atom i's variable indexes into set (allocating it when
// nil) and returns it.
func (r *crule) varsOf(i int, set map[int]bool) map[int]bool {
	if set == nil {
		set = map[int]bool{}
	}
	for _, t := range r.body[i].t {
		if t.isVar {
			set[t.v] = true
		}
	}
	return set
}

// orderFrom completes an evaluation order: starting from the given prefix of
// atom indexes and the variable set they bind, it repeatedly appends the
// remaining atom with the most bound components (ties to the earlier atom),
// the static analogue of the query planner's follow-the-join heuristic.
func (r *crule) orderFrom(prefix []int, bound map[int]bool) []int {
	order := append([]int(nil), prefix...)
	used := make([]bool, len(r.body))
	for _, i := range prefix {
		used[i] = true
	}
	if bound == nil {
		bound = map[int]bool{}
	}
	for len(order) < len(r.body) {
		best, bestScore := -1, -1
		for i := range r.body {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range r.body[i].t {
				if !t.isVar || bound[t.v] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		order = append(order, best)
		bound = r.varsOf(best, bound)
	}
	return order
}

// head instantiates the rule's head from row r of a complete-binding batch
// (heads are range-restricted, so every head variable has a bound slot by
// the time a body pipeline emits rows).
func (r *crule) headTriple(b *exec.Batch, row int) store.IDTriple {
	var out [3]store.SymbolID
	for i, ct := range r.head.t {
		if ct.isVar {
			out[i] = b.Cols[ct.v][row]
		} else {
			out[i] = ct.id
		}
	}
	return store.IDTriple{S: out[0], P: out[1], O: out[2]}
}

// bodyPipeline builds the operator tree of the rule's body in the given atom
// order, starting from leaf (which must already bind the slots flagged in
// bound); the remaining atoms become batch joins probing db. bound is
// updated in place to cover every body variable.
func bodyPipeline(r *crule, order []int, leaf exec.Op, bound []bool, db exec.Source) exec.Op {
	op := leaf
	for _, ai := range order {
		op = exec.NewJoin(op, db, r.body[ai].execPattern(), nil, bound, r.nvars, 0)
		r.body[ai].bindVars(bound)
	}
	return op
}

// matchAll enumerates every instantiation of the rule's body over db,
// emitting each instantiated head. It is the whole rule in one pipeline —
// what every semi-naive term of a round degenerates to when the delta is the
// entire database — so the seed round runs it once per rule instead of once
// per body atom: a store scan over the body atom with the fewest matches,
// then one batch join per remaining atom in that atom's deltaOrder.
func matchAll(r *crule, db *store.Store, emit func(store.IDTriple) bool) {
	di, least := 0, -1
	for i, a := range r.body {
		if n := db.StatsID(a.idPattern()).Count; least < 0 || n < least {
			di, least = i, n
		}
	}
	bound := make([]bool, r.nvars)
	r.body[di].bindVars(bound)
	op := exec.NewScan(db, r.body[di].execPattern(), nil, r.nvars)
	for _, ai := range r.deltaOrder[di][1:] {
		// Unlike a delta term, whose probes mostly miss, a whole-database
		// join fans out (every class probes for all its instances): hand the
		// join the query planner's per-probe estimate so it windows its
		// probes instead of buffering a whole child batch's matches.
		a := r.body[ai]
		st := db.StatsID(a.idPattern())
		est := st.Count
		for k, distinct := range [3]int{st.DistinctS, st.DistinctP, st.DistinctO} {
			if a.t[k].isVar && bound[a.t[k].v] && distinct > 1 {
				est /= distinct
			}
		}
		op = exec.NewJoin(op, db, a.execPattern(), nil, bound, r.nvars, est)
		a.bindVars(bound)
	}
	drainHeads(r, op, emit)
}

// drainHeads pulls the pipeline dry, emitting the rule's head for every row,
// and reports whether it ran to completion; emit returns false to stop.
func drainHeads(r *crule, op exec.Op, emit func(store.IDTriple) bool) bool {
	var ctx exec.Ctx
	for {
		b, err := op.Next(&ctx)
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
// matches a triple of delta and whose remaining atoms match db, emitting
// each instantiated head; emit returns false to stop the enumeration, and
// matchDelta reports whether it ran to completion. This is one term of the
// semi-naive expansion — restricting one atom to the delta makes a round's
// work proportional to the new facts, and iterating di over all body
// positions covers every derivation that uses at least one new fact — run
// as a batched pipeline: a SliceScan leaf over the delta, then one batch
// join per remaining atom in the precomputed deltaOrder. Heads are emitted
// from the pipeline's output batches, after every probe's shard lock has
// been released, so emit may (unlike a store iterator callback) buffer
// freely.
func matchDelta(r *crule, di int, delta []store.IDTriple, db exec.Source, emit func(store.IDTriple) bool) bool {
	if len(delta) == 0 {
		return true
	}
	order := r.deltaOrder[di]
	bound := make([]bool, r.nvars)
	r.body[di].bindVars(bound)
	op := bodyPipeline(r, order[1:], exec.NewSliceScan(delta, r.body[di].execPattern(), r.nvars), bound, db)
	return drainHeads(r, op, emit)
}

// derives reports whether the rule derives the given triple in one step from
// db: the head is unified with the triple, the resulting bindings seed a
// one-row leaf, and the whole body is evaluated as batch joins under that
// seed (the headOrder). It is the rederivation test of the delete-and-
// rederive maintenance pass; the pipeline is abandoned at the first
// surviving row.
func derives(r *crule, t store.IDTriple, db exec.Source) bool {
	vals := make([]store.SymbolID, r.nvars)
	bound := make([]bool, r.nvars)
	tv := [3]store.SymbolID{t.S, t.P, t.O}
	for i, ct := range r.head.t {
		if !ct.isVar {
			if ct.id != tv[i] {
				return false
			}
			continue
		}
		if bound[ct.v] {
			if vals[ct.v] != tv[i] {
				return false
			}
			continue
		}
		vals[ct.v] = tv[i]
		bound[ct.v] = true
	}
	op := bodyPipeline(r, r.headOrder, exec.NewSeed(vals, bound, r.nvars), bound, db)
	var ctx exec.Ctx
	for {
		b, err := op.Next(&ctx)
		if err != nil || b == nil {
			return false
		}
		if b.N > 0 {
			// Found a derivation: abandon the pipeline and hand its pooled
			// buffers back rather than enumerating the remaining rows.
			exec.Close(op)
			return true
		}
	}
}
