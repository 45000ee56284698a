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
		out = append(out, cr)
	}
	return out, nil
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
	order := r.deltaOrder[di]
	bound := make([]bool, r.nvars)
	r.body[di].bindVars(bound)
	op := bodyPipeline(r, order[1:], exec.NewSliceScan(delta, r.body[di].execPattern(), r.nvars), bound, db)
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
