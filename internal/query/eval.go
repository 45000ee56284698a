package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// ErrInterrupted is the error a Solutions iterator reports through Err when
// an Interrupt option cancelled the evaluation before it was exhausted.
// Callers wrapping a context deadline should match it with errors.Is. It is
// the same value as exec.ErrInterrupted — the operator runtime produces it,
// this package re-exports it.
var ErrInterrupted = exec.ErrInterrupted

// Source is the id-level store surface Eval evaluates over, satisfied by
// both *store.Store (a single store) and *store.View (the asserted∪inferred
// union of a materialized store): dictionary lookups and cardinality
// statistics for the planner, plus the batched scan/probe hooks the operator
// runtime (repro/internal/query/exec) executes with. Anything exposing these
// five methods can sit under a BGP.
type Source interface {
	// SymbolID returns the dictionary id of a name; ok is false for names
	// never interned (a pattern bound to one matches nothing).
	SymbolID(name string) (store.SymbolID, bool)
	// QueryIDBatch answers a batch of same-shape probes in probe order under
	// one read-lock (see store.QueryIDBatch) — the join operators' probe hook.
	QueryIDBatch(ps []store.IDPattern, yield func(pi int, t store.IDTriple) bool)
	// Scan opens the resumable cursor over a pattern's matches (see
	// store.Scan) — the leaf operators' scan hook.
	Scan(p store.IDPattern) *store.ScanPart
	// StatsID returns cardinality statistics for the id pattern: the exact
	// match count and the distinct-component widths.
	StatsID(p store.IDPattern) store.IDStats
	// NewResolver returns a resolver from ids back to names.
	NewResolver() store.Resolver
}

// interruptTickMask mirrors the operator runtime's interrupt-poll throttle
// (exec polls its Ctx hook once every interruptTickMask+1 steps, and the
// Solutions adapter shares that budget); tests use it to bound how many
// solutions a cancelled iteration may still produce.
const interruptTickMask = 255

// config collects Eval's options. It lives in the Solutions it configures,
// so applying the options allocates nothing of its own.
type config struct {
	oi           Subsumer
	materialized bool
	trace        *Trace
	limit        int
	// ctx carries the cancellation options to the operator tree.
	ctx exec.Ctx
}

// Option configures one Eval call; Eval skips a nil one.
type Option func(*config)

// Subsumer is the class hierarchy Expand rewrites through: Subsumees returns
// a class's subsumees, the class itself included. A classified
// *store.OntologyIndex is one; a reasoner's materialized subClassOf closure
// (reason.Reasoner) is another, and stays current under schema writes.
type Subsumer interface {
	Subsumees(class string) []string
}

// Expand makes type-patterns ontology-aware: every pattern whose predicate is
// the literal store.TypePredicate and whose object is a literal class is
// rewritten into the union of the same pattern over each of the class's
// subsumees (the class itself included), so asking for "roadvehicle" also
// retrieves subjects annotated "car" or "pickup". Patterns whose object is a
// variable are not rewritten — there is no class to expand — and match type
// annotations literally.
func Expand(oi Subsumer) Option {
	return func(c *config) { c.oi = oi }
}

// Interrupt makes the evaluation cancellable: ctx and the deadline are
// polled periodically (every few hundred execution steps, so long scans
// cannot run away unobserved) and, once ctx is done or the clock has passed
// the deadline, the iteration stops — Next returns false and Err reports
// ErrInterrupted. It is how a server maps a request's context and timeout
// onto an in-flight join:
//
//	sols := query.Eval(src, bgp, query.Interrupt(r.Context(), time.Now().Add(timeout)))
//
// Both ride in the evaluation as values, so the option costs no closure of
// its own. A nil ctx or a zero deadline is not consulted; without the option
// the evaluation is uncancellable, the zero-cost default.
func Interrupt(ctx context.Context, deadline time.Time) Option {
	return func(c *config) { c.ctx.Context, c.ctx.Deadline = ctx, deadline }
}

// Limit tells the evaluation that its caller reads at most n solutions
// (n > 0), and whether there is one more. When the plan is a single leaf
// scan, each batch then asks its cursor for at most n+1 triples instead of a
// full exec.BatchSize: reads that cost per row (a closed-typing view's stored
// types check) stop near the limit. The solutions are the same; only the
// batches are smaller.
func Limit(n int) Option {
	return func(c *config) { c.limit = n }
}

// Materialized marks the source as a materialized store — one whose
// entailments a reasoner (repro/internal/reason) has already derived into the
// triples themselves — and therefore suppresses Expand rewriting: a type
// pattern is evaluated literally, because the subsumee annotations Expand
// would union over are already present as inferred type triples (stored, or
// answered by a view with closed typing, store.View.CloseTyping). It takes
// precedence over Expand, so callers can pass both unconditionally and let
// the presence of a reasoner decide (reason's equivalence tests prove the two
// modes return identical answers on the E5 corpus).
func Materialized() Option {
	return func(c *config) { c.materialized = true }
}

// Solutions streams the solutions of a BGP. The iteration protocol is
//
//	sols := query.Eval(s, bgp)
//	defer sols.Close()
//	for sols.Next() {
//		... sols.Bind() or sols.Value(...) ...
//	}
//	if err := sols.Err(); err != nil { ... }
//
// Close hands an unfinished evaluation's pooled buffers back; a loop that
// always runs until Next returns false may omit it.
//
// Under the hood the solutions are produced in columnar batches by the
// operator tree in repro/internal/query/exec; Next walks the current batch
// row by row, so the tuple-at-a-time surface costs one virtual call and one
// bounds check per solution. Batch-aware consumers (the HTTP server's ndjson
// streamer) can take whole batches through NextBatch instead.
//
// A Solutions is single-use and not safe for concurrent use. It holds no
// locks between Next calls; each batch refill reads the store under the
// store's own read-lock, so a concurrent writer interleaving with the
// iteration may be reflected in some batches and not others (the solution
// set is only guaranteed consistent against a quiescent store).
type Solutions struct {
	src  Source
	res  store.Resolver
	vars []string
	root exec.Op
	cfg  config
	cur  *exec.Batch
	row  int
	// onRow is true while the iterator is positioned on a valid solution
	// (between a true Next and the following call).
	onRow bool
	err   error
	done  bool
}

// Eval plans and evaluates a BGP over a Source — a *store.Store, or a
// *store.View when querying a materialized union — returning a Solutions
// iterator. Every pattern compiles to an exec.Pattern (TriplePattern.Compile)
// and planning is selectivity-ordered: each pattern's cardinality and
// per-component distinct widths with only its literals bound are read off
// the source's indexes (StatsID), and the join order minimizing the
// estimated total work under a cardinality-propagation model is chosen —
// exhaustively for BGPs of up to 6 patterns, greedily cheapest-next-probe
// beyond. The ordered patterns are then lowered onto a batched operator tree
// (exec.Lower): the most selective pattern becomes the leaf scan and every
// later pattern a batch-at-a-time index-nested-loop join whose probes are
// answered in probe order. Everything runs on dictionary ids; solutions
// resolve back to strings only when read.
//
// A BGP that mentions an empty-named variable or an empty literal is
// reported through Err (TriplePattern.Validate); a literal the store has
// never seen simply yields no solutions. An empty BGP yields exactly one
// empty solution.
func Eval(src Source, bgp BGP, opts ...Option) *Solutions {
	sol := &Solutions{src: src, res: src.NewResolver(), vars: bgpVars(bgp)}
	cfg := &sol.cfg
	for _, o := range opts {
		if o != nil {
			o(cfg)
		}
	}
	if cfg.materialized {
		cfg.oi = nil
	}
	// Variable-table lookups are linear: BGPs have a handful of variables,
	// and a map would cost more to build than every lookup it would serve.
	varIdx := func(name string) int {
		for i, v := range sol.vars {
			if v == name {
				return i
			}
		}
		return -1
	}
	unsat := false
	lookup := func(value string) store.SymbolID {
		id, ok := src.SymbolID(value)
		unsat = unsat || !ok
		return id
	}

	steps := make([]exec.Step, 0, len(bgp))
	for _, p := range bgp {
		if err := p.Validate(); err != nil {
			sol.err = fmt.Errorf("query: %w", err)
			sol.done = true
			return sol
		}
		var st exec.Step
		if cfg.oi != nil && !p.Predicate.IsVar && p.Predicate.Value == store.TypePredicate && !p.Object.IsVar {
			for _, sub := range cfg.oi.Subsumees(p.Object.Value) {
				if id, ok := src.SymbolID(sub); ok {
					st.Expand = append(st.Expand, id)
				}
			}
			unsat = unsat || len(st.Expand) == 0
			// The candidates replace the object literal, whose own id is
			// never consulted: compile the type literal in its place, so a
			// class name the store never saw — its subsumees may be there —
			// does not make the pattern unsatisfiable.
			p.Object = p.Predicate
		}
		st.Pat = p.Compile(varIdx, lookup)
		steps = append(steps, st)
	}
	if unsat {
		sol.done = true
		return sol
	}
	if len(steps) == 0 {
		// The empty BGP: no operator tree; Next synthesizes the one empty
		// solution.
		return sol
	}
	// The bound-slot scratch of planning and lowering lives on the stack
	// when the BGP is small — the overwhelmingly common case.
	var boundArr [planScratchVars]bool
	bound := boundArr[:min(len(sol.vars), planScratchVars)]
	if len(sol.vars) > planScratchVars {
		bound = make([]bool, len(sol.vars))
	}
	plan(src, steps, bound, cfg.trace)
	if tr := cfg.trace; tr != nil {
		for i := range tr.Levels {
			tr.Levels[i].Pattern = bgp[tr.Levels[i].Index].String()
			steps[i].Stat = &tr.Levels[i].Stat
		}
	}
	clear(bound)
	sol.root = exec.Lower(src, nil, steps, bound, len(sol.vars))
	if len(steps) == 1 && cfg.limit > 0 {
		exec.CapRows(sol.root, cfg.limit+1)
	}
	return sol
}

// bgpVars collects the BGP's variable names in order of first appearance
// with linear dedup — BGP.Vars without the map, for the few-variable BGPs
// every query is.
func bgpVars(b BGP) []string {
	var out []string
	for _, p := range b {
		for _, t := range p.terms() {
			if !t.IsVar {
				continue
			}
			seen := false
			for _, v := range out {
				if v == t.Value {
					seen = true
					break
				}
			}
			if !seen {
				out = append(out, t.Value)
			}
		}
	}
	return out
}

// stepCard reads the step's pattern's cardinality off the source's indexes;
// an expanded step sums over its candidate classes (each one object value).
func stepCard(src Source, st *exec.Step) exec.Card {
	ip := st.Pat.Template()
	if st.Expand == nil {
		return exec.CardOf(src.StatsID(ip))
	}
	c := exec.Card{Distinct: [3]float64{0, 1, 0}}
	for _, oid := range st.Expand {
		ip.O = oid
		is := src.StatsID(ip)
		c.Count += float64(is.Count)
		c.Distinct[0] += float64(is.DistinctS)
		c.Distinct[2]++
	}
	return c
}

// planCost simulates evaluating the steps in the given order, propagating
// the estimated number of partial solutions: each step costs one probe plus
// its estimated matches (Card.Fanout) per surviving partial solution. bound
// is scratch space (one flag per variable), reset here.
func planCost(steps []exec.Step, cards []exec.Card, order []int, bound []bool) float64 {
	clear(bound)
	solutions, work := 1.0, 0.0
	for _, idx := range order {
		m := cards[idx].Fanout(steps[idx].Pat, bound)
		work += solutions * (1 + m)
		solutions *= m
		steps[idx].Pat.Bind(bound)
	}
	return work
}

// maxExhaustive is the largest BGP whose join orders are searched
// exhaustively (6! = 720 candidate plans); larger BGPs fall back to a greedy
// cheapest-next-step ordering under the same cost model.
const maxExhaustive = 6

// planScratchVars bounds the stack-allocated planning scratch: BGPs with at
// most this many distinct variables (every realistic query) plan without
// heap allocation for their bound-flag vector.
const planScratchVars = 24

// plan orders the steps for the join by estimated total work under the
// count/distinct cost model: selectivity-ordered, cheapest plan first. The
// model naturally evaluates selective patterns before unselective ones and
// follows join-bound variables through their most selective probe direction;
// disconnected pattern groups end up cheapest-first, keeping the unavoidable
// cartesian product as small as possible. plan reorders steps in place into
// the order Eval lowers onto the operator tree, each step carrying its
// fan-out along it (Step.Est). bound is all-false scratch, one flag per
// variable. A non-nil tr records every candidate order costed and the chosen
// order's per-level estimates (see trace.go).
func plan(src Source, steps []exec.Step, bound []bool, tr *Trace) {
	n := len(steps)
	// The scratch below lives in fixed-size arrays when the BGP is small —
	// the overwhelmingly common case — so planning itself allocates nothing.
	var cardsArr [maxExhaustive]exec.Card
	var cards []exec.Card
	if n <= maxExhaustive {
		cards = cardsArr[:n]
	} else {
		cards = make([]exec.Card, n)
	}
	for i := range steps {
		cards[i] = stepCard(src, &steps[i])
	}
	var bestArr, permArr [maxExhaustive]int
	var best []int
	bestCost := math.Inf(1)
	if n <= maxExhaustive {
		best = bestArr[:0]
		perm := permArr[:n]
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				c := planCost(steps, cards, perm, bound)
				if tr != nil {
					tr.recordCandidate(perm, c)
				}
				if c < bestCost {
					bestCost = c
					best = append(best[:0], perm...)
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
	} else {
		used := make([]bool, n)
		solutions := 1.0
		for len(best) < n {
			bi, bc := -1, math.Inf(1)
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				if c := solutions * (1 + cards[i].Fanout(steps[i].Pat, bound)); c < bc {
					bi, bc = i, c
				}
			}
			used[bi] = true
			solutions *= cards[bi].Fanout(steps[bi].Pat, bound)
			best = append(best, bi)
			steps[bi].Pat.Bind(bound)
		}
		if tr != nil {
			bestCost = planCost(steps, cards, best, bound)
			tr.recordCandidate(best, bestCost)
		}
	}
	// Lay the steps out in the chosen order, each with its fan-out along it.
	var origArr [maxExhaustive]exec.Step
	orig := append(origArr[:0], steps...)
	clear(bound)
	for i, idx := range best {
		steps[i] = orig[idx]
		steps[i].Est = cards[idx].Fanout(steps[i].Pat, bound)
		steps[i].Pat.Bind(bound)
	}
	if tr != nil {
		tr.finishPlan(steps, best, bestCost, n <= maxExhaustive)
	}
}

// Next advances to the next solution, reporting whether one exists. After
// Next returns true, Bind and Value read the solution; after it returns
// false, Err reports whether the iteration ended in an error.
func (sol *Solutions) Next() bool {
	sol.onRow = false
	if sol.err != nil || sol.done {
		return false
	}
	if sol.root == nil {
		// The empty BGP: one empty solution, then exhaustion.
		sol.done = true
		sol.onRow = true
		return true
	}
	if sol.cur != nil && sol.row+1 < sol.cur.N {
		// The cancellation is polled here too (throttled), so a
		// cancellation observed mid-batch stops the iteration without
		// draining the batch's remaining rows.
		if sol.cfg.ctx.Cancelled() {
			sol.Close()
			sol.err = ErrInterrupted
			return false
		}
		sol.row++
		sol.onRow = true
		return true
	}
	for {
		b, err := sol.root.Next(&sol.cfg.ctx)
		if err != nil {
			sol.err = err
			sol.done = true
			return false
		}
		if b == nil {
			sol.done = true
			return false
		}
		if b.N == 0 {
			continue
		}
		sol.cur, sol.row, sol.onRow = b, 0, true
		return true
	}
}

// Close ends the iteration and returns the evaluation's pooled operators and
// buffers to the executor (exec.Close). Call it when abandoning an iterator
// before Next or NextBatch has reported the end — a limit reached, a
// consumer gone; until then the operator tree holds its buffers, and
// dropping the iterator instead leaves them to the garbage collector. Close
// is idempotent and a no-op once the iteration has ended by exhaustion or
// error (the operators released themselves at that point), so `defer
// sols.Close()` is always safe. After Close, Next and NextBatch report
// false, Err is unchanged, and batches handed out earlier are invalid.
func (sol *Solutions) Close() {
	if sol.done {
		return
	}
	sol.done = true
	sol.onRow = false
	sol.cur = nil
	if sol.root != nil {
		exec.Close(sol.root)
	}
}

// Err returns the error that ended the iteration, or nil. The only errors
// today are malformed BGPs (empty literals, empty variable names), unknown
// projection variables, and ErrInterrupted when an Interrupt option cancelled
// the evaluation; evaluation itself cannot fail.
func (sol *Solutions) Err() error {
	return sol.err
}

// Vars returns the BGP's variable names in order of first appearance.
func (sol *Solutions) Vars() []string {
	return append([]string(nil), sol.vars...)
}

// Resolver returns the resolver the iterator reads names through — the hook
// batch-aware consumers (NextBatch) use to resolve column ids themselves.
func (sol *Solutions) Resolver() store.Resolver {
	return sol.res
}

// Value returns the current solution's value for one variable without
// allocating. It is only meaningful after Next returned true; ok is false
// for unknown variables or outside a solution.
func (sol *Solutions) Value(name string) (string, bool) {
	if !sol.onRow || sol.cur == nil {
		return "", false
	}
	for i, v := range sol.vars {
		if v == name {
			return sol.res.Name(sol.cur.Cols[i][sol.row]), true
		}
	}
	return "", false
}

// Bind materializes the current solution as a fresh Binding. It is only
// meaningful after Next returned true. Use Value to read a single variable
// without the allocation.
func (sol *Solutions) Bind() Binding {
	b := make(Binding, len(sol.vars))
	if !sol.onRow || sol.cur == nil {
		return b
	}
	for i, name := range sol.vars {
		b[name] = sol.res.Name(sol.cur.Cols[i][sol.row])
	}
	return b
}

// SolutionBatch is one columnar window of solutions, handed out by
// Solutions.NextBatch: Len rows over the iterator's variables (Vars order),
// each cell a dictionary id resolvable through Solutions.Resolver. A batch
// is owned by the iterator and valid only until the next NextBatch call.
type SolutionBatch struct {
	cols [][]store.SymbolID
	n    int
}

// Len returns the number of rows in the batch.
func (sb SolutionBatch) Len() int { return sb.n }

// ID returns the dictionary id bound by row for the col'th variable of the
// iterator's Vars.
func (sb SolutionBatch) ID(col, row int) store.SymbolID { return sb.cols[col][row] }

// NextBatch advances the iteration one whole batch at a time — the bulk form
// of Next for consumers that stream many solutions (the HTTP server's ndjson
// writer): no per-solution virtual call, no Binding map, just columns of ids
// to resolve and format. ok is false when the iteration is exhausted or
// failed (check Err, exactly as after Next). A non-empty iteration never
// yields an empty batch; the empty BGP yields one single-row batch whose row
// binds nothing. Do not mix NextBatch and Next on one iterator — each
// consumes the stream the other would have seen.
func (sol *Solutions) NextBatch() (SolutionBatch, bool) {
	sol.onRow = false
	if sol.err != nil || sol.done {
		return SolutionBatch{}, false
	}
	if sol.root == nil {
		// The empty BGP: one batch holding the single empty solution.
		sol.done = true
		return SolutionBatch{n: 1}, true
	}
	for {
		b, err := sol.root.Next(&sol.cfg.ctx)
		if err != nil {
			sol.err = err
			sol.done = true
			return SolutionBatch{}, false
		}
		if b == nil {
			sol.done = true
			return SolutionBatch{}, false
		}
		if b.N == 0 {
			continue
		}
		return SolutionBatch{cols: b.Cols, n: b.N}, true
	}
}

// All drains the iterator and returns every remaining solution. The order of
// solutions is unspecified (it follows the plan, not the BGP).
func (sol *Solutions) All() ([]Binding, error) {
	var out []Binding
	for sol.Next() {
		out = append(out, sol.Bind())
	}
	return out, sol.Err()
}

// Instances answers the canonical class-retrieval query every experiment and
// audit asks: the sorted distinct subjects annotated (via
// store.TypePredicate) with the class — expanded through the ontology
// index's subsumees when oi is non-nil, literal annotations only when it is
// nil. It is the one-pattern BGP {?x type class} projected to ?x. Over a
// materialized view pass a nil oi (or use reason.Reasoner.Instances, the
// allocation-light direct form): the inferred type triples already carry the
// expansion.
func Instances(src Source, oi *store.OntologyIndex, class string) ([]string, error) {
	bgp := BGP{Pat(Var("x"), Lit(store.TypePredicate), Lit(class))}
	var opts []Option
	if oi != nil {
		opts = append(opts, Expand(oi))
	}
	return Eval(src, bgp, opts...).Project("x")
}

// Project drains the iterator and returns the distinct values the named
// variable takes across the remaining solutions, sorted — the shape every
// retrieval experiment consumes. Deduplication happens at the dictionary-id
// level; only the distinct ids are resolved to strings.
func (sol *Solutions) Project(name string) ([]string, error) {
	var out []string
	err := sol.ProjectFunc(name, func(v string) bool {
		out = append(out, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// ProjectFunc drains the iterator, streaming the distinct values the named
// variable takes across the remaining solutions to yield and stopping early
// when yield returns false. It is Project without the materialized slice and
// the sort: deduplication still happens at the dictionary-id level, the
// enumeration order is unspecified, and only the distinct ids are resolved
// to strings — the serving-shaped form of class retrieval the E5c experiment
// times against materialized reads.
func (sol *Solutions) ProjectFunc(name string, yield func(string) bool) error {
	idx := -1
	for i, v := range sol.vars {
		if v == name {
			idx = i
			break
		}
	}
	defer sol.Close() // yield may stop the drain early
	if idx < 0 {
		if sol.err == nil {
			sol.err = fmt.Errorf("query: projection variable ?%s does not occur in the pattern", name)
		}
		return sol.err
	}
	seen := make(map[store.SymbolID]struct{})
	for sol.Next() {
		id := sol.cur.Cols[idx][sol.row]
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		if !yield(sol.res.Name(id)) {
			break
		}
	}
	return sol.err
}
