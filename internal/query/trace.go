package query

import (
	"sort"

	"repro/internal/query/exec"
)

// This file is the EXPLAIN surface of the evaluator: a Trace attached via
// WithTrace records what the planner considered and chose, and wires a live
// OpStat into every operator of the lowered tree so draining the Solutions
// fills in per-operator batch/row/probe counts and wall time. The server's
// POST /query?explain=1 serializes the filled Trace as the response.

// maxTraceCandidates caps how many candidate orders an exhaustive plan
// keeps in the trace (the cheapest ones; a 6-pattern BGP costs 720 orders
// and nobody reads them all).
const maxTraceCandidates = 16

// Trace records one evaluation's planner decisions and execution
// statistics. Zero it, pass it through WithTrace, drain the Solutions, then
// read it; the operator Stats are written by the evaluation itself, so read
// them only after the iteration ends.
type Trace struct {
	// Exhaustive reports whether the planner searched all join orders
	// (BGPs of up to 6 patterns) or fell back to the greedy ordering.
	Exhaustive bool `json:"exhaustive"`
	// Considered is the number of candidate orders costed.
	Considered int `json:"considered"`
	// Candidates holds the cheapest candidate orders, ascending by cost
	// (capped; the chosen order is always Candidates[0] when present).
	Candidates []Candidate `json:"candidates,omitempty"`
	// Chosen is the chosen join order as indices into the request BGP.
	Chosen []int `json:"chosen"`
	// Cost is the chosen order's estimated total work under the planner's
	// cardinality-propagation model.
	Cost float64 `json:"cost"`
	// Levels describes the lowered operators in evaluation order: Levels[0]
	// is the leaf scan, every later entry a join probing the levels before
	// it.
	Levels []LevelTrace `json:"levels"`
}

// Candidate is one join order the planner costed.
type Candidate struct {
	// Order is the candidate join order as indices into the request BGP.
	Order []int `json:"order"`
	// Cost is its estimated total work.
	Cost float64 `json:"cost"`
}

// LevelTrace is one operator of the lowered tree: the pattern it evaluates,
// the planner's estimate for it, and the live execution statistics.
type LevelTrace struct {
	// Pattern is the pattern's textual form (the one ParseBGP reads).
	Pattern string `json:"pattern"`
	// Index is the pattern's position in the request BGP.
	Index int `json:"index"`
	// EstRows is the planner's estimated matches per probe of this level
	// along the chosen order (for the leaf, the estimated scan count).
	EstRows float64 `json:"est_rows"`
	// Expand is the number of ontology-expansion candidate classes this
	// level unions over (0 when not expanded).
	Expand int `json:"expand,omitempty"`
	// Stat holds the operator's execution statistics, filled while the
	// Solutions drains: batches and rows returned, index probes issued
	// (joins), and wall nanoseconds inclusive of child pulls.
	Stat exec.OpStat `json:"stat"`
}

// WithTrace attaches t to the evaluation: Eval fills the planner fields
// before returning, and the operator tree writes the per-level Stats while
// the Solutions drains. The Trace must outlive the iteration and must not
// be shared between concurrent evaluations.
func WithTrace(t *Trace) Option {
	return func(c *config) { c.trace = t }
}

// recordCandidate appends one costed order (copying the permutation) and
// counts it.
func (t *Trace) recordCandidate(order []int, cost float64) {
	t.Considered++
	t.Candidates = append(t.Candidates, Candidate{Order: append([]int(nil), order...), Cost: cost})
}

// finishPlan fills the chosen-order fields and the Levels skeleton once the
// planner has settled on an order — ordered holds the steps in that order,
// each carrying its estimate, and order their indices in the request BGP —
// and sorts and truncates the candidate list to the cheapest few.
func (t *Trace) finishPlan(ordered []exec.Step, order []int, cost float64, exhaustive bool) {
	t.Exhaustive = exhaustive
	t.Cost = cost
	t.Chosen = append([]int(nil), order...)
	t.Levels = make([]LevelTrace, len(ordered))
	for i := range ordered {
		t.Levels[i] = LevelTrace{Index: order[i], EstRows: ordered[i].Est, Expand: len(ordered[i].Expand)}
	}
	sort.SliceStable(t.Candidates, func(i, j int) bool { return t.Candidates[i].Cost < t.Candidates[j].Cost })
	if len(t.Candidates) > maxTraceCandidates {
		t.Candidates = t.Candidates[:maxTraceCandidates]
	}
}
