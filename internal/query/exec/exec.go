// Package exec is the batched (vectorized) operator runtime under the query
// layer: bindings flow through a tree of pull-based operators as columnar
// batches of dictionary ids instead of one solution at a time. A BGP's
// patterns and a rule's atoms are the same compiled Pattern, and the query
// evaluator (repro/internal/query.Eval) and the materialization engine
// (repro/internal/reason) lower an ordered list of them onto operators with
// the same Lower — a planned BGP from a scan, a semi-naive term from a delta
// slice, a rederivation test from a seed — so every layer above the store
// shares one execution engine.
//
// The operator vocabulary is small:
//
//	NewScan      a leaf reading a pattern's matches off a Source, in batches,
//	             one resumable cursor at a time (ScanParts)
//	NewSliceScan a leaf over an in-memory triple slice — the semi-naive
//	             engine's "one atom ranges over the delta" stage
//	NewSeed      a one-row leaf of pre-bound variables — the rederivation
//	             test's "head variables already known" stage
//	NewJoin      an index-nested-loop join probing a window of child rows at
//	             a time: the rows become probe patterns, answered under one
//	             store read-lock per window (QueryIDBatch), and the join
//	             emits its rows in probe order
//
// A Batch is columnar — one []store.SymbolID per variable slot — and owned by
// the operator that returned it: it is valid until that operator's next Next
// call. Operators tolerate and may produce empty batches (N == 0); callers
// skip them.
//
// # Buffers and their owners
//
// Every buffer an evaluation touches belongs to one operator and is reused
// for the operator's whole stream, so steady-state evaluation allocates
// nothing per binding, per batch or per probe:
//
//   - Fixed-size buffers (batch columns, probe patterns, scan triple
//     buffers) are drawn from package pools when an operator is built and
//     handed back when it is released. So are the operator structs
//     themselves — scan, sliceScan, seed and join alike.
//   - A join's match buffers — the only buffers whose size depends on the
//     data — are fields of the pooled join struct itself and keep their
//     capacity from one query to the next. The window rule bounds them: a
//     join probes only as many child rows at a time as the planner's
//     per-probe fan-out estimate predicts will fill about one output batch
//     (BatchSize/estimate, at least one row, at most the whole child batch),
//     and keeps probing windows only until a full batch is buffered, so a
//     join holds under two batches of matches plus one probe's fan-out, not
//     a whole child batch's. A buffer a mis-estimated probe grew past
//     maxPooledCap entries is dropped instead of kept.
//   - An operator releases itself — buffers, then its own struct — exactly
//     once: when its stream ends (Next returned nil or an error), or when
//     Close is called on a tree whose stream has not ended. A consumer that
//     stops pulling early must call Close (query.Solutions.Close does, and
//     is safe to call at any time); one that drains to the end need not.
package exec

import (
	"errors"
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
)

// BatchSize is the target number of rows per batch: large enough to amortize
// per-batch costs (lock round trips, interrupt polls, virtual calls)
// over a thousand bindings, small enough that a batch's columns stay resident
// in cache.
const BatchSize = 1024

// ErrInterrupted is the error an operator tree reports when its Ctx's
// Interrupt hook cancelled the evaluation. repro/internal/query re-exports it
// as query.ErrInterrupted.
var ErrInterrupted = errors.New("query: evaluation interrupted")

// Batch is one columnar batch of variable bindings: Cols[slot][row] is the
// value row binds for the variable occupying slot. Only the slots the
// pipeline has bound so far hold meaningful values; a leaf fills its
// pattern's slots, each join adds its new ones. A Batch is owned by the
// operator that returned it and is valid until that operator's next Next.
type Batch struct {
	// Cols holds one column per variable slot.
	Cols [][]store.SymbolID
	// N is the number of valid rows.
	N int
	// colsArr backs Cols for the common few-slot case, and block is the one
	// pooled allocation the columns slice — one pool round trip per batch
	// instead of one per column.
	colsArr [blockSlots][]store.SymbolID
	block   *[blockSlots * BatchSize]store.SymbolID
}

// The pools below recycle the fixed-size buffers every evaluation needs —
// batch columns, probe batches, triple buffers — across operator trees.
// Evaluating a small query would otherwise pay tens of kilobytes of
// allocate-and-zero per Eval call, dwarfing the query itself; with the pools
// a finished evaluation gives every buffer back and steady-state serving
// allocates almost nothing. The pools hold pointers to fixed-size arrays,
// not slices: putting a slice into a sync.Pool boxes its header onto the
// heap, which would put an allocation right back on the per-batch path the
// pools exist to clear. Operators release their buffers when their stream
// ends (exhaustion or error) or when Close is called on them; a tree that is
// abandoned without Close leaves them to the garbage collector, and the next
// query pays to allocate them again.
// blockSlots is how many columns a pooled batch block carries; batches with
// more variable slots (rare, deep BGPs) fall back to per-column pooling.
const blockSlots = 8

var (
	blockPool = sync.Pool{New: func() any { return new([blockSlots * BatchSize]store.SymbolID) }}
	colPool   = sync.Pool{New: func() any { return new([BatchSize]store.SymbolID) }}
	probePool = sync.Pool{New: func() any { return new([BatchSize]store.IDPattern) }}
	tripPool  = sync.Pool{New: func() any { return new([BatchSize]store.IDTriple) }}
	batchPool = sync.Pool{New: func() any { return new(Batch) }}
	scanPool  = sync.Pool{New: func() any { return new(scan) }}
	joinPool  = sync.Pool{New: func() any { return new(join) }}
	slicePool = sync.Pool{New: func() any { return new(sliceScan) }}
	seedPool  = sync.Pool{New: func() any { return new(seed) }}
)

// maxPooledCap bounds, in entries, the match buffers a join keeps: one probe
// with a pathological fan-out would otherwise pin its peak footprint for the
// rest of the evaluation and, through the pooled join, for later ones.
const maxPooledCap = 1 << 16

// newBatch builds a batch with nslots pooled columns of BatchSize capacity.
// The Batch struct itself is pooled too: release hands it back, and the next
// evaluation's newBatch reuses it. That is safe because a released batch is
// only ever reachable through an operator whose stream has ended, and every
// consumer (the Solutions adapter, parent joins) stops touching batches the
// moment a stream ends.
func newBatch(nslots int) *Batch {
	b := batchPool.Get().(*Batch)
	*b = Batch{}
	if nslots <= blockSlots {
		b.block = blockPool.Get().(*[blockSlots * BatchSize]store.SymbolID)
		poolGets.Add(2) // batch + block
		for i := 0; i < nslots; i++ {
			b.colsArr[i] = b.block[i*BatchSize : (i+1)*BatchSize : (i+1)*BatchSize]
		}
		b.Cols = b.colsArr[:nslots]
		return b
	}
	poolGets.Add(1 + int64(nslots)) // batch + one column each
	b.Cols = make([][]store.SymbolID, nslots)
	for i := range b.Cols {
		b.Cols[i] = colPool.Get().(*[BatchSize]store.SymbolID)[:]
	}
	return b
}

// release returns the batch's columns to the pool. The caller must not touch
// the batch afterwards.
func (b *Batch) release() {
	if b.block != nil {
		blockPool.Put(b.block)
		poolPuts.Add(1)
	} else {
		for i := range b.Cols {
			if c := b.Cols[i]; c != nil && cap(c) >= BatchSize {
				colPool.Put((*[BatchSize]store.SymbolID)(c[:BatchSize]))
				poolPuts.Add(1)
			}
		}
	}
	*b = Batch{}
	batchPool.Put(b)
	poolPuts.Add(1)
}

// takeTrips pops a pooled triple buffer of length BatchSize.
func takeTrips() []store.IDTriple {
	poolGets.Add(1)
	return tripPool.Get().(*[BatchSize]store.IDTriple)[:]
}

// putTrips returns a triple buffer to the pool.
func putTrips(buf []store.IDTriple) {
	if cap(buf) >= BatchSize {
		tripPool.Put((*[BatchSize]store.IDTriple)(buf[:BatchSize]))
		poolPuts.Add(1)
	}
}

// Ctx carries the per-evaluation state every operator of one tree shares:
// the cancellation hook and its polling throttle. The zero value (no hook)
// is an uncancellable evaluation.
type Ctx struct {
	// Interrupt is polled periodically; once it returns true the evaluation
	// stops and the tree reports ErrInterrupted. Nil means uncancellable.
	Interrupt func() bool
	ticks     uint
}

// tickMask throttles the Interrupt hook to one poll per tickMask+1 steps.
const tickMask = 255

// Cancelled polls the Interrupt hook, throttled; exported so the Solutions
// adapter in package query can share the tree's poll budget between batches.
func (c *Ctx) Cancelled() bool {
	if c.Interrupt == nil {
		return false
	}
	if c.ticks++; c.ticks&tickMask != 0 {
		return false
	}
	return c.Interrupt()
}

// Source is the batched id-level read surface operators evaluate over,
// satisfied by both *store.Store and *store.View: resumable cursors for
// leaves and batch probes, answered in probe order, for joins.
type Source interface {
	// ScanParts opens the cursors over a pattern's matches, to be drained in
	// order (see store.ScanParts).
	ScanParts(p store.IDPattern) []*store.ScanPart
	// QueryIDBatch answers a batch of same-shape probes, each match tagged
	// with its probe's index (see store.QueryIDBatch).
	QueryIDBatch(ps []store.IDPattern, yield func(pi int, t store.IDTriple) bool)
}

// Term is one component of an operator pattern: a literal id, or a variable
// identified by its slot index in the tree's batches.
type Term struct {
	// Slot is the variable's column index, when IsVar.
	Slot int
	// ID is the literal's dictionary id, when !IsVar.
	ID store.SymbolID
	// IsVar distinguishes the two.
	IsVar bool
}

// Lit builds a literal term.
func Lit(id store.SymbolID) Term { return Term{ID: id} }

// Var builds a variable term for the given slot.
func Var(slot int) Term { return Term{Slot: slot, IsVar: true} }

// Pattern is one triple pattern over slots: subject, predicate, object. It
// is the one compiled form of a triple pattern — a BGP's patterns and a rule's
// atoms both compile to it (query.TriplePattern.Compile) — and what a planner
// or a rule engine asks of a pattern is asked here: its literal template, the
// slots it binds, its per-probe fan-out (Card.Fanout).
type Pattern [3]Term

// Template is the pattern's literal template as a store pattern: literals
// bound, variables wildcards. A repeated variable is not expressible there,
// so the template's count bounds the pattern's matches from above.
func (p Pattern) Template() store.IDPattern {
	return store.IDPattern{
		S: p[0].ID, BoundS: !p[0].IsVar,
		P: p[1].ID, BoundP: !p[1].IsVar,
		O: p[2].ID, BoundO: !p[2].IsVar,
	}
}

// Bind flags the pattern's variable slots in bound: once an operator for the
// pattern has run, every later one may probe with them.
func (p Pattern) Bind(bound []bool) {
	for _, t := range p {
		if t.IsVar {
			bound[t.Slot] = true
		}
	}
}

// Card is a pattern's cardinality with only its literals bound: the match
// count and, per position, how many distinct values the position takes among
// the matches. CardOf converts the store's statistics; a planner may sum
// several (an expanded pattern's candidates).
type Card struct {
	// Count is the number of matches.
	Count float64
	// Distinct is the distinct width of the subject, predicate and object.
	Distinct [3]float64
}

// CardOf is the store's statistics of a pattern as a Card.
func CardOf(st store.IDStats) Card {
	return Card{
		Count:    float64(st.Count),
		Distinct: [3]float64{float64(st.DistinctS), float64(st.DistinctP), float64(st.DistinctO)},
	}
}

// Fanout estimates how many matches one probe of p yields once the slots
// flagged in bound are bound: the count divided by the distinct width of
// every join-bound position. A position bound to one concrete value selects
// about count/distinct of the matches — a subject-bound probe into a
// predicate pattern is near a point lookup, while an object-bound probe into
// the same pattern keeps count/|objects|. It is the planner's cost unit,
// EXPLAIN's est_rows, and a join's probe window (Step.Est).
func (c Card) Fanout(p Pattern, bound []bool) float64 {
	m := c.Count
	for i, t := range p {
		if t.IsVar && bound[t.Slot] && c.Distinct[i] > 1 {
			m /= c.Distinct[i]
		}
	}
	return m
}

// Step is one pattern of an ordered conjunction, as Lower lowers it.
type Step struct {
	// Pat is the pattern.
	Pat Pattern
	// Expand, when non-nil, lists the candidate object ids the step unions
	// over (the query layer's ontology expansion).
	Expand []store.SymbolID
	// Est is the step's per-probe fan-out along the order (Card.Fanout); it
	// sizes a join's probe window, and 0 probes whole child batches.
	Est float64
	// Stat, when non-nil, receives the lowered operator's span statistics.
	Stat *OpStat
}

// Lower lowers an ordered conjunction onto an operator tree over src with
// nslots-column batches: the one place a planned BGP and a rule body become
// operators. With a nil leaf, steps[0] becomes a scan leaf; otherwise leaf
// is the tree's leaf, binding the slots flagged in bound. Every other step
// becomes a batch join probing src, windowed by its Est. bound is updated in
// place to cover every step's variables and only read while building, so it
// may live on the caller's stack.
func Lower(src Source, leaf Op, steps []Step, bound []bool, nslots int) Op {
	op := leaf
	for i := range steps {
		st := &steps[i]
		if op == nil {
			op = NewScan(src, st.Pat, st.Expand, nslots)
		} else {
			op = NewJoin(op, src, st.Pat, st.Expand, bound, nslots, int(st.Est))
		}
		if st.Stat != nil {
			op.(instrumentable).setStat(st.Stat)
		}
		st.Pat.Bind(bound)
	}
	return op
}

// Op is one operator of the tree. Next returns the operator's next batch —
// owned by the operator, valid until its next Next call — or (nil, nil) when
// the stream is exhausted, or an error (ErrInterrupted is the only one
// operators produce). A returned batch may have N == 0; callers skip those
// and pull again.
type Op interface {
	Next(ctx *Ctx) (*Batch, error)
}

// Close releases an operator tree's pooled buffers — and the pooled
// operators themselves — without draining it, for callers that stop early:
// a LIMIT met, a disconnected client, the rederivation test abandoning its
// pipeline at the first surviving row. It must only be called on a tree
// whose stream has NOT ended: once Next has returned nil or an error every
// operator has already released itself, its struct may be serving another
// query, and a second release would poison the pools. (query.Solutions.Close
// tracks that and is safe to call at any time.) Skipping Close is safe but
// not free: the abandoned buffers are garbage, and the pools refill by
// allocating.
func Close(op Op) {
	for op != nil {
		switch t := op.(type) {
		case *join:
			child := t.child
			t.close()
			op = child
		case *scan:
			t.close()
			op = nil
		case *sliceScan:
			t.close()
			op = nil
		case *seed:
			t.close()
			op = nil
		default:
			op = nil
		}
	}
}

// rowPlan is the compiled shape shared by every operator that turns matched
// triples into batch rows: which triple positions write which slots, and
// which positions must agree because they name the same (newly bound)
// variable twice.
type rowPlan struct {
	// outSlot[i] is the slot position i writes, or -1 when position i is a
	// literal, probe-bound, or a repeat of an earlier position.
	outSlot [3]int
	// eq lists (i, j) pairs of positions that must hold equal ids: a slot's
	// second and later occurrences within one pattern.
	eq [][2]int
}

// planRow compiles the row plan of a pattern given which slots the input
// already binds (nil for a leaf: nothing bound yet).
func planRow(pat Pattern, boundBefore []bool) rowPlan {
	rp := rowPlan{outSlot: [3]int{-1, -1, -1}}
	for i, t := range pat {
		if !t.IsVar {
			continue
		}
		if boundBefore != nil && boundBefore[t.Slot] {
			continue // probe-bound: the store already guaranteed equality
		}
		first := -1
		for j := 0; j < i; j++ {
			if pat[j].IsVar && pat[j].Slot == t.Slot && (boundBefore == nil || !boundBefore[pat[j].Slot]) {
				first = j
				break
			}
		}
		if first >= 0 {
			rp.eq = append(rp.eq, [2]int{first, i})
			continue
		}
		rp.outSlot[i] = t.Slot
	}
	return rp
}

// admit applies the plan's equality filters to one triple.
func (rp *rowPlan) admit(t store.IDTriple) bool {
	vals := [3]store.SymbolID{t.S, t.P, t.O}
	for _, pair := range rp.eq {
		if vals[pair[0]] != vals[pair[1]] {
			return false
		}
	}
	return true
}

// write writes one admitted triple's new bindings into row r of b.
func (rp *rowPlan) write(b *Batch, r int, t store.IDTriple) {
	vals := [3]store.SymbolID{t.S, t.P, t.O}
	for i, slot := range rp.outSlot {
		if slot >= 0 {
			b.Cols[slot][r] = vals[i]
		}
	}
}

// scan is the leaf operator over a Source: it drains the ScanParts cursors,
// one after the other, into a triple buffer and converts each fill into a
// columnar batch.
type scan struct {
	src    Source
	ip     store.IDPattern
	rp     rowPlan
	expand []store.SymbolID // candidate object ids; nil when not expanded

	parts   []*store.ScanPart
	candIdx int

	out      *Batch
	tbuf     []store.IDTriple
	done     bool
	released bool
	stat     *OpStat // span statistics, when instrumented (see stats.go)
}

// close releases the scan's pooled buffers — and the scan itself — once its
// stream has ended. A closed operator must not be used again; the Solutions
// adapter and the join's child handling both stop at the first nil/error.
func (s *scan) close() {
	if s.released {
		return
	}
	s.released = true
	s.out.release()
	for _, pt := range s.parts {
		pt.Release()
	}
	s.parts = nil
	if s.tbuf != nil {
		putTrips(s.tbuf)
		s.tbuf = nil
	}
	scanPool.Put(s)
	poolPuts.Add(1)
}

// NewScan builds a leaf scanning the pattern's matches off src. nslots sizes
// the batches (the total variable count of the tree); expand, when non-nil,
// replaces the object position with each candidate id in turn (the query
// layer's ontology expansion).
func NewScan(src Source, pat Pattern, expand []store.SymbolID, nslots int) Op {
	poolGets.Add(1)
	s := scanPool.Get().(*scan)
	*s = scan{
		src:    src,
		ip:     pat.Template(),
		rp:     planRow(pat, nil),
		expand: expand,
		out:    newBatch(nslots),
	}
	if expand != nil {
		s.ip.BoundO = true
	}
	return s
}

// Next pulls the scan's next batch, accounting the pull when instrumented.
// The stat pointer and clock are captured before the inner call: the scan
// struct is pooled and may be recycled the moment next ends its stream, so
// nothing touches s afterwards.
func (s *scan) Next(ctx *Ctx) (*Batch, error) {
	st := s.stat
	if st == nil {
		return s.next(ctx)
	}
	start := obs.Now()
	b, err := s.next(ctx)
	st.Nanos += obs.Now() - start
	if b != nil {
		st.Batches++
		st.Rows += int64(b.N)
	}
	return b, err
}

// next is the uninstrumented pull: it refills the triple buffer from the
// current cursor, moving to the next cursor (then the next expansion
// candidate) as each is exhausted.
func (s *scan) next(ctx *Ctx) (*Batch, error) {
	if s.done {
		return nil, nil
	}
	if s.tbuf == nil { // first pull
		s.openParts()
		s.tbuf = takeTrips()
	}
	for {
		if ctx.Cancelled() {
			s.done = true
			s.close()
			return nil, ErrInterrupted
		}
		if len(s.parts) == 0 {
			if s.nextCandidate() {
				continue
			}
			s.done = true
			s.close()
			return nil, nil
		}
		n, exhausted := s.parts[0].NextBatch(s.tbuf)
		if exhausted {
			s.parts[0].Release()
			s.parts = s.parts[1:]
		}
		if n == 0 {
			continue
		}
		s.convert(s.tbuf[:n])
		return s.out, nil
	}
}

// openParts opens the cursors for the current candidate (or the plain
// pattern when no expansion is in play).
func (s *scan) openParts() {
	ip := s.ip
	if s.expand != nil {
		ip.O = s.expand[s.candIdx]
	}
	s.parts = s.src.ScanParts(ip)
}

// nextCandidate advances expansion to the next candidate class, reporting
// false when all are exhausted.
func (s *scan) nextCandidate() bool {
	if s.expand == nil || s.candIdx+1 >= len(s.expand) {
		return false
	}
	s.candIdx++
	s.openParts()
	return true
}

// convert turns a triple buffer into the output batch.
func (s *scan) convert(ts []store.IDTriple) {
	r := 0
	for _, t := range ts {
		if !s.rp.admit(t) {
			continue
		}
		s.rp.write(s.out, r, t)
		r++
	}
	s.out.N = r
}

// sliceScan is the leaf over an in-memory triple slice: the delta stage of
// semi-naive evaluation. Literal components filter; variable components
// bind.
type sliceScan struct {
	ts       []store.IDTriple
	ip       store.IDPattern
	rp       rowPlan
	out      *Batch
	pos      int
	done     bool
	released bool
}

// NewSliceScan builds a leaf over ts matching pat, with nslots-column
// batches. The slice is not copied; it must stay unchanged while the tree
// runs.
func NewSliceScan(ts []store.IDTriple, pat Pattern, nslots int) Op {
	poolGets.Add(1)
	ss := slicePool.Get().(*sliceScan)
	*ss = sliceScan{ts: ts, ip: pat.Template(), rp: planRow(pat, nil), out: newBatch(nslots)}
	return ss
}

// close releases the slice scan's pooled columns — and the slice scan
// itself — once its stream has ended.
func (ss *sliceScan) close() {
	if ss.released {
		return
	}
	ss.released = true
	ss.out.release()
	ss.out, ss.ts = nil, nil
	slicePool.Put(ss)
	poolPuts.Add(1)
}

// Next pulls the slice scan's next batch.
func (ss *sliceScan) Next(ctx *Ctx) (*Batch, error) {
	if ss.done {
		return nil, nil
	}
	if ctx.Cancelled() {
		ss.done = true
		ss.close()
		return nil, ErrInterrupted
	}
	r := 0
	ip := &ss.ip
	for ss.pos < len(ss.ts) && r < BatchSize {
		t := ss.ts[ss.pos]
		ss.pos++
		if ip.BoundS && t.S != ip.S || ip.BoundP && t.P != ip.P || ip.BoundO && t.O != ip.O || !ss.rp.admit(t) {
			continue
		}
		ss.rp.write(ss.out, r, t)
		r++
	}
	if ss.pos >= len(ss.ts) && r == 0 {
		ss.done = true
		ss.close()
		return nil, nil
	}
	ss.out.N = r
	return ss.out, nil
}

// seed is the one-row leaf: a single binding of pre-set slots, used when an
// evaluation starts from known values (the rederivation test binds a rule's
// head variables before probing its body).
type seed struct {
	out      *Batch
	done     bool
	released bool
}

// NewSeed builds a leaf emitting exactly one row that binds slot i to
// vals[i] for every i with bound[i] set. nslots is the tree's slot count;
// vals and bound are indexed by slot and copied.
func NewSeed(vals []store.SymbolID, bound []bool, nslots int) Op {
	poolGets.Add(1)
	s := seedPool.Get().(*seed)
	*s = seed{out: newBatch(nslots)}
	for i := 0; i < nslots && i < len(vals); i++ {
		if i < len(bound) && bound[i] {
			s.out.Cols[i][0] = vals[i]
		}
	}
	s.out.N = 1
	return s
}

// close releases the seed's pooled columns — and the seed itself — once its
// stream has ended.
func (s *seed) close() {
	if s.released {
		return
	}
	s.released = true
	s.out.release()
	s.out = nil
	seedPool.Put(s)
	poolPuts.Add(1)
}

// Next emits the single seeded row, then exhaustion.
func (s *seed) Next(ctx *Ctx) (*Batch, error) {
	if s.done {
		s.close()
		return nil, nil
	}
	s.done = true
	return s.out, nil
}

// join is the batched index-nested-loop join: each child row instantiates
// the pattern into a probe (literals and already-bound slots become bound
// components), a window of probes is answered by one QueryIDBatch call (one
// read-lock per store), and every match emits one output row — the child's
// bound columns copied across plus the pattern's new slots. Rows leave in
// probe order: child-row order within one QueryIDBatch call, which on a View
// is the base's matches and then the overlay's, and one call per expansion
// candidate.
type join struct {
	child  Op
	src    Source
	pat    Pattern
	ipBase store.IDPattern
	rp     rowPlan
	expand []store.SymbolID

	// probeSlot[i] is the slot position i reads its probe value from, or -1
	// when the position is a literal (or expansion-bound object).
	probeSlot [3]int
	// copySlots are the slots bound before this join, copied child→out per
	// output row.
	copySlots []int
	// window is how many child rows one collect probes (see NewJoin).
	window int

	out    *Batch
	probes []store.IDPattern

	// The match buffers and the store callback belong to the join struct,
	// not to one evaluation: NewJoin carries them over when it recycles a
	// pooled join, so a warmed-up join neither regrows its buffers nor
	// allocates a closure per probe window. matchRows[k] is the child row
	// that produced matchTrips[k].
	matchRows  []int32
	matchTrips []store.IDTriple
	onMatch    func(pi int, t store.IDTriple) bool

	ctx         *Ctx   // the collect in flight's context, for onMatch
	childBatch  *Batch // the child batch being probed
	probePos    int    // next row of childBatch to probe
	probeBase   int    // childBatch row of the window in flight's probe 0
	emitPos     int    // next buffered match to emit
	done        bool
	interrupted bool
	released    bool
	stat        *OpStat // span statistics, when instrumented (see stats.go)
}

// compactMatches discards the emitted prefix of the match buffers, keeping
// what is still to be emitted at the front. Buffers it leaves empty are
// dropped rather than kept if one pathological probe grew them past
// maxPooledCap.
func (j *join) compactMatches() {
	n := copy(j.matchRows, j.matchRows[j.emitPos:])
	copy(j.matchTrips, j.matchTrips[j.emitPos:])
	j.matchRows, j.matchTrips, j.emitPos = j.matchRows[:n], j.matchTrips[:n], 0
	if n == 0 && cap(j.matchTrips) > maxPooledCap {
		j.matchRows, j.matchTrips = nil, nil
	}
}

// close releases the join's pooled buffers — and the join itself, match
// buffers riding along — once its stream has ended. The child is not
// touched: it has either released itself (its stream ended first) or is
// released by Close walking the tree.
func (j *join) close() {
	if j.released {
		return
	}
	j.released = true
	j.out.release()
	probePool.Put((*[BatchSize]store.IDPattern)(j.probes))
	j.probes = nil
	j.emitPos = len(j.matchRows)
	j.compactMatches()
	j.child, j.childBatch, j.src, j.ctx, j.expand, j.stat = nil, nil, nil, nil, nil, nil
	joinPool.Put(j)
	poolPuts.Add(2) // join + probe buffer
}

// NewJoin builds a join of child against src on pat. boundBefore flags, per
// slot, the variables the child's batches already bind: those become probe
// components, the rest output columns (it is read during construction only).
// nslots sizes the output batches; expand, when non-nil, probes each
// candidate object id in turn.
//
// probeEst is the planner's estimate of how many matches one probe yields
// (all expansion candidates together). It sets the probe window: the join
// probes BatchSize/probeEst child rows at a time — at least one, at most a
// whole child batch — so that one window's matches fill about one output
// batch, instead of buffering the fan-out of a whole child batch before
// emitting the first row (while less than a batch is buffered it probes the
// next window before emitting). Besides bounding the match buffers, that lets a consumer
// that stops early (a LIMIT) skip the probes it never needed. An estimate of
// 0 or 1 (or none: pass 0) probes whole batches.
func NewJoin(child Op, src Source, pat Pattern, expand []store.SymbolID, boundBefore []bool, nslots, probeEst int) Op {
	poolGets.Add(2) // join + probe buffer
	j := joinPool.Get().(*join)
	*j = join{
		child:      child,
		src:        src,
		pat:        pat,
		ipBase:     pat.Template(),
		rp:         planRow(pat, boundBefore),
		expand:     expand,
		out:        newBatch(nslots),
		probeSlot:  [3]int{-1, -1, -1},
		copySlots:  j.copySlots[:0],
		window:     BatchSize,
		probes:     probePool.Get().(*[BatchSize]store.IDPattern)[:],
		matchRows:  j.matchRows[:0],
		matchTrips: j.matchTrips[:0],
		onMatch:    j.onMatch,
	}
	if j.onMatch == nil {
		j.onMatch = j.match
	}
	if probeEst > 1 {
		j.window = max(1, BatchSize/probeEst)
	}
	if expand != nil {
		j.ipBase.BoundO = true
	}
	for i, t := range pat {
		if t.IsVar && boundBefore[t.Slot] {
			j.probeSlot[i] = t.Slot
			switch i {
			case 0:
				j.ipBase.BoundS = true
			case 1:
				j.ipBase.BoundP = true
			case 2:
				j.ipBase.BoundO = true
			}
		}
	}
	for slot, b := range boundBefore {
		if b {
			j.copySlots = append(j.copySlots, slot)
		}
	}
	return j
}

// Next pulls the join's next batch, accounting the pull when instrumented.
// Nanos is inclusive of child pulls; the stat pointer and clock are captured
// before the inner call because the join struct is pooled and may be
// recycled the moment next ends its stream.
func (j *join) Next(ctx *Ctx) (*Batch, error) {
	st := j.stat
	if st == nil {
		return j.next(ctx)
	}
	start := obs.Now()
	b, err := j.next(ctx)
	st.Nanos += obs.Now() - start
	if b != nil {
		st.Batches++
		st.Rows += int64(b.N)
	}
	return b, err
}

// next is the uninstrumented pull. It emits full batches: a short one goes
// out only when the current child batch has no more rows to probe (its
// matches cannot outlive it — emit reads the child's columns), so windowed
// probing does not fragment the stream the operators above consume.
func (j *join) next(ctx *Ctx) (*Batch, error) {
	if j.done {
		return nil, nil
	}
	for {
		buffered := len(j.matchRows) - j.emitPos
		probed := j.childBatch == nil || j.probePos >= j.childBatch.N
		if buffered >= BatchSize || buffered > 0 && (probed || j.interrupted) {
			return j.emit(), nil
		}
		if j.interrupted || ctx.Cancelled() {
			// The child's stream has not ended, so nothing below has
			// released itself: release the whole subtree.
			j.done = true
			Close(j)
			return nil, ErrInterrupted
		}
		if probed {
			cb, err := j.child.Next(ctx)
			if err != nil || cb == nil {
				j.done = true
				j.close()
				return nil, err
			}
			j.childBatch, j.probePos = cb, 0
			continue // cb may be empty
		}
		j.collect(ctx)
	}
}

// collect probes the child batch window by window until a full output batch
// of matches is buffered (or the child batch is used up), on top of whatever
// short remainder the last emit left, so an estimate that was too high costs
// extra probe calls, not a stream of near-empty batches. Matches are buffered rather than emitted from inside
// the store callback so no output work happens under the read-lock and so
// the output batch boundary is free to fall anywhere.
func (j *join) collect(ctx *Ctx) {
	cb := j.childBatch
	j.compactMatches()
	j.ctx = ctx
	for j.probePos < cb.N && len(j.matchRows) < BatchSize && !j.interrupted {
		lo := j.probePos
		hi := min(lo+j.window, cb.N)
		j.probePos, j.probeBase = hi, lo
		probes := j.probes[:hi-lo]
		for i := range probes {
			r := lo + i
			p := j.ipBase
			if s := j.probeSlot[0]; s >= 0 {
				p.S = cb.Cols[s][r]
			}
			if s := j.probeSlot[1]; s >= 0 {
				p.P = cb.Cols[s][r]
			}
			if s := j.probeSlot[2]; s >= 0 {
				p.O = cb.Cols[s][r]
			}
			probes[i] = p
		}
		passes := 1
		if j.expand != nil {
			passes = len(j.expand)
		}
		for c := 0; c < passes && !j.interrupted; c++ {
			if j.expand != nil {
				for i := range probes {
					probes[i].O = j.expand[c]
				}
			}
			if j.stat != nil {
				j.stat.Probes += int64(len(probes))
			}
			j.src.QueryIDBatch(probes, j.onMatch)
		}
	}
	j.ctx = nil
}

// match is the store callback of collect (held as j.onMatch): it buffers one
// admitted match against the child row that probed for it.
func (j *join) match(pi int, t store.IDTriple) bool {
	if j.ctx.Cancelled() {
		j.interrupted = true
		return false
	}
	if !j.rp.admit(t) {
		return true
	}
	j.matchRows = append(j.matchRows, int32(j.probeBase+pi))
	j.matchTrips = append(j.matchTrips, t)
	return true
}

// emit converts up to BatchSize buffered matches into the output batch.
func (j *join) emit() *Batch {
	n := min(len(j.matchRows)-j.emitPos, BatchSize)
	for k := 0; k < n; k++ {
		row := int(j.matchRows[j.emitPos+k])
		for _, slot := range j.copySlots {
			j.out.Cols[slot][k] = j.childBatch.Cols[slot][row]
		}
		j.rp.write(j.out, k, j.matchTrips[j.emitPos+k])
	}
	j.emitPos += n
	j.out.N = n
	return j.out
}
