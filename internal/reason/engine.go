package reason

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/query/exec"
	"repro/internal/store"
)

// Stats counts what the engine has done since Materialize: fixpoint rounds,
// triples derived into the overlay, and the overdelete/rederive traffic of
// incremental maintenance. Derived counts insertions into the overlay over
// the reasoner's whole life — rederived triples included — so after deletions
// it can exceed InferredCount. Its JSON form opens the engine block of GET
// /stats (API.md); its Rounds and Derived are what the onto_reason_rounds_total
// and onto_reason_derived_total series read.
type Stats struct {
	// Rounds is the number of semi-naive rounds run (initial materialization
	// plus every incremental propagation).
	Rounds int `json:"rounds"`
	// Heads is the number of rule heads those rounds matched, duplicates and
	// already-known triples included — the work Derived was sifted from.
	Heads int `json:"-"`
	// Derived is the number of triples ever added to the inferred overlay.
	Derived int `json:"derived"`
	// Overdeleted is the number of inferred triples provisionally removed by
	// delete-and-rederive passes.
	Overdeleted int `json:"overdeleted"`
	// Rederived is the number of overdeleted triples that survived — they
	// had a derivation not involving the removed triples and were put back.
	Rederived int `json:"rederived"`
}

// Reasoner owns a materialization: an asserted base store, an overlay of
// inferred triples sharing the base's dictionary, and the compiled rule set
// that connects them. Create one with Materialize; afterwards route writes
// through the reasoner's Apply (or its Add/AddBatch/Remove shorthands) so the
// overlay is maintained incrementally, and read through View (or the
// Query/Instances conveniences).
//
// Writes are serialized by an internal mutex and maintain the invariant that
// the overlay holds exactly the rule-derivable triples not asserted in the
// base (asserted and inferred never overlap, so View reads never
// double-count). A write changes both stores in one write section
// (store.Store.Write) and advances the view's generation inside it, so every
// View read — a probe batch, a cursor refill, a class retrieval — sees an
// exact fixpoint: the one before a write or the one after it.
//
// Writing to the base store directly, bypassing the reasoner, silently
// invalidates the materialization: the overlay cannot know, and no generation
// or event records the change. There is no way back short of a new
// Materialize.
type Reasoner struct {
	mu      sync.Mutex
	base    *store.Store
	overlay *store.Store
	// ov is the overlay's write handle. The overlay carries no journal, so
	// the handle is never committed and lives as long as the reasoner.
	ov     store.Tx
	view   *store.View
	rules  []crule
	source []Rule
	// counts is the one source of Stats and the onto_reason_* counters.
	counts counts
	// round is per-rule scratch of the propagation loop, indexed like rules.
	round []ruleRound
	// scratch is the write path's working state, reused by every Apply.
	scratch scratch
	// boot describes the initial fixpoint; written once, before Materialize
	// returns. See MaterializeStats.
	boot    MaterializeStats
	onEvent func(Delta)
	// Metric handles, nil until RegisterMetrics; every observation is
	// nil-safe, so an unobserved reasoner pays one branch per round.
	mRoundSeconds *obs.Histogram
	mDeltaSize    *obs.Histogram
}

// counts are the reasoner's cumulative counts. Writers add to them under the
// write lock; Stats and the registered counters load them without it, so
// neither a /stats request nor a scrape waits on a write.
type counts struct {
	rounds, heads, derived, overdeleted, rederived atomic.Int64
}

// Generation returns the materialization generation, the view's
// (store.Store.Generation): it advances on every write that changed the
// base's or the overlay's contents — once per Delta, inside the write's
// section — and never otherwise. Two equal readings bracket an unchanged
// materialization, which is what the result cache, the /query trailer and the
// replica tier compare.
func (r *Reasoner) Generation() uint64 { return r.base.Generation() }

// RegisterMetrics registers the reasoner's instruments on reg: the round and
// derivation counters (Stats' Rounds and Derived, boot included), per-round
// latency and delta-size distributions, and gauges for the overlay size and
// generation. Call it once, before traffic; an unregistered reasoner skips
// the distributions.
func (r *Reasoner) RegisterMetrics(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg.CounterFunc("onto_reason_rounds_total", "Semi-naive materialization rounds run.", func() float64 {
		return float64(r.counts.rounds.Load())
	})
	reg.CounterFunc("onto_reason_derived_total", "Triples ever derived into the inferred overlay.", func() float64 {
		return float64(r.counts.derived.Load())
	})
	r.mRoundSeconds = reg.Histogram("onto_reason_round_seconds", "Wall time of one semi-naive round.", obs.LatencyBuckets())
	r.mDeltaSize = reg.Histogram("onto_reason_delta_size", "Seed delta sizes entering propagation.", obs.SizeBuckets())
	reg.GaugeFunc("onto_reason_overlay_triples", "Currently inferred triples (overlay size).", func() float64 {
		return float64(r.overlay.Len())
	})
	reg.GaugeFunc("onto_reason_generation", "Materialization generation (advances on every content-changing write).", func() float64 {
		return float64(r.Generation())
	})
	reg.GaugeFunc("onto_reason_materialize_seconds", "Wall time of the initial materialization (the boot fixpoint).", func() float64 {
		return r.MaterializeStats().Duration.Seconds()
	})
}

// MaterializeStats describes the initial fixpoint Materialize computed: the
// most expensive thing a serving process does, and done before any instrument
// can be registered, so the reasoner keeps the figures itself.
type MaterializeStats struct {
	// Duration is the fixpoint's wall time.
	Duration time.Duration
	// Rounds is the number of semi-naive rounds it took, the seed round
	// included.
	Rounds int
	// Heads is the number of rule heads matched over those rounds.
	Heads int
	// BulkLoaded is the number of inferred triples the seed round committed
	// in one store.LoadSorted call; the rest of Inferred was inserted one
	// triple at a time by the later rounds.
	BulkLoaded int
	// Inferred is the overlay's size when the fixpoint was reached.
	Inferred int
}

// String renders the figures as the line ontoserve logs at boot.
func (m MaterializeStats) String() string {
	return fmt.Sprintf("materialized %d inferred triples in %.3fs (%d rounds, %d heads, %d bulk-loaded)",
		m.Inferred, m.Duration.Seconds(), m.Rounds, m.Heads, m.BulkLoaded)
}

// MaterializeStats returns the figures of the initial materialization. It
// takes no lock, so metric scrapes never wait on a write.
func (r *Reasoner) MaterializeStats() MaterializeStats { return r.boot }

// scratch is the reasoner's write scratch: every buffer one Apply works in,
// owned by the reasoner and reused under its write lock, so that a steady
// stream of small writes allocates only what it hands to the stores. Apply's
// Delta lists are built in it, which is why they are valid only while the
// event hook runs. trim bounds what it keeps between writes.
type scratch struct {
	// ctx is the one evaluation context of every pipeline the engine drains;
	// a fresh one per pipeline would escape to the heap through Op.Next.
	ctx exec.Ctx
	// heads is the term loop's head buffer.
	heads []store.IDTriple
	// added and removed back the Delta's Added and Removed lists.
	added, removed []store.IDTriple
	// gone, marked and restored are retract's results, seen its set of the
	// retracted and overdeleted triples.
	gone, marked, restored []store.IDTriple
	seen                   map[store.IDTriple]bool
	// vals and bound are the per-slot bindings a pipeline is built from
	// (matchDelta, derives), as long as the widest rule's slot count.
	vals  []store.SymbolID
	bound []bool
}

// scratchCap bounds, in entries, the scratch buffers a reasoner keeps between
// writes, as exec's maxPooledCap bounds a pooled join's: a bulk load grows
// them far past what an ordinary write needs, and keeping that would pin its
// footprint for the reasoner's life.
const scratchCap = 1 << 16

// trim ends a write: it drops every buffer grown past limit entries and
// empties seen, or drops it too once it held more than limit entries — a map
// never shrinks, and clearing a bulk-sized one would walk all its buckets on
// every later retract. Apply trims to scratchCap; the boot fixpoint to 0,
// leaving no buffer behind.
func (s *scratch) trim(limit int) {
	for _, buf := range [...]*[]store.IDTriple{&s.heads, &s.added, &s.removed, &s.gone, &s.marked, &s.restored} {
		if cap(*buf) > limit {
			*buf = nil
		}
	}
	if len(s.seen) > limit {
		s.seen = nil
	} else {
		clear(s.seen)
	}
}

// Delta is the generation-keyed record of one content-changing write — one
// Apply — and the one event the reasoner emits, which the serving layer's
// cache invalidation consumes. (What a replica replays is the write's journal
// record: store.Journal, package durable.)
//
// Added and Removed are the id triples that entered and left the base store
// or the overlay — asserted and inferred changes alike, which is what makes
// them sufficient for invalidating caches of query results over the view or
// over either member alone. The lists are conservative supersets: maintenance
// may remove a triple and restore it in the same write (DRed
// overdelete/rederive), a write may assert a triple and retract it again, and
// a provenance flip (asserting a currently inferred triple) leaves the view
// unchanged while moving the triple from the overlay to the base — such
// triples appear in both lists; their union always covers every triple whose
// membership in either member may have changed. Writes that provably change
// nothing anywhere (re-adding an already asserted triple, removing an absent
// one) produce no event.
//
// Gen is the materialization generation the write produced; consecutive
// events carry consecutive generations.
//
// The lists are valid only while the event hook runs: they are built in the
// reasoner's write scratch, which the next write reuses.
type Delta struct {
	// Gen is the generation after this write; events form a dense chain.
	Gen uint64
	// Added and Removed cover every triple whose membership in the base or
	// the overlay may have changed.
	Added, Removed []store.IDTriple
}

// SetOnEvent installs the hook invoked with the Delta of every
// content-changing write. The hook runs synchronously on the writing
// goroutine while the reasoner's write lock is held: writes are serialized
// with their notifications, so a receiver that processes them in order sees a
// consistent history, but the hook must be fast and must not call a Reasoner
// method that takes the write lock — Apply and its shorthands, SetOnEvent,
// RegisterMetrics — because the lock is not reentrant. The
// slices are owned by the reasoner and only valid for the duration of the
// call — copy them to keep them: the next write reuses them. SetOnEvent
// itself takes the write lock and may be called at any time; a nil hook (the
// default) disables notification.
func (r *Reasoner) SetOnEvent(hook func(Delta)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvent = hook
}

// notify fires the installed hook. Its caller holds r.mu and guarantees the
// delta carries a change. The write's section advanced the generation before
// the hook runs, which the serving layer's cache relies on (a reader that
// still sees the old generation precedes the invalidation).
func (r *Reasoner) notify(d Delta) {
	if r.onEvent != nil {
		r.onEvent(d)
	}
}

// Materialize compiles the rule set, computes its fixpoint over the base
// store's current triples by semi-naive evaluation, and returns the
// maintaining Reasoner. Inferred triples go to a fresh overlay
// (store.NewOverlay) — the base is never written — and rules are evaluated
// entirely at the dictionary-id level. Rule sets are validated (see
// Rule.Validate); range restriction makes every fixpoint finite, so
// Materialize always terminates.
func Materialize(base *store.Store, rules []Rule) (*Reasoner, error) {
	if base == nil {
		return nil, fmt.Errorf("reason: Materialize needs a base store")
	}
	compiled, err := compileRules(base, rules)
	if err != nil {
		return nil, err
	}
	overlay := base.NewOverlay()
	// The reasoner maintains base∩overlay = ∅ (inferred triples are exactly
	// the derivable non-asserted ones), which is the contract a view rests on:
	// O(1) counts and dedup-free iteration.
	view, err := store.NewView(base, overlay)
	if err != nil {
		return nil, err
	}
	r := &Reasoner{
		base:    base,
		overlay: overlay,
		ov:      overlay.Begin(),
		view:    view,
		rules:   compiled,
		source:  append([]Rule(nil), rules...),
		round:   make([]ruleRound, len(compiled)),
	}
	nvars := 0
	for i := range compiled {
		nvars = max(nvars, compiled[i].nvars)
	}
	r.scratch.vals, r.scratch.bound = make([]store.SymbolID, nvars), make([]bool, nvars)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.materialize()
	return r, nil
}

// View returns the asserted∪inferred union the query layer evaluates over.
func (r *Reasoner) View() *store.View { return r.view }

// Base returns the asserted base store. Route writes through the Reasoner,
// not the base, or the materialization goes stale.
func (r *Reasoner) Base() *store.Store { return r.base }

// Overlay returns the inferred overlay store. Treat it as read-only.
func (r *Reasoner) Overlay() *store.Store { return r.overlay }

// Rules returns the rule set the reasoner was built with.
func (r *Reasoner) Rules() []Rule { return append([]Rule(nil), r.source...) }

// InferredCount returns the number of currently inferred triples (the
// overlay's size).
func (r *Reasoner) InferredCount() int { return r.overlay.Len() }

// Stats returns cumulative engine statistics. It takes no lock — it reads
// the counts the onto_reason_* counters read — so it never waits on a write;
// a call that overlaps one may see part of it.
func (r *Reasoner) Stats() Stats {
	c := &r.counts
	return Stats{
		Rounds:      int(c.rounds.Load()),
		Heads:       int(c.heads.Load()),
		Derived:     int(c.derived.Load()),
		Overdeleted: int(c.overdeleted.Load()),
		Rederived:   int(c.rederived.Load()),
	}
}

// Provenance reports whether the triple is asserted, inferred, or absent
// (ok false).
func (r *Reasoner) Provenance(t store.Triple) (store.Provenance, bool) {
	return r.view.Provenance(t)
}

// Query evaluates a BGP over the materialized view in Materialized mode: no
// Expand rewriting, entailed triples answered straight off the indexes.
func (r *Reasoner) Query(bgp query.BGP) *query.Solutions {
	return query.Eval(r.view, bgp, query.Materialized())
}

// InstancesFunc streams the distinct subjects annotated with the class in
// the materialized view, stopping early when yield returns false — the
// E5-style class retrieval as a raw serving read: one POS index set per view
// member, read under one lock (store.View.ForEachSubject), no join machinery,
// no ontology index, no dedup map and no per-subject allocation. It leans on
// the reasoner's invariant that asserted and inferred triples never overlap
// (each member's subject set is already distinct, and a subject cannot hold
// the same annotation in both), which is what lets it skip the view's
// per-triple duplicate check. The enumeration order is unspecified, and yield
// must not read the reasoner. This is the read path the materialization
// exists for; EXPERIMENTS.md's E5c table and
// BenchmarkMaterializedVsExpandedQuery measure it against the query-time
// Expand rewrite.
func (r *Reasoner) InstancesFunc(class string, yield func(string) bool) {
	r.view.ForEachSubject(store.TypePredicate, class, yield)
}

// Instances returns the sorted distinct subjects annotated with the class in
// the materialized view: InstancesFunc materialized and sorted, the form the
// equivalence tests compare against query.Instances.
func (r *Reasoner) Instances(class string) []string {
	var out []string
	r.InstancesFunc(class, func(s string) bool {
		out = append(out, s)
		return true
	})
	sort.Strings(out)
	return out
}

// Subsumees returns the class and every ?c with ?c subClassOf class in the
// materialized view, so a *Reasoner is the query.Subsumer that mode=expand
// rewrites through: the served schema, current under schema writes. Under
// the RDFS rules the subClassOf closure is materialized, so one index read
// per view member, under one lock, answers it. A cycle derives class
// subClassOf class, which is skipped; asserted and inferred never overlap, so
// nothing else repeats.
func (r *Reasoner) Subsumees(class string) []string {
	out := []string{class}
	r.view.ForEachSubject(SubClassOfPredicate, class, func(c string) bool {
		if c != class {
			out = append(out, c)
		}
		return true
	})
	return out
}

// Add asserts one triple, reporting whether it was newly asserted:
// Apply of one add, with the same error contract.
func (r *Reasoner) Add(t store.Triple) (bool, error) {
	n, _, err := r.Apply([]store.Triple{t}, nil, nil)
	return n == 1, err
}

// AddBatch asserts a batch, returning how many triples were newly asserted:
// Apply with no removes, with the same error contract.
func (r *Reasoner) AddBatch(ts []store.Triple) (int, error) {
	n, _, err := r.Apply(ts, nil, nil)
	return n, err
}

// Remove retracts one triple, reporting whether it was asserted: Apply of one
// remove. It has no error slot; a caller that must learn of a failed journal
// commit calls Apply.
func (r *Reasoner) Remove(t store.Triple) bool {
	_, n, _ := r.Apply(nil, []store.Triple{t}, nil)
	return n == 1
}

// Apply is the reasoner's one write: it asserts adds, then retracts removes,
// maintains the overlay incrementally for both, commits the change to the
// base's journal as one mutation and emits one Delta — or, when nothing
// changed, neither. It returns how many triples were newly asserted and how
// many asserted triples were retracted; a triple the same call adds and
// removes counts once on each side and ends absent. (DESIGN.md "The write
// path" is the contract in full.)
//
// The adds go through the base store's batch path, and the consequences of
// the genuinely new triples are propagated in one semi-naive run, so work is
// proportional to the new consequences, not to the store. Adding a triple
// that was so far inferred simply flips its provenance (the overlay copy is
// retired; the materialized view is unchanged, so nothing needs to
// propagate).
//
// The removes that are asserted once the adds are in — each once, however
// often the call names it — are retracted together by one delete-and-rederive
// pass, never a recomputation: first every inferred triple whose derivation
// may involve a retracted one is overdeleted (a semi-naive pass over deletion
// deltas against the old materialization), then each overdeleted triple that
// still has a derivation from the surviving facts is put back and its
// consequences re-propagated. Inferred triples cannot be removed directly —
// they would immediately be rederived; retract the asserted triples
// supporting them instead.
//
// Everything up to the commit — the adds, the propagation, the retraction —
// is one write section (store.Store.Write) on the view, which advances the
// generation when the write changed something: readers see the
// materialization before the write or after it, never one in between.
//
// Validation is all-or-nothing, exactly as store.AddBatch: a validation
// error means nothing was applied. An error wrapping store.ErrJournal means
// the opposite — the write is applied in memory but not durable — so the
// overlay is maintained and the Delta delivered exactly as on success, and
// the error is returned afterwards: the materialization and everything
// subscribed to it stay consistent with what readers of the base can see. The
// request clock c (nil: none) is charged propagate, retract, commit, publish.
func (r *Reasoner) Apply(adds, removes []store.Triple, c *obs.Clock) (added, removed int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.scratch.trim(scratchCap)
	base := r.base.Begin()
	s := &r.scratch
	var d Delta
	var asserted, gone []store.IDTriple
	d.Gen = r.base.Write(func() bool {
		if asserted, err = base.AddBatch(adds); err != nil {
			return false
		}
		// Added opens with the seed delta — the fresh triples that are not
		// provenance flips — and the propagation appends its conclusions to
		// it in place.
		d.Added, d.Removed = s.added[:0], s.removed[:0]
		for _, t := range asserted {
			if r.ov.RemoveID(t) {
				// Provenance flip: consequences already materialized, but the
				// triple moved between the members — report it in both lists.
				d.Removed = append(d.Removed, t)
			} else {
				d.Added = append(d.Added, t)
			}
		}
		d.Added = append(r.propagate(d.Added, d.Added), d.Removed...)
		c.Mark(obs.StagePropagate)

		if len(removes) > 0 {
			var marked, restored []store.IDTriple
			gone, marked, restored = r.retract(&base, removes)
			d.Removed = append(append(d.Removed, marked...), gone...)
			d.Added = r.propagate(append(d.Added, restored...), restored)
			c.Mark(obs.StageRetract)
		}
		return len(asserted)+len(gone) > 0
	})
	if err != nil {
		return 0, 0, err
	}
	s.added, s.removed = d.Added, d.Removed
	err = base.Commit()
	c.Mark(obs.StageCommit)
	if len(asserted)+len(gone) > 0 {
		r.notify(d)
	}
	c.Mark(obs.StagePublish)
	return len(asserted), len(gone), err
}

// retract is Apply's delete-and-rederive pass: it retracts the triples of
// removes that the base holds, through the write's handle, and returns them
// (gone, each once, in request order) with the inferred triples it
// overdeleted and the triples it put back, whose consequences the caller
// propagates. The three lists are write scratch. Callers hold r.mu and run
// inside the write's section.
func (r *Reasoner) retract(base *store.Tx, removes []store.Triple) (gone, marked, restored []store.IDTriple) {
	// seen de-duplicates the retracted triples and then marks the overdeleted
	// ones; asserted and inferred triples never coincide, so one set serves.
	s := &r.scratch
	if s.seen == nil {
		s.seen = make(map[store.IDTriple]bool, len(removes))
	}
	seen, held := s.seen, r.view.Held()
	gone, marked, restored = s.gone[:0], s.marked[:0], s.restored[:0]
	for _, t := range removes {
		idt, ok := r.encode(t)
		if asserted, _ := held.Contains(idt); ok && asserted && !seen[idt] {
			seen[idt] = true
			gone = append(gone, idt)
		}
	}

	// Phase 1 — overdelete. The retracted triples are still visible (the base
	// removal happens after), so body atoms evaluate against the old
	// materialization, as DRed requires. Everything inferred whose
	// derivation may use a deleted triple is marked.
	for delta := gone; len(delta) > 0; {
		heads := r.terms(delta, false)
		lo := len(marked)
		for _, h := range heads {
			if _, inferred := held.Contains(h); !seen[h] && inferred {
				seen[h] = true
				marked = append(marked, h)
			}
		}
		delta = marked[lo:]
	}

	base.RemoveIDs(gone)
	r.ov.RemoveIDs(marked)
	r.counts.overdeleted.Add(int64(len(marked)))

	// Phase 2 — rederive. The retracted triples themselves are candidates:
	// one the surviving facts still derive comes back as inferred. Each
	// candidate with a one-step derivation from the current view is
	// restored, and the caller propagates the restorations like insertions,
	// which re-derives any remaining overdeleted triple that is still
	// entailed.
	for _, candidates := range [2][]store.IDTriple{marked, gone} {
		for _, c := range candidates {
			if asserted, inferred := held.Contains(c); asserted || inferred {
				continue
			}
			for i := range r.rules {
				if r.derives(&r.rules[i], c) {
					if _, err := r.ov.AddID(c); err != nil {
						panic(err) // ids came from this dictionary
					}
					restored = append(restored, c)
					break
				}
			}
		}
	}
	r.counts.rederived.Add(int64(len(restored)))
	r.counts.derived.Add(int64(len(restored)))
	s.gone, s.marked, s.restored = gone, marked, restored
	return gone, marked, restored
}

// encode resolves a triple to ids without interning.
func (r *Reasoner) encode(t store.Triple) (store.IDTriple, bool) {
	s, okS := r.base.SymbolID(t.Subject)
	p, okP := r.base.SymbolID(t.Predicate)
	o, okO := r.base.SymbolID(t.Object)
	return store.IDTriple{S: s, P: p, O: o}, okS && okP && okO
}

// ruleRound is one rule's scratch for the current propagation round.
type ruleRound struct {
	// heads is the rule's segment of the round's head buffer, own the run of
	// the next delta it was the first to conclude.
	heads, own [2]int
	// fed is what a propagation rule's recursive atom is fed instead of the
	// whole delta: the delta without the triples the rule itself concluded
	// in the previous round (see markPropagation), as the two runs around
	// them. Unused for other rules.
	fed [2][]store.IDTriple
}

// propagate runs semi-naive rounds from the seed delta until no rule derives
// anything new and appends every triple newly derived into the overlay to
// out, for the event's Added list; see rounds. Nothing in an incoming delta
// was concluded by a rule of this propagation, so every recursive atom is fed
// all of it. Callers hold r.mu.
func (r *Reasoner) propagate(out, delta []store.IDTriple) []store.IDTriple {
	if len(delta) > 0 {
		r.mDeltaSize.Observe(float64(len(delta)))
	}
	for i := range r.round {
		r.round[i].fed = [2][]store.IDTriple{delta}
	}
	return r.rounds(out, delta)
}

// rounds is the maintenance loop of semi-naive evaluation: each round runs
// the term loop (terms) over the previous round's delta — every choice of
// atom, so no derivation using a new fact is missed, except that a
// propagation rule's recursive atom skips the rule's own previous
// conclusions, r.round[i].fed, which the caller sets for the first round —
// probing the remaining atoms against the full materialized view, which
// already includes earlier rounds' conclusions. Derived heads already
// asserted or inferred are skipped; the rest enter the overlay one at a time
// and form the next delta. Heads arrive from the pipelines' output batches,
// after each enumeration has finished reading, so inserting them is safe.
// Each round's delta is appended straight onto out, which is returned:
// the next delta is out's tail, and the triples derived are everything
// appended. delta may be a prefix of out (it is only read, and appends never
// write below len(out)). Callers hold r.mu and run inside a write section.
func (r *Reasoner) rounds(out, delta []store.IDTriple) []store.IDTriple {
	held := r.view.Held()
	for len(delta) > 0 {
		start := time.Now()
		heads := r.terms(delta, true)
		base := len(out)
		for i := range r.round {
			rr := &r.round[i]
			lo := len(out) - base
			for _, h := range heads[rr.heads[0]:rr.heads[1]] {
				if asserted, inferred := held.Contains(h); asserted || inferred {
					continue
				}
				if _, err := r.ov.AddID(h); err != nil {
					panic(err) // ids came from this dictionary
				}
				out = append(out, h)
			}
			rr.own = [2]int{lo, len(out) - base}
		}
		next := out[base:]
		for i := range r.round {
			rr := &r.round[i]
			rr.fed = [2][]store.IDTriple{next[:rr.own[0]], next[rr.own[1]:]}
		}
		r.countRound(start, len(heads), len(next))
		delta = next
	}
	return out
}

// terms is the one semi-naive term loop: it gathers in the scratch head
// buffer the heads of every rule with every body atom restricted to delta in
// turn, the other atoms probing the view (r.matchDelta), and returns them;
// each rule's heads are its segment r.round[i].heads. The result is valid
// until the next call. With skip, a propagation rule's recursive atom is fed
// its two runs r.round[i].fed instead of delta (markPropagation) — the
// maintenance rounds' setting; overdeletion runs it with nothing skipped.
// Callers hold r.mu.
func (r *Reasoner) terms(delta []store.IDTriple, skip bool) []store.IDTriple {
	heads := r.scratch.heads[:0]
	emit := func(h store.IDTriple) bool {
		heads = append(heads, h)
		return true
	}
	for i := range r.rules {
		rule, rr := &r.rules[i], &r.round[i]
		rr.heads[0] = len(heads)
		for di := range rule.body {
			if skip && di == rule.selfAtom {
				r.matchDelta(rule, di, rr.fed[0], emit)
				r.matchDelta(rule, di, rr.fed[1], emit)
			} else {
				r.matchDelta(rule, di, delta, emit)
			}
		}
		rr.heads[1] = len(heads)
	}
	r.scratch.heads = heads
	return heads
}

// countRound accounts one finished round, seed or maintenance: the round,
// the heads it matched, the triples it derived into the overlay and its wall
// time since start. Callers hold r.mu.
func (r *Reasoner) countRound(start time.Time, heads, derived int) {
	r.counts.rounds.Add(1)
	r.counts.heads.Add(int64(heads))
	r.counts.derived.Add(int64(derived))
	r.mRoundSeconds.Since(start)
}
