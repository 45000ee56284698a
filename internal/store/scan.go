package store

import "sync"

// This file is where the store enumerates a pattern, and it does so in two
// places only: the resumable cursor and the callback walk. A ScanPart is a
// cursor that fills caller-provided slices under one read-lock per refill,
// and ScanParts opens it (a View's: one per member) for a pattern;
// QueryIDBatch answers a whole batch of same-shape probes through a callback
// under one read-lock, and the one-pattern form in ids.go, QueryIDFunc, is a
// batch of one. These are the hooks the vectorized operator runtime in
// repro/internal/query/exec pulls triples through. The amortization is the
// point: a tuple-at-a-time join pays a lock round trip and a callback per
// probe, a batched one pays them per thousand triples.

// Indexes a ScanPart can walk, in the lead/mid/trail vocabulary of index.go:
// famSPO has subjects leading, famPOS predicates.
const (
	famSPO = iota
	famPOS
)

// tripleOf reassembles an IDTriple from an index's (lead, mid, trail)
// coordinates.
func tripleOf(fam uint8, lead, mid, trail uint32) IDTriple {
	if fam == famPOS {
		return IDTriple{S: trail, P: lead, O: mid}
	}
	return IDTriple{S: lead, P: mid, O: trail}
}

// ScanPart is a resumable cursor over the triples of one store matching a
// pattern. Obtain it with ScanParts and drain it by calling NextBatch until it
// reports done; a part must not be shared between goroutines.
//
// Like every store iterator, a cursor overlapping concurrent writers is
// well-formed but not snapshot-consistent: a triple inserted or removed while
// the scan is between refills may be seen or missed. Within one posting list
// that is all a write can do: the cursor resumes in a list by value
// (fillElems), so for (S P ?), (? P O) and the object-only fan-out a triple
// present throughout the scan is reported exactly once. One level up a lead's
// middle components ascend too, and a (lead ? ?) or (S ? O) cursor resumes
// among them by value the same way (fillMids): only a pair a write touched
// may be seen or missed. At the top an index's leads ascend by id, and the
// unbound scan and the object-only fan-out resume among them by value as
// well (fillLeads): a lead filed or pruned between refills moves no other
// lead across the cursor, so only the triples a write touched may be seen or
// missed. A write batch is atomic to each refill, not to the cursor: one
// written between two refills is seen wherever its triples fall after the
// cursor's place. Results are guaranteed exact only against quiescent
// members.
// NextBatch never blocks writers for longer than one refill, and a part holds
// nothing but its place.
type ScanPart struct {
	owner *Store

	fam        uint8
	lead       uint32
	midBound   bool
	mid        uint32
	trailBound bool
	trail      uint32
	allBound   bool
	// allLeads marks the two shapes with no lead to look up, which walk every
	// lead of fam instead: the unbound full scan (SPO) and, with midBound,
	// the object-only fan-out (POS, mid the object).
	allLeads bool

	// Cursor state, every place named by value. For allLeads scans: the
	// least lead id not yet finished. With the mid open: the least middle
	// component of the current lead not yet finished. Always: the position
	// within the current trailing run, so a refill stops exactly at the batch
	// boundary, and — once trailPos > 0 — the last trailing id emitted from
	// it, which fillElems checks the position against on resume.
	nextLead  uint32
	nextMid   uint32
	trailPos  int
	lastTrail uint32
	done      bool
}

// NextBatch fills out with the part's next triples, returning how many were
// written and whether the part is exhausted (done true means no further call
// will produce anything). A refill holds the store's read-lock once; the
// usual no-writes-from-the-calling-goroutine rule of QueryIDBatch does not
// apply between calls — the lock is released before NextBatch returns.
func (pt *ScanPart) NextBatch(out []IDTriple) (int, bool) {
	if len(out) == 0 || pt.done {
		return 0, pt.done
	}
	if pt.allLeads {
		return pt.fillLeads(out), pt.done
	}
	return pt.fillLead(out), pt.done
}

// fillLeads advances an allLeads part — the unbound full scan over SPO or
// the object-only fan-out over POS — from the first lead not below nextLead.
// The full scan walks each lead's pairs with fillMids; the fan-out streams the
// object's subject list under each predicate lead with fillElems. Both stop at
// the batch boundary. When the lead the cursor stood in is gone, the walk
// arrives at a later one and starts it from its first pair.
func (pt *ScanPart) fillLeads(out []IDTriple) int {
	ix, n := pt.index(), 0
	pt.owner.mu.RLock()
	pt.done = ix.ascend(pt.nextLead, func(lead uint32, e *leadEntry) bool {
		if n == len(out) {
			return false
		}
		if lead != pt.nextLead {
			pt.nextMid, pt.trailPos = 0, 0
		}
		pt.nextLead = lead
		listDone := true
		if !pt.midBound {
			n, listDone = pt.fillMids(lead, e, out, n)
		} else if mt := e.find(pt.mid); mt != nil {
			n, listDone = pt.fillElems(lead, pt.mid, mt.elems(), out, n)
		}
		if !listDone {
			return false // out is full mid-lead; the next refill resumes in it
		}
		pt.nextMid, pt.trailPos = 0, 0
		// Wraps only past the largest id, which is then the last lead: the
		// walk is finished before nextLead is read again.
		pt.nextLead = lead + 1
		return true
	})
	pt.owner.mu.RUnlock()
	return n
}

// index returns the owner's index the part walks.
func (pt *ScanPart) index() *index {
	if pt.fam == famPOS {
		return &pt.owner.pos
	}
	return &pt.owner.spo
}

// fillElems copies one trailing set's members into out as triples under
// (lead, mid) of the part's index, from trailPos on, and reports whether the
// set is exhausted. This is the leaf of the hot scan shape (two bound
// components, e.g. every {?x type class}): it fills straight from the element
// slice with the index dispatch hoisted out of the loop, and stops at the
// batch boundary rather than buffering the rest, which keeps both the lock
// hold and the cursor's memory bounded however large the posting list is.
// A resumed cursor is first checked against the run, which may have mutated
// since the last refill: a write below the cursor slides the members above it
// by one, so when the member before trailPos is no longer the last one
// emitted, the cursor re-seeks to the first member above lastTrail. The run
// ascends, so the emissions from one list do: none is repeated or stepped over.
func (pt *ScanPart) fillElems(lead, mid uint32, elems []uint32, out []IDTriple, n int) (int, bool) {
	if pt.trailPos > 0 && (pt.trailPos > len(elems) || elems[pt.trailPos-1] != pt.lastTrail) {
		var found bool
		if pt.trailPos, found = searchRun(elems, pt.lastTrail); found {
			pt.trailPos++
		}
	}
	if pt.fam == famPOS {
		for pt.trailPos < len(elems) && n < len(out) {
			out[n] = IDTriple{S: elems[pt.trailPos], P: lead, O: mid}
			n++
			pt.trailPos++
		}
	} else {
		for pt.trailPos < len(elems) && n < len(out) {
			out[n] = IDTriple{S: lead, P: mid, O: elems[pt.trailPos]}
			n++
			pt.trailPos++
		}
	}
	if pt.trailPos > 0 {
		pt.lastTrail = elems[pt.trailPos-1]
	}
	return n, pt.trailPos >= len(elems)
}

// fillMids walks one lead's pairs with the mid open and reports whether the
// lead is finished. It names its place by value: the pairs ascend by middle
// component, so a refill resumes at the first one not below nextMid, and when
// that is still the list the cursor stood in, fillElems re-seeks its position
// above lastTrail. A pair emptied, dropped or filed anew moves no other pair
// across the cursor, so only a pair a write touched may be seen or missed.
// With the trail bound a pair contributes at most its one membership.
func (pt *ScanPart) fillMids(lead uint32, e *leadEntry, out []IDTriple, n int) (int, bool) {
	i, found := e.search(pt.nextMid)
	if !found {
		pt.trailPos = 0 // the list the cursor stood in is gone
	}
	for ; i < len(e.entries) && n < len(out); i++ {
		mt := &e.entries[i]
		if pt.trailBound {
			if mt.contains(pt.trail) {
				out[n] = tripleOf(pt.fam, lead, mt.mid, pt.trail)
				n++
			}
		} else {
			var finished bool
			if n, finished = pt.fillElems(lead, mt.mid, mt.elems(), out, n); !finished {
				pt.nextMid = mt.mid
				return n, false
			}
			pt.trailPos = 0
		}
		// Wraps only past the largest id, whose pair is the last: the lead is
		// then finished before nextMid is read again.
		pt.nextMid = mt.mid + 1
	}
	return n, i >= len(e.entries)
}

// fillLead advances a single-lead part: the lead entry is re-looked-up under
// a fresh read-lock each refill, since it may have mutated in between. A
// midBound part names its one list by value, so only the triple a write
// touched may be seen or missed; with the mid open the walk is fillMids.
func (pt *ScanPart) fillLead(out []IDTriple) int {
	pt.owner.mu.RLock()
	defer pt.owner.mu.RUnlock()
	e, n := pt.index().find(pt.lead), 0
	switch {
	case e == nil:
		pt.done = true
	case pt.allBound:
		if set := e.find(pt.mid); set != nil && set.contains(pt.trail) {
			out[0] = tripleOf(pt.fam, pt.lead, pt.mid, pt.trail)
			n = 1
		}
		pt.done = true
	case pt.midBound:
		if mt := e.find(pt.mid); mt != nil {
			n, pt.done = pt.fillElems(pt.lead, pt.mid, mt.elems(), out, n)
		} else {
			pt.done = true
		}
	default:
		n, pt.done = pt.fillMids(pt.lead, e, out, n)
	}
	return n
}

// partPool recycles ScanPart cursors so steady-state scans allocate nothing
// per part.
var partPool = sync.Pool{New: func() any { return new(ScanPart) }}

// takePart draws a zeroed cursor.
func takePart() *ScanPart {
	pt := partPool.Get().(*ScanPart)
	*pt = ScanPart{}
	return pt
}

// Release returns an exhausted or abandoned cursor to the pool; the caller
// must not touch it afterwards. Releasing is optional — an unreleased part
// is garbage-collected like anything else — but the batched evaluator
// releases every part it drains so scan-heavy serving reuses the cursors
// instead of allocating one per query.
func (pt *ScanPart) Release() {
	partPool.Put(pt)
}

// ScanParts opens the resumable cursor over the triples matching the id
// pattern — the batched twin of the callback walk (QueryIDBatch), choosing
// the permutation index the same way. A store answers with exactly one part;
// the slice form is what lets a View answer with one per member. Drain each
// part with NextBatch, in order; each refill costs one lock round trip
// however many triples it moves.
func (s *Store) ScanParts(p IDPattern) []*ScanPart {
	return []*ScanPart{s.scanPart(p)}
}

// scanPart builds the store's cursor for the pattern.
func (s *Store) scanPart(p IDPattern) *ScanPart {
	pt := takePart()
	pt.owner = s
	switch {
	case p.BoundS && p.BoundP && p.BoundO:
		pt.fam, pt.lead, pt.mid, pt.trail, pt.allBound = famSPO, p.S, p.P, p.O, true
	case p.BoundS && p.BoundP:
		pt.fam, pt.lead, pt.mid, pt.midBound = famSPO, p.S, p.P, true
	case p.BoundP && p.BoundO:
		pt.fam, pt.lead, pt.mid, pt.midBound = famPOS, p.P, p.O, true
	case p.BoundS && p.BoundO:
		pt.fam, pt.lead, pt.trail, pt.trailBound = famSPO, p.S, p.O, true
	case p.BoundS:
		pt.fam, pt.lead = famSPO, p.S
	case p.BoundP:
		pt.fam, pt.lead = famPOS, p.P
	case p.BoundO:
		pt.fam, pt.mid, pt.midBound, pt.allLeads = famPOS, p.O, true, true
	default:
		pt.allLeads = true
	}
	return pt
}

// ScanParts is the View form of Store.ScanParts: the base's cursor followed
// by the overlay's. The members are disjoint (see NewView), so the two
// cursors together report each union triple exactly once.
func (v *View) ScanParts(p IDPattern) []*ScanPart {
	return []*ScanPart{v.base.scanPart(p), v.overlay.scanPart(p)}
}

// QueryIDBatch streams the matches of a batch of probe patterns to yield,
// each tagged with the index of the pattern it answers, stopping early when
// yield returns false. It is the store's one callback enumeration —
// QueryIDFunc is a batch of one — and it owns the locking: the whole batch is
// answered under one read-lock. All patterns of one call must share the same
// bound shape (the same Bound flags — the form a batched join produces, where
// every probe of a batch binds the same components). Matches arrive in probe
// order: every match of ps[i] before any of ps[i+1]. yield runs under the
// read-lock and must not write to the store, nor read it again: a second
// read-lock waits behind a writer that waits for the first.
func (s *Store) QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	if len(ps) == 0 {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The two most common join shapes — (S P ?) answering objects and
	// (? P O) answering subjects, the forms a join's bound lead plus one
	// more bound component produces — run fully specialized loops: lead
	// lookup, entry find and element walk are all inlined with no per-probe
	// dispatch, because this is the innermost loop of every batched join.
	// Everything else goes through the general per-probe dispatch.
	switch shape := ps[0]; {
	case shape.BoundS && shape.BoundP && !shape.BoundO:
		s.batchProbeSP(ps, yield)
	case shape.BoundP && shape.BoundO && !shape.BoundS:
		s.batchProbePO(ps, yield)
	default:
		for pi := range ps {
			if !s.probeLocked(ps[pi], pi, yield) {
				return
			}
		}
	}
}

// batchProbeSP answers a batch of (S P ?) probes: SPO, objects out. Callers
// hold mu.
func (s *Store) batchProbeSP(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	for pi, p := range ps {
		e := s.spo.find(p.S)
		if e == nil {
			continue
		}
		mt := e.find(p.P)
		if mt == nil {
			continue
		}
		for _, v := range mt.elems() {
			if !yield(pi, IDTriple{S: p.S, P: p.P, O: v}) {
				return
			}
		}
	}
}

// batchProbePO answers a batch of (? P O) probes: POS, subjects out. Callers
// hold mu.
func (s *Store) batchProbePO(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	for pi, p := range ps {
		e := s.pos.find(p.P)
		if e == nil {
			continue
		}
		mt := e.find(p.O)
		if mt == nil {
			continue
		}
		for _, v := range mt.elems() {
			if !yield(pi, IDTriple{S: v, P: p.P, O: p.O}) {
				return
			}
		}
	}
}

// probeLocked answers one probe, reporting false when yield stopped the
// enumeration. Callers hold mu. The two lead-less shapes — object-only,
// fanning out over POS, and unbound, scanning SPO — walk their index's leads
// in ascending id order, so the enumeration is the same on every call. This
// is the only callback walk of the eight bound shapes (the cursor of ScanPart
// is the resumable one). Trailing sets are walked with explicit loops over the
// element slices rather than forEach closures — this is the innermost loop of
// every batched join, and a closure per probe is exactly the per-binding cost
// batching exists to remove.
func (s *Store) probeLocked(p IDPattern, pi int, yield func(int, IDTriple) bool) bool {
	switch {
	case p.BoundS:
		e := s.spo.find(p.S)
		if e == nil {
			return true
		}
		if p.BoundP {
			mt := e.find(p.P)
			if mt == nil {
				return true
			}
			if p.BoundO {
				if mt.contains(p.O) {
					return yield(pi, IDTriple{S: p.S, P: p.P, O: p.O})
				}
				return true
			}
			return emitSet(mt, pi, yield, famSPO, p.S)
		}
		for i := range e.entries {
			mt := &e.entries[i]
			if p.BoundO {
				if mt.contains(p.O) && !yield(pi, IDTriple{S: p.S, P: mt.mid, O: p.O}) {
					return false
				}
				continue
			}
			if !emitSet(mt, pi, yield, famSPO, p.S) {
				return false
			}
		}
		return true
	case p.BoundP:
		e := s.pos.find(p.P)
		if e == nil {
			return true
		}
		if p.BoundO {
			mt := e.find(p.O)
			if mt == nil {
				return true
			}
			return emitSet(mt, pi, yield, famPOS, p.P)
		}
		for i := range e.entries {
			if !emitSet(&e.entries[i], pi, yield, famPOS, p.P) {
				return false
			}
		}
		return true
	case p.BoundO:
		return s.pos.ascend(0, func(pid uint32, e *leadEntry) bool {
			mt := e.find(p.O)
			return mt == nil || emitSet(mt, pi, yield, famPOS, pid)
		})
	default:
		return s.spo.ascend(0, func(sid uint32, e *leadEntry) bool {
			for i := range e.entries {
				if !emitSet(&e.entries[i], pi, yield, famSPO, sid) {
					return false
				}
			}
			return true
		})
	}
}

// emitSet yields one triple per member of a pair's trailing set, reassembled
// from the index's (lead, mid, trail) coordinates, as a direct loop over the
// set's elements (no per-set closure).
func emitSet(mt *midTrail, pi int, yield func(int, IDTriple) bool, fam uint8, lead uint32) bool {
	for _, v := range mt.elems() {
		if !yield(pi, tripleOf(fam, lead, mt.mid, v)) {
			return false
		}
	}
	return true
}

// QueryIDBatch is the View form of Store.QueryIDBatch: each probe answers
// from the base, then from the overlay. The same same-shape and
// no-writes-from-yield rules apply.
func (v *View) QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	stopped := false
	v.base.QueryIDBatch(ps, func(pi int, t IDTriple) bool {
		stopped = !yield(pi, t)
		return !stopped
	})
	if !stopped {
		v.overlay.QueryIDBatch(ps, yield)
	}
}
