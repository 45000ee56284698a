package store

import "sync"

// This file is where the store enumerates a pattern, and it does so in two
// places only: the resumable cursor and the callback walk. A ScanPart is a
// cursor that fills caller-provided slices under one read-lock per refill,
// and Scan opens it for a pattern (a View's walks the base, then the overlay,
// under the lock they share); QueryIDBatch answers a whole batch of
// same-shape probes through a callback under one read-lock, and the
// one-pattern form in ids.go, QueryIDFunc, is a batch of one. These are the
// hooks the vectorized operator runtime in repro/internal/query/exec pulls
// triples through. The amortization is the point: a tuple-at-a-time join pays
// a lock round trip and a callback per probe, a batched one pays them per
// thousand triples.

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

// ScanPart is a resumable cursor over the triples of a store or a View
// matching a pattern. Obtain it with Scan and drain it by calling NextBatch
// until it reports done; a part must not be shared between goroutines. A
// View's cursor walks the base, then the overlay; one refill may finish the
// one and start the other, under the one lock they share, so each refill sees
// one state of the view.
//
// A cursor overlapping concurrent writers is well-formed but not
// snapshot-consistent across refills: a triple inserted or removed while the
// scan is between refills may be seen or missed. Within one posting list
// that is all a write can do: the cursor resumes in a list by value
// (fillSet), so for (S P ?), (? P O) and the object-only fan-out a triple
// present throughout the scan is reported exactly once. One level up a lead's
// middle components ascend too, and a (lead ? ?) or (S ? O) cursor resumes
// among them by value the same way (fillMids): only a pair a write touched
// may be seen or missed. At the top an index's leads ascend by id, and the
// unbound scan and the object-only fan-out resume among them by value as
// well (fillLeads): a lead filed or pruned between refills moves no other
// lead across the cursor, so only the triples a write touched may be seen or
// missed. A write section is atomic to each refill, not to the cursor: one
// run between two refills is seen wherever its triples fall after the
// cursor's place. (Across the two members of a View, a triple moved from the
// base to the overlay between refills may be seen twice or, moved the other
// way, missed; so may a closed view's triples, which a reopening write moves
// into the overlay, View.Open.) A caller that needs one state across refills brackets the
// drain with two equal Store.Generation readings.
// NextBatch never blocks writers for longer than one refill, and a part holds
// nothing but its place.
type ScanPart struct {
	owner *Store
	// then is the member walked after owner: a View's overlay, nil otherwise.
	then *Store
	// held marks a cursor opened through Held, whose refills run inside a
	// write section and take no lock.
	held bool

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
	// A closed view's cursor (closed.go) walks the closures after the
	// members: the type walk tw when typing, which answers type triples, so
	// that the members' walk passes them over (skipTypes) — or takes their
	// place, for a literal type predicate — and then the property walk pw
	// when props. phase is the walk the cursor is in.
	skipTypes, typing, props bool
	phase                    uint8
	tw                       typeWalk
	pw                       propWalk

	place
	done bool
}

// place is a cursor's position in its current member, every part named by
// value. For allLeads scans: the least lead id not yet finished. With the mid
// open: the least middle component of the current lead not yet finished.
// Always: the chunk of the current trailing set and the position within it,
// so a refill stops exactly at the batch boundary, and — once trailPos > 0 —
// the last trailing id emitted from the set, which fillSet checks the
// position against on resume.
type place struct {
	nextLead  uint32
	nextMid   uint32
	chunk     int
	trailPos  int
	lastTrail uint32
}

// NextBatch fills out with the part's next triples, returning how many were
// written and whether the part is exhausted (done true means no further call
// will produce anything). A refill holds the read-lock once, for both members
// of a View; the usual no-writes-from-the-calling-goroutine rule of
// QueryIDBatch does not apply between calls — the lock is released before
// NextBatch returns.
func (pt *ScanPart) NextBatch(out []IDTriple) (int, bool) {
	if len(out) == 0 || pt.done {
		return 0, pt.done
	}
	if !pt.held {
		pt.owner.mu.RLock()
		defer pt.owner.mu.RUnlock()
	}
	n := 0
	if pt.phase == phaseMembers {
		n = pt.fill(out)
		if pt.done && pt.then != nil {
			pt.owner, pt.then, pt.place, pt.done = pt.then, nil, place{}, false
			if n < len(out) {
				n += pt.fill(out[n:])
			}
		}
		if !pt.done {
			return n, false
		}
		pt.phase = phaseTypes
	}
	if pt.phase == phaseTypes {
		if pt.typing {
			var done bool
			if n, done = pt.fillTypes(out, n); !done {
				pt.done = false
				return n, false
			}
		}
		pt.phase = phaseProps
	}
	pt.done = !pt.props
	if pt.props {
		n, pt.done = pt.fillProps(out, n)
	}
	return n, pt.done
}

// The phases of a closed view's cursor: the members' walk, the type walk,
// the property walk.
const (
	phaseMembers = iota
	phaseTypes
	phaseProps
)

// fillTypes runs the type walk of a view with closed typing on from its
// place, filling out from n, and reports whether the walk is finished.
// Callers hold the lock.
func (pt *ScanPart) fillTypes(out []IDTriple, n int) (int, bool) {
	if n == len(out) {
		return n, false
	}
	pt.tw.subs.ok = false // looked up under another refill's lock
	done := pt.tw.walk(func(s, o uint32) bool {
		out[n] = IDTriple{S: s, P: pt.tw.typ, O: o}
		n++
		return n < len(out)
	})
	return n, done
}

// fillProps is fillTypes for the property walk of a view with closed
// properties.
func (pt *ScanPart) fillProps(out []IDTriple, n int) (int, bool) {
	if n == len(out) {
		return n, false
	}
	pt.pw.subs.ok = false
	done := pt.pw.walk(func(s, q, o uint32) bool {
		out[n] = IDTriple{S: s, P: q, O: o}
		n++
		return n < len(out)
	})
	return n, done
}

// fill advances the part in its current member. Callers hold the lock.
func (pt *ScanPart) fill(out []IDTriple) int {
	if pt.allLeads {
		return pt.fillLeads(out)
	}
	return pt.fillLead(out)
}

// fillLeads advances an allLeads part — the unbound full scan over SPO or
// the object-only fan-out over POS — from the first lead not below nextLead.
// The full scan walks each lead's pairs with fillMids; the fan-out streams the
// object's subject list under each predicate lead with fillSet. Both stop at
// the batch boundary. When the lead the cursor stood in is gone, the walk
// arrives at a later one and starts it from its first pair.
func (pt *ScanPart) fillLeads(out []IDTriple) int {
	ix, n := pt.index(), 0
	pt.done = ix.ascend(pt.nextLead, func(lead uint32, e *leadEntry) bool {
		if n == len(out) {
			return false
		}
		if lead != pt.nextLead {
			pt.nextMid, pt.chunk, pt.trailPos = 0, 0, 0
		}
		pt.nextLead = lead
		listDone := true
		switch {
		case pt.skipTypes && pt.fam == famPOS && lead == pt.tw.typ:
		case !pt.midBound:
			n, listDone = pt.fillMids(lead, e, out, n)
		default:
			if set := e.set(&ix.runTable, pt.mid); set.pairs != nil {
				n, listDone = pt.fillSet(lead, pt.mid, set, out, n)
			}
		}
		if !listDone {
			return false // out is full mid-lead; the next refill resumes in it
		}
		pt.nextMid, pt.chunk, pt.trailPos = 0, 0, 0
		// Wraps only past the largest id, which is then the last lead: the
		// walk is finished before nextLead is read again.
		pt.nextLead = lead + 1
		return true
	})
	return n
}

// index returns the owner's index the part walks.
func (pt *ScanPart) index() *index {
	if pt.fam == famPOS {
		return &pt.owner.pos
	}
	return &pt.owner.spo
}

// fillSet copies one trailing set's members into out as triples under
// (lead, mid) of the part's index, from (chunk, trailPos) on, and reports
// whether the set is exhausted. This is the leaf of the hot scan shape (two
// bound components, e.g. every {?x type class}): it fills straight from each
// chunk's element slice with the index dispatch hoisted out of the loop, and
// stops at the batch boundary rather than buffering the rest, which keeps
// both the lock hold and the cursor's memory bounded however large the
// posting list is. A resumed cursor is first checked against the set, which
// may have mutated since the last refill: a write below the cursor slides the
// members above it in its chunk, a chunk splits or goes, so when the member
// before the place is no longer the last one emitted, the cursor re-seeks to
// the first member above lastTrail. The set ascends, so the emissions from
// one list do: none is repeated or stepped over.
func (pt *ScanPart) fillSet(lead, mid uint32, set trailSet, out []IDTriple, n int) (int, bool) {
	if pt.trailPos > 0 && (pt.chunk >= len(set.pairs) || pt.trailPos > len(set.elems(pt.chunk)) || set.elems(pt.chunk)[pt.trailPos-1] != pt.lastTrail) {
		pt.chunk, pt.trailPos = set.seek(pt.lastTrail)
	}
	for {
		elems := set.elems(pt.chunk)
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
		switch {
		case pt.trailPos < len(elems):
			return n, false // out is full
		case pt.chunk+1 == len(set.pairs):
			return n, true
		case n == len(out):
			return n, false // the next refill moves on to the next chunk
		}
		pt.chunk, pt.trailPos = pt.chunk+1, 0
	}
}

// fillMids walks one lead's sets with the mid open and reports whether the
// lead is finished. It names its place by value: the sets ascend by middle
// component, so a refill resumes at the first one not below nextMid, and when
// that is still the list the cursor stood in, fillSet re-seeks its position
// above lastTrail. A set emptied, dropped or filed anew moves no other set
// across the cursor, so only a set a write touched may be seen or missed.
// With the trail bound a set contributes at most its one membership.
func (pt *ScanPart) fillMids(lead uint32, e *leadEntry, out []IDTriple, n int) (int, bool) {
	i, found := e.search(pt.nextMid)
	if !found {
		pt.chunk, pt.trailPos = 0, 0 // the list the cursor stood in is gone
	}
	rt := &pt.index().runTable
	for i < int(e.n) && n < len(out) {
		end := e.setEnd(i)
		set, mid := e.span(rt, i, end), e.pairs()[i].mid
		i = end
		switch {
		case pt.skipTypes && mid == pt.tw.typ:
		case pt.trailBound:
			if set.contains(pt.trail) {
				out[n] = tripleOf(pt.fam, lead, mid, pt.trail)
				n++
			}
		default:
			var finished bool
			if n, finished = pt.fillSet(lead, mid, set, out, n); !finished {
				pt.nextMid = mid
				return n, false
			}
			pt.chunk, pt.trailPos = 0, 0
		}
		// Wraps only past the largest id, whose set is the last: the lead is
		// then finished before nextMid is read again.
		pt.nextMid = mid + 1
	}
	return n, i >= int(e.n)
}

// fillLead advances a single-lead part: the lead entry is re-looked-up each
// refill, since it may have mutated in between. A midBound part names its one
// list by value, so only the triple a write touched may be seen or missed;
// with the mid open the walk is fillMids.
func (pt *ScanPart) fillLead(out []IDTriple) int {
	ix := pt.index()
	e, n := ix.find(pt.lead), 0
	switch {
	case e == nil:
		pt.done = true
	case pt.allBound:
		if e.set(&ix.runTable, pt.mid).contains(pt.trail) {
			out[0] = tripleOf(pt.fam, pt.lead, pt.mid, pt.trail)
			n = 1
		}
		pt.done = true
	case pt.midBound:
		if set := e.set(&ix.runTable, pt.mid); set.pairs != nil {
			n, pt.done = pt.fillSet(pt.lead, pt.mid, set, out, n)
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

// Scan opens the resumable cursor over the triples matching the id pattern —
// the batched twin of the callback walk (QueryIDBatch), choosing the
// permutation index the same way. Drain it with NextBatch; each refill costs
// one lock round trip however many triples it moves.
func (s *Store) Scan(p IDPattern) *ScanPart {
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

// Scan is the View form of Store.Scan: one cursor over the base, then the
// overlay. The members are disjoint (see NewView), so it reports each union
// triple exactly once.
func (v *View) Scan(p IDPattern) *ScanPart {
	pt := v.scanStored(p)
	v.closeScan(pt, p)
	return pt
}

// scanStored is Scan over the members' triples alone.
func (v *View) scanStored(p IDPattern) *ScanPart {
	pt := v.base.Scan(p)
	pt.then = v.overlay
	return pt
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.queryIDBatch(ps, yield)
}

// queryIDBatch is QueryIDBatch for a caller that holds the lock, reporting
// false when yield stopped the enumeration.
func (s *Store) queryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) bool {
	if len(ps) == 0 {
		return true
	}
	// The two most common join shapes — (S P ?) answering objects and
	// (? P O) answering subjects, the forms a join's bound lead plus one
	// more bound component produces — run fully specialized loops: lead
	// lookup, entry find and element walk are all inlined with no per-probe
	// dispatch, because this is the innermost loop of every batched join.
	// Everything else goes through the general per-probe dispatch.
	switch shape := ps[0]; {
	case shape.BoundS && shape.BoundP && !shape.BoundO:
		return s.batchProbeSP(ps, yield)
	case shape.BoundP && shape.BoundO && !shape.BoundS:
		return s.batchProbePO(ps, yield)
	default:
		for pi := range ps {
			if !s.probeLocked(ps[pi], pi, yield) {
				return false
			}
		}
		return true
	}
}

// batchProbeSP answers a batch of (S P ?) probes: SPO, objects out, reporting
// false when yield stopped it. Callers hold mu.
func (s *Store) batchProbeSP(ps []IDPattern, yield func(pi int, t IDTriple) bool) bool {
	for pi, p := range ps {
		set := s.spo.set(p.S, p.P)
		for k := range set.pairs {
			for _, v := range set.elems(k) {
				if !yield(pi, IDTriple{S: p.S, P: p.P, O: v}) {
					return false
				}
			}
		}
	}
	return true
}

// batchProbePO answers a batch of (? P O) probes: POS, subjects out, reporting
// false when yield stopped it. Callers hold mu.
func (s *Store) batchProbePO(ps []IDPattern, yield func(pi int, t IDTriple) bool) bool {
	for pi, p := range ps {
		set := s.pos.set(p.P, p.O)
		for k := range set.pairs {
			for _, v := range set.elems(k) {
				if !yield(pi, IDTriple{S: v, P: p.P, O: p.O}) {
					return false
				}
			}
		}
	}
	return true
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
			if p.BoundO {
				if e.set(&s.spo.runTable, p.P).contains(p.O) {
					return yield(pi, IDTriple{S: p.S, P: p.P, O: p.O})
				}
				return true
			}
			return emitPairs(e.set(&s.spo.runTable, p.P), pi, yield, famSPO, p.S)
		}
		pairs := e.span(&s.spo.runTable, 0, int(e.n))
		if !p.BoundO {
			return emitPairs(pairs, pi, yield, famSPO, p.S)
		}
		// The chunks of a set are disjoint, so at most one of them holds O.
		for k := range pairs.pairs {
			if _, found := searchRun(pairs.elems(k), p.O); found && !yield(pi, IDTriple{S: p.S, P: pairs.pairs[k].mid, O: p.O}) {
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
			return emitPairs(e.set(&s.pos.runTable, p.O), pi, yield, famPOS, p.P)
		}
		return emitPairs(e.span(&s.pos.runTable, 0, int(e.n)), pi, yield, famPOS, p.P)
	case p.BoundO:
		return s.pos.ascend(0, func(pid uint32, e *leadEntry) bool {
			return emitPairs(e.set(&s.pos.runTable, p.O), pi, yield, famPOS, pid)
		})
	default:
		return s.spo.ascend(0, func(sid uint32, e *leadEntry) bool {
			return emitPairs(e.span(&s.spo.runTable, 0, int(e.n)), pi, yield, famSPO, sid)
		})
	}
}

// emitPairs yields one triple per member of each pair's chunk — one set's
// pairs or a whole lead's — reassembled from the index's (lead, mid, trail)
// coordinates, as a direct loop over the chunks' elements (no per-set
// closure).
func emitPairs(pairs trailSet, pi int, yield func(int, IDTriple) bool, fam uint8, lead uint32) bool {
	for k := range pairs.pairs {
		mid := pairs.pairs[k].mid
		for _, v := range pairs.elems(k) {
			if !yield(pi, tripleOf(fam, lead, mid, v)) {
				return false
			}
		}
	}
	return true
}

// QueryIDBatch is the View form of Store.QueryIDBatch: the batch is answered
// by the base, then by the overlay, under one read-lock. The same same-shape
// and no-writes-from-yield rules apply.
func (v *View) QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	if v.closedBatch(ps, yield) {
		return
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	v.queryIDBatch(ps, yield)
}

// queryIDBatch is View.QueryIDBatch for a caller that holds the lock.
func (v *View) queryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	if v.base.queryIDBatch(ps, yield) {
		v.overlay.queryIDBatch(ps, yield)
	}
}
