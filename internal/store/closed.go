package store

import (
	"slices"
	"sync/atomic"
)

// This file is closed typing: a View that answers the type relation from
// the subClassOf closure rather than from stored type triples. A reasoner
// that materializes subClassOf but not the instance half of RDFS typing
// (an instance of a class is an instance of each superclass) leaves the
// store holding each instance's asserted and domain- or range-derived types
// only; a view with closed typing answers every read that can meet a type
// triple as if the propagated ones were stored — at the id level, under the
// read-lock it takes anyway, with set semantics: a type reachable along
// several paths is reported once.
//
// (s type D) holds when the view stores (s type C) for some C that is D or
// has (C subClassOf D) in the view. Only one step is taken, so the view's
// subClassOf triples must be transitively closed (the RDFS transitivity
// rule). A pattern whose predicate is a literal other than type reads the
// members as before; a literal type predicate reads the closure alone, and a
// variable predicate reads the members' other triples, then the closure's
// type triples. A scan's cursor resumes by value as before (ScanPart): a
// triple present throughout the scan is reported exactly once, and a refill
// is one state of the view. Writers read through Held, which never closes:
// rule bodies see what is stored.

// SubClassOfPredicate is the predicate relating a class to a superclass; a
// view with closed typing reads its materialized closure.
const SubClassOfPredicate = "subClassOf"

// CloseTyping makes the view answer instance typing from the subClassOf
// closure, from now on. Call it once, before the view has readers, on a view
// whose writer stores no propagated type, and report every later write to
// Recount, which keeps Len exact.
func (v *View) CloseTyping() {
	v.tally = newTypeTally(v)
}

// TypingClosed reports whether CloseTyping was called.
func (v *View) TypingClosed() bool { return v.tally != nil }

// unstored returns how many of the closure's type triples a view with closed
// typing does not store (0 on any other view): what Len counts beyond the
// members' triples.
func (v *View) unstored() int {
	if v.tally == nil {
		return 0
	}
	return int(v.tally.unstored.Load())
}

// Recount accounts one write to a view with closed typing (and does nothing
// on any other), once its write section has ended and before the next
// begins, from the triples whose membership it may have changed: added and
// removed together cover every one, and added[:fresh] are the ones the write
// brought in that the view did not hold before it. Every other triple of the
// two lists was in the view before the write — a reasoner's Delta has that
// shape (reason.Delta) — so the state before the write is the one after it,
// less the fresh triples, plus the rest of the lists. Recount takes the
// read-lock.
func (v *View) Recount(added, removed []IDTriple, fresh int) {
	if v.tally != nil {
		v.tally.apply(added, removed, fresh)
	}
}

// noID stands for a vocabulary name the dictionary has not minted: no index
// files it, so every probe for it misses. Ids are dense from 0, and the
// dictionary never reaches this one.
const noID = ^uint32(0)

// vocab returns the ids of type and subClassOf, ok false when the view's
// typing is not closed or type is not interned (no triple is typed, and the
// members answer alone). An uninterned subClassOf is noID: no class has a
// superclass.
func (v *View) vocab() (typ, sub uint32, ok bool) {
	if v.tally == nil {
		return 0, 0, false
	}
	if typ, ok = v.base.syms.lookup(TypePredicate); !ok {
		return 0, 0, false
	}
	if sub, ok = v.base.syms.lookup(SubClassOfPredicate); !ok {
		sub = noID
	}
	return typ, sub, true
}

// typed reports whether the pattern can match a type triple: its predicate
// is free or type.
func typed(p IDPattern, typ uint32) bool { return !p.BoundP || p.P == typ }

// walk returns the type walk of the pattern's subject and object.
func (v *View) walk(typ, sub uint32, p IDPattern) typeWalk {
	return typeWalk{
		m:   [2]*Store{v.base, v.overlay},
		typ: typ, sub: sub,
		s: p.S, o: p.O, boundS: p.BoundS, boundO: p.BoundO,
	}
}

// closeScan turns the members' cursor of the pattern into the closed one:
// for a variable predicate it passes type triples over and then runs the
// type walk; for type it runs the walk alone.
func (v *View) closeScan(pt *ScanPart, p IDPattern) {
	typ, sub, ok := v.vocab()
	if !ok || !typed(p, typ) {
		return
	}
	pt.tw, pt.closed, pt.typing = v.walk(typ, sub, p), true, p.BoundP
}

// closedBatch is QueryIDBatch with closed typing, reporting false when the
// batch has no probe that can match a type triple and the members answer it
// alone. Each probe of the batch is answered in turn, its stored non-type
// matches and then its type walk, under one read-lock.
func (v *View) closedBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) bool {
	typ, sub, ok := v.vocab()
	if !ok || len(ps) == 0 || ps[0].BoundP && !slices.ContainsFunc(ps, func(p IDPattern) bool { return p.P == typ }) {
		return false
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	w := v.walk(typ, sub, IDPattern{})
	for pi, p := range ps {
		if !typed(p, typ) {
			if !v.base.probeLocked(p, pi, yield) || !v.overlay.probeLocked(p, pi, yield) {
				return true
			}
			continue
		}
		if !p.BoundP {
			stored := func(pi int, t IDTriple) bool { return t.P == typ || yield(pi, t) }
			if !v.base.probeLocked(p, pi, stored) || !v.overlay.probeLocked(p, pi, stored) {
				return true
			}
		}
		// One walk serves the batch, so probes sharing an object share its
		// subsumee sets.
		w.s, w.o, w.boundS, w.boundO, w.at, w.begun = p.S, p.O, p.BoundS, p.BoundO, typePlace{}, false
		if !w.walk(func(s, o uint32) bool { return yield(pi, IDTriple{S: s, P: typ, O: o}) }) {
			return true
		}
	}
	return true
}

// closedStats is StatsID with closed typing, reporting false when the
// pattern cannot match a type triple. The type part's Count is exact for a
// bound subject and an upper bound otherwise: an instance reaches a class
// once per stored type reaching it, and the bound counts each.
func (v *View) closedStats(p IDPattern) (IDStats, bool) {
	typ, sub, ok := v.vocab()
	if !ok || !typed(p, typ) {
		return IDStats{}, false
	}
	w := v.walk(typ, sub, p)
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	tp := p
	tp.P, tp.BoundP = typ, true
	stored := v.storedStats(tp)
	n := w.count()
	if !p.BoundP {
		st := v.storedStats(p)
		st.Count += n - stored.Count
		return st, true
	}
	st := IDStats{Count: n, DistinctS: n, DistinctP: 1, DistinctO: n}
	switch {
	case n == 0:
		return IDStats{}, true
	case p.BoundS && p.BoundO:
		st.DistinctS, st.DistinctO = 1, 1
	case p.BoundS:
		st.DistinctS = 1
	case p.BoundO:
		st.DistinctO = 1
	default:
		// A class is reached as a stored type or as a superclass.
		st.DistinctS = stored.DistinctS
		st.DistinctO = stored.DistinctO
		if e := v.base.pos.find(sub); e != nil {
			st.DistinctO += e.sets()
		}
		if e := v.overlay.pos.find(sub); e != nil {
			st.DistinctO += e.sets()
		}
	}
	return st, true
}

// closedHolds reports whether a view with closed typing holds the type
// triple (s type o) though neither member stores it. Callers hold the lock.
func (v *View) closedHolds(s, p, o uint32) bool {
	typ, sub, ok := v.vocab()
	if !ok || p != typ {
		return false
	}
	w := v.walk(typ, sub, IDPattern{})
	return w.holds(s, o)
}

// closedSubjects is ForEachSubject's type walk on a view with closed typing,
// reporting false when the view answers (predicate, object) from its
// members. Callers hold the lock.
func (v *View) closedSubjects(pid, oid uint32, res resolver, yield func(string) bool) bool {
	typ, sub, ok := v.vocab()
	if !ok || pid != typ {
		return false
	}
	w := v.walk(typ, sub, IDPattern{O: oid, BoundO: true})
	w.walk(func(s, _ uint32) bool { return yield(res.name(s)) })
	return true
}

// typeWalk enumerates the closed type triples of one (subject, object)
// binding of (? type ?) over the view's two members, with the caller holding
// the lock. Its order is fixed by value, level by level, each level a
// bucket and then ascending ids:
//
//   - an object bound to C: the candidate classes — C (bucket 0), then the t
//     with (t subClassOf C) in the base (1) and in the overlay (2) — then,
//     under each, the member and the subject of each (s type t);
//   - a subject bound to s: s's stored types u, the base's (0) and the
//     overlay's (1), then u itself (0) and each d with (u subClassOf d) in
//     the base (1) and the overlay (2);
//   - neither: the subjects with a stored type, the base's (0) and those
//     only the overlay types (1), each walked as a bound subject.
//
// A triple is emitted at its first place in that order and skipped at every
// later one (first and firstClass check that no earlier place reaches it),
// which is the deduplication; at is the place of the last one emitted, from
// which a resumed walk goes on, so a cursor holds nothing but that place.
type typeWalk struct {
	m              [2]*Store
	typ, sub       uint32
	s, o           uint32
	boundS, boundO bool
	at             typePlace
	begun          bool // at names an emitted triple
	// subs are the subsumees of subsOf, each member's (? subClassOf
	// subsOf) set, looked up once for the probes of a batch that share an
	// object; they alias the indexes, so a walk drops them (subsOK false)
	// whenever it lets go of the lock.
	subs   [2]trailSet
	subsOf uint32
	subsOK bool
}

// typePlace is a walk's place, a (bucket, id) slot per level: subj is the
// subject's, class the candidate's or the stored type's, last the
// instance's or the class reported.
type typePlace struct {
	subj, class, last slot
}

// slot is one level of a typePlace.
type slot struct {
	b  uint8
	id uint32
}

// on reports whether the walk resumes at this level's slot (b, id), given
// that it resumes at the level above: the walk's place runs through it.
func (s slot) on(above bool, b uint8, id uint32) bool {
	return above && s.b == b && s.id == id
}

// from returns where a level's walk of bucket b starts: at the slot's id,
// inclusive, when it resumes in that bucket, else at the bucket's start.
func (s slot) from(above bool, b uint8) (uint32, bool) {
	if above && s.b == b {
		return s.id, true
	}
	return 0, false
}

// set returns lead's set under mid in member m's index ix, or nil.
func set(ix *index, lead, mid uint32) trailSet {
	if e := ix.find(lead); e != nil {
		return e.set(mid)
	}
	return nil
}

// types returns s's stored types in member m.
func (w *typeWalk) types(m int, s uint32) trailSet { return set(&w.m[m].spo, s, w.typ) }

// supers returns c's stored superclasses in member m.
func (w *typeWalk) supers(m int, c uint32) trailSet { return set(&w.m[m].spo, c, w.sub) }

// isSub reports whether (a subClassOf b) is in the view.
func (w *typeWalk) isSub(a, b uint32) bool {
	return w.m[0].spo.contains(a, w.sub, b) || w.m[1].spo.contains(a, w.sub, b)
}

// each calls f on the set's members ascending, from the first at or above
// from when resume is set (inclusive), until f returns false; it reports
// whether it reached the end.
func (ts trailSet) each(from uint32, resume bool, f func(uint32) bool) bool {
	if len(ts) == 0 {
		return true
	}
	k, i := 0, 0
	if resume && from > 0 {
		k, i = ts.seek(from - 1)
	}
	for ; k < len(ts); k, i = k+1, 0 {
		for _, v := range ts[k].elems()[i:] {
			if !f(v) {
				return false
			}
		}
	}
	return true
}

// after is each from the first member above from when resume is set.
func (ts trailSet) after(from uint32, resume bool, f func(uint32) bool) bool {
	if resume && from == noID {
		return true
	}
	return ts.each(from+1, resume, f)
}

// under returns the bucket of u among o's candidate classes — o itself 0,
// a subsumee in the base 1, in the overlay 2 — and false when u is none.
func (w *typeWalk) under(u, o uint32) (uint8, bool) {
	if u == o {
		return 0, true
	}
	if !w.subsOK || w.subsOf != o {
		w.subs = [2]trailSet{set(&w.m[0].pos, w.sub, o), set(&w.m[1].pos, w.sub, o)}
		w.subsOf, w.subsOK = o, true
	}
	switch {
	case len(w.subs[0]) > 0 && w.subs[0].contains(u):
		return 1, true
	case len(w.subs[1]) > 0 && w.subs[1].contains(u):
		return 2, true
	}
	return 0, false
}

// holds reports whether (s type o) is in the closure: a stored type of s is
// o or has o as a superclass.
func (w *typeWalk) holds(s, o uint32) bool {
	for m := range w.m {
		for _, ch := range w.types(m, s) {
			for _, u := range ch.elems() {
				if _, ok := w.under(u, o); ok {
					return true
				}
			}
		}
	}
	return false
}

// walk emits the binding's closed type triples from after its place, as
// (subject, object) pairs, until emit returns false, and reports whether it
// reached the end.
func (w *typeWalk) walk(emit func(s, o uint32) bool) bool {
	switch {
	case w.boundS && w.boundO:
		if w.begun || !w.holds(w.s, w.o) {
			return true
		}
		w.begun = true
		return emit(w.s, w.o)
	case w.boundO:
		return w.instances(emit)
	case w.boundS:
		return w.classes(w.s, w.begun, emit)
	}
	return w.subjects(emit)
}

// instances walks (? type o): the instances of each candidate class, each
// subject at its first candidate.
func (w *typeWalk) instances(emit func(s, o uint32) bool) bool {
	at, begun := w.at, w.begun
	pos := func(m int) *index { return &w.m[m].pos }
	for b := uint8(0); b < 3; b++ {
		cand := func(t uint32) bool {
			if b > 0 && t == w.o {
				return true // a cycle's (o subClassOf o)
			}
			onT := at.class.on(begun, b, t)
			for m := uint8(0); m < 2; m++ {
				if onT && m < at.last.b {
					continue
				}
				from, resume := at.last.from(onT, m)
				ok := set(pos(int(m)), w.typ, t).after(from, resume, func(s uint32) bool {
					if !w.first(s, b, t) {
						return true
					}
					w.at, w.begun = typePlace{class: slot{b, t}, last: slot{m, s}}, true
					return emit(s, w.o)
				})
				if !ok {
					return false
				}
			}
			return true
		}
		if begun && b < at.class.b {
			continue
		}
		var ok bool
		if b == 0 {
			ok = cand(w.o)
		} else {
			from, resume := at.class.from(begun, b)
			ok = set(pos(int(b-1)), w.sub, w.o).each(from, resume, cand)
		}
		if !ok {
			return false
		}
	}
	return true
}

// first reports whether t, a candidate of bucket b, is the first candidate
// among s's stored types: none of the others ranks before it.
func (w *typeWalk) first(s uint32, b uint8, t uint32) bool {
	for m := range w.m {
		for _, ch := range w.types(m, s) {
			for _, u := range ch.elems() {
				if u == t {
					continue
				}
				if ub, ok := w.under(u, w.o); ok && (ub < b || ub == b && u < t) {
					return false
				}
			}
		}
	}
	return true
}

// classes walks (s type ?): each stored type of s and its superclasses, each
// class at its first place. begun says whether the walk resumes in s.
func (w *typeWalk) classes(s uint32, begun bool, emit func(s, o uint32) bool) bool {
	at := w.at
	for um := uint8(0); um < 2; um++ {
		if begun && um < at.class.b {
			continue
		}
		from, resume := at.class.from(begun, um)
		ok := w.types(int(um), s).each(from, resume, func(u uint32) bool {
			onU := at.class.on(begun, um, u)
			for ph := uint8(0); ph < 3; ph++ {
				if onU && ph < at.last.b {
					continue
				}
				reach := func(d uint32) bool {
					if ph > 0 && d == u || !w.firstClass(s, um, u, d) {
						return true
					}
					w.at.class, w.at.last, w.begun = slot{um, u}, slot{ph, d}, true
					return emit(s, d)
				}
				if ph == 0 {
					if !onU && !reach(u) {
						return false
					}
					continue
				}
				from, resume := at.last.from(onU, ph)
				if !w.supers(int(ph-1), u).after(from, resume, reach) {
					return false
				}
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}

// firstClass reports whether d, reached from s's stored type u of member um,
// is reached from no stored type of s before u: none is d or has d as a
// superclass.
func (w *typeWalk) firstClass(s uint32, um uint8, u, d uint32) bool {
	for m := uint8(0); m <= um; m++ {
		for _, ch := range w.types(int(m), s) {
			for _, v := range ch.elems() {
				if m == um && v >= u {
					return true
				}
				if v == d || w.isSub(v, d) {
					return false
				}
			}
		}
	}
	return true
}

// subjects walks (? type ?): every subject with a stored type, the base's
// then those only the overlay types, each walked as classes does.
func (w *typeWalk) subjects(emit func(s, o uint32) bool) bool {
	at, begun := w.at, w.begun
	for sm := uint8(0); sm < 2; sm++ {
		if begun && sm < at.subj.b {
			continue
		}
		from, _ := at.subj.from(begun, sm)
		ok := w.m[sm].spo.ascend(from, func(s uint32, e *leadEntry) bool {
			if e.set(w.typ) == nil || sm == 1 && w.types(0, s) != nil {
				return true
			}
			onS := at.subj.on(begun, sm, s)
			if !onS {
				w.at = typePlace{}
			}
			w.at.subj = slot{sm, s}
			return w.classes(s, onS, emit)
		})
		if !ok {
			return false
		}
	}
	return true
}

// count returns the number of the binding's closed type triples: exact for
// a bound subject, and for a free one the upper bound that counts an
// instance once per stored type reaching the class.
func (w *typeWalk) count() int {
	n := 0
	switch {
	case w.boundS:
		w.walk(func(uint32, uint32) bool { n++; return true })
		w.at, w.begun = typePlace{}, false
	case w.boundO:
		n += set(&w.m[0].pos, w.typ, w.o).len() + set(&w.m[1].pos, w.typ, w.o).len()
		for m := range w.m {
			set(&w.m[m].pos, w.sub, w.o).each(0, false, func(t uint32) bool {
				if t != w.o {
					n += set(&w.m[0].pos, w.typ, t).len() + set(&w.m[1].pos, w.typ, t).len()
				}
				return true
			})
		}
	default:
		for m := range w.m {
			e := w.m[m].pos.find(w.typ)
			if e == nil {
				continue
			}
			for i := 0; i < len(e.entries); {
				end := e.setEnd(i)
				u := e.entries[i].mid
				reach := 1 + w.supers(0, u).len() + w.supers(1, u).len()
				if w.isSub(u, u) {
					reach--
				}
				n += trailSet(e.entries[i:end]).len() * reach
				i = end
			}
		}
	}
	return n
}

// typeTally keeps the number of a view's closed type triples that its
// members do not store, so that Len counts what a read returns. Recount
// feeds it every write; it holds its own scratch, so a write costs no
// allocation once the scratch has grown to the write's size.
type typeTally struct {
	v        *View
	unstored atomic.Int64
	// The scratch of one write: its fresh and its removed type and
	// subClassOf triples, sorted; the subjects whose closed types may have
	// changed; and one subject's classes.
	fresh, rem []IDTriple
	subjects   []uint32
	classes    []uint32
}

// newTypeTally counts the view's unstored closed type triples.
func newTypeTally(v *View) *typeTally {
	t := &typeTally{v: v}
	v.tally = t // for vocab
	typ, sub, ok := v.vocab()
	if !ok {
		return t
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	w := v.walk(typ, sub, IDPattern{})
	n := 0
	for sm := range w.m {
		w.m[sm].spo.ascend(0, func(s uint32, e *leadEntry) bool {
			if e.set(typ) != nil && (sm == 0 || w.types(0, s) == nil) {
				n += t.extra(&w, s, false)
			}
			return true
		})
	}
	t.unstored.Store(int64(n))
	return t
}

// apply is Recount: each subject whose stored types or whose types'
// superclasses changed is counted in both states.
func (t *typeTally) apply(added, removed []IDTriple, fresh int) {
	typ, sub, ok := t.v.vocab()
	if !ok {
		return
	}
	keep := func(dst, src []IDTriple) []IDTriple {
		for _, x := range src {
			if x.P == typ || x.P == sub {
				dst = append(dst, x)
			}
		}
		slices.SortFunc(dst, compareIDTriples)
		return dst
	}
	t.fresh, t.rem = keep(t.fresh[:0], added[:fresh]), keep(t.rem[:0], removed)
	t.v.base.mu.RLock()
	defer t.v.base.mu.RUnlock()
	w := t.v.walk(typ, sub, IDPattern{})
	t.subjects = t.subjects[:0]
	for _, list := range [2][]IDTriple{added, removed} {
		for _, x := range list {
			switch x.P {
			case typ:
				t.subjects = append(t.subjects, x.S)
			case sub:
				for m := range w.m {
					set(&w.m[m].pos, typ, x.S).each(0, false, func(s uint32) bool {
						t.subjects = append(t.subjects, s)
						return true
					})
				}
			}
		}
	}
	slices.Sort(t.subjects)
	d := 0
	for _, s := range slices.Compact(t.subjects) {
		d += t.extra(&w, s, false) - t.extra(&w, s, true)
	}
	t.unstored.Add(int64(d))
	if cap(t.subjects) > scratchCap || cap(t.fresh) > scratchCap || cap(t.rem) > scratchCap {
		t.fresh, t.rem, t.subjects = nil, nil, nil
	}
}

// scratchCap bounds, in entries, the scratch a typeTally keeps between
// writes: a bulk load would otherwise pin its size for good.
const scratchCap = 1 << 16

// compareIDTriples orders id triples as IDTriple.Less does.
func compareIDTriples(a, b IDTriple) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// in reports whether x is in the sorted list.
func in(list []IDTriple, x IDTriple) bool {
	_, found := slices.BinarySearchFunc(list, x, compareIDTriples)
	return found
}

// extra counts s's closed types beyond its stored ones, in the state the
// write left or, with pre, the one before it (see apply). Callers hold the
// view's lock.
func (t *typeTally) extra(w *typeWalk, s uint32, pre bool) int {
	was := func(x IDTriple) bool { return !in(t.fresh, x) }
	if !pre {
		// The common subject, typed once: its superclasses, less itself
		// when a cycle makes it its own.
		t0, t1 := w.types(0, s), w.types(1, s)
		if t0.len()+t1.len() == 1 {
			if len(t0) == 0 {
				t0 = t1
			}
			u := t0[0].first()
			n := w.supers(0, u).len() + w.supers(1, u).len()
			if w.isSub(u, u) {
				n--
			}
			return n
		}
	}
	cls := t.classes[:0]
	for m := range w.m {
		w.types(m, s).each(0, false, func(u uint32) bool {
			if !pre || was(IDTriple{S: s, P: w.typ, O: u}) {
				cls = append(cls, u)
			}
			return true
		})
	}
	if pre {
		cls = t.removedFrom(cls, s, w.typ)
	}
	slices.Sort(cls)
	cls = slices.Compact(cls)
	stored := len(cls)
	for _, u := range cls[:stored] {
		for m := range w.m {
			w.supers(m, u).each(0, false, func(d uint32) bool {
				if !pre || was(IDTriple{S: u, P: w.sub, O: d}) {
					cls = append(cls, d)
				}
				return true
			})
		}
		if pre {
			cls = t.removedFrom(cls, u, w.sub)
		}
	}
	slices.Sort(cls)
	n := len(slices.Compact(cls)) - stored
	t.classes = cls[:0]
	return n
}

// removedFrom appends to cls the objects of the write's removed (s, p, ?)
// triples that were in the view before it: those it did not bring in.
func (t *typeTally) removedFrom(cls []uint32, s, p uint32) []uint32 {
	i, _ := slices.BinarySearchFunc(t.rem, IDTriple{S: s, P: p}, compareIDTriples)
	for ; i < len(t.rem) && t.rem[i].S == s && t.rem[i].P == p; i++ {
		if !in(t.fresh, t.rem[i]) {
			cls = append(cls, t.rem[i].O)
		}
	}
	return cls
}
