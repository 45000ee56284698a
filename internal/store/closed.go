package store

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// This file is the closed view: a View that answers two RDFS entailments
// from the schema closure its members store rather than from stored
// conclusions. A reasoner that materializes subClassOf and subPropertyOf but
// not the one-step rules that read them leaves the store holding each
// instance's asserted and domain- or range-derived types only, and each
// property triple under the property it was asserted or derived with only; a
// closed view answers every read that can meet such a conclusion as if it
// were stored — at the id level, under the read-lock it takes anyway, with
// set semantics: a triple reachable along several paths is reported once.
//
//   - Closed typing: (s type D) holds when the view stores (s type C) for
//     some C that is D or has (C subClassOf D) in the view.
//   - Closed properties: (s Q o) holds when the view stores (s P o) for some
//     P that is Q or has (P subPropertyOf Q) in the view.
//
// Only one step is taken, so the view's subClassOf and subPropertyOf triples
// must be transitively closed (the RDFS transitivity rules), and no
// vocabulary predicate may sit on either side of subPropertyOf (the caller's
// hazard list): then no closed property triple has type for its predicate,
// and the two closures never meet. A pattern whose predicate is a literal
// the closures cannot conclude reads the members as before. A literal type
// predicate reads the type walk alone; a literal property with strict
// sub-properties reads the members, then the property walk; a variable
// predicate reads the members' other triples, then the type walk, then the
// property walk. Each walk reports only what the ones before it did not. A
// scan's cursor resumes by value as before (ScanPart): a triple present
// throughout the scan is reported exactly once, and a refill is one state of
// the view. Writers read through Held, which never closes: rule bodies see
// what is stored.

// SubClassOfPredicate is the predicate relating a class to a superclass; a
// view with closed typing reads its materialized closure.
const SubClassOfPredicate = "subClassOf"

// SubPropertyOfPredicate is the predicate relating a property to a
// super-property; a view with closed properties reads its materialized
// closure.
const SubPropertyOfPredicate = "subPropertyOf"

// Closure is a set of the entailments a view answers from its schema closure
// instead of from stored triples.
type Closure uint8

// The closures a view may answer.
const (
	// ClosedTyping answers instance typing from the subClassOf closure.
	ClosedTyping Closure = 1 << iota
	// ClosedProperties answers sub-property entailments from the
	// subPropertyOf closure.
	ClosedProperties
)

// Close makes the view answer the closures of c, from now on. Call it once,
// before the view has readers, on a view whose writer stores none of their
// conclusions, and report every later write to Recount, which keeps Len
// exact.
func (v *View) Close(c Closure) {
	if c != 0 {
		v.closure = newClosure(v, c)
	}
}

// Open stops answering the closures of c from the closure, from now on.
// Call it from the view's one writer, once its members store every
// conclusion of c and Recount has seen the write that stored them: their
// unstored triples are then none, and a read that still answers them finds
// nothing to add.
func (v *View) Open(c Closure) {
	if v.closure != nil {
		v.closure.which.Store(v.closure.which.Load() &^ uint32(c))
	}
}

// Closed reports the closures the view answers (Close, Open).
func (v *View) Closed() Closure {
	if v.closure == nil {
		return 0
	}
	return Closure(v.closure.which.Load())
}

// unstored returns how many of the closures' triples a closed view does not
// store (0 on any other view): what Len counts beyond the members' triples.
func (v *View) unstored() int {
	if v.closure == nil {
		return 0
	}
	return int(v.closure.unstored.Load())
}

// Recount accounts one write to a closed view (and does nothing on any
// other), once its write section has ended and before the next begins, from
// the triples whose membership it may have changed: added and removed
// together cover every one, and added[:fresh] are the ones the write brought
// in that the view did not hold before it. Every other triple of the two
// lists was in the view before the write — a reasoner's Delta has that shape
// (reason.Delta) — so the state before the write is the one after it, less
// the fresh triples, plus the rest of the lists. Recount takes the read-lock.
func (v *View) Recount(added, removed []IDTriple, fresh int) {
	if v.closure != nil {
		v.closure.apply(added, removed, fresh)
	}
}

// noID stands for a vocabulary name the dictionary has not minted: no index
// files it, so every probe for it misses. Ids are dense from 0, and the
// dictionary never reaches this one.
const noID = ^uint32(0)

// vocabNames are the names a closed view reads its closures by, in the order
// of closure.ids.
var vocabNames = [3]string{TypePredicate, SubClassOfPredicate, SubPropertyOfPredicate}

// vocab is a closed view's vocabulary, each name's id or noID, and which
// closures can hold anything: typing once type is interned, properties once
// subPropertyOf is.
type vocab struct {
	typ, sub, sp  uint32
	typing, props bool
}

// vocab returns the view's vocabulary, ok false when neither closure can
// hold anything and the members answer alone. An id, once minted, is the
// name's for good, so each is looked up until it is found and then read
// from the closure.
func (v *View) vocab() (vc vocab, ok bool) {
	c := v.closure
	if c == nil {
		return vocab{}, false
	}
	var id [3]uint32
	for i := range id {
		x := c.ids[i].Load()
		if x == 0 {
			if n, found := v.base.syms.lookup(vocabNames[i]); found {
				x = n + 1
				c.ids[i].Store(x)
			}
		}
		id[i] = x - 1 // noID while the name is not interned
	}
	vc = vocab{typ: id[0], sub: id[1], sp: id[2]}
	which := Closure(c.which.Load())
	vc.typing = which&ClosedTyping != 0 && vc.typ != noID
	vc.props = which&ClosedProperties != 0 && vc.sp != noID
	return vc, vc.typing || vc.props
}

// typed reports whether the pattern can match a closed type triple: typing
// is closed and its predicate is free or type.
func (vc vocab) typed(p IDPattern) bool { return vc.typing && (!p.BoundP || p.P == vc.typ) }

// propped reports whether the pattern can match a closed property triple:
// properties are closed and its predicate is free or a property other than
// type. Whether that property has a strict sub-property is the walk's to
// find.
func (vc vocab) propped(p IDPattern) bool { return vc.props && (!p.BoundP || p.P != vc.typ) }

// typeWalk returns the type walk of the pattern's subject and object.
func (v *View) typeWalk(vc vocab, p IDPattern) typeWalk {
	return typeWalk{
		m:   [2]*Store{v.base, v.overlay},
		typ: vc.typ, sub: vc.sub,
		s: p.S, o: p.O, boundS: p.BoundS, boundO: p.BoundO,
	}
}

// propWalk returns the property walk of the pattern: of its predicate's
// closure when bound, of every super-property's when free.
func (v *View) propWalk(vc vocab, p IDPattern) propWalk {
	return propWalk{
		m:  [2]*Store{v.base, v.overlay},
		sp: vc.sp,
		q:  p.P, boundQ: p.BoundP,
		s: p.S, o: p.O, boundS: p.BoundS, boundO: p.BoundO,
	}
}

// closeScan turns the members' cursor of the pattern into the closed one:
// for a variable predicate it passes type triples over and then runs the
// type walk; for type it runs the type walk alone; the property walk follows
// whenever the pattern can match a closed property triple.
func (v *View) closeScan(pt *ScanPart, p IDPattern) {
	vc, ok := v.vocab()
	if !ok {
		return
	}
	if vc.typed(p) {
		pt.tw, pt.skipTypes, pt.typing = v.typeWalk(vc, p), !p.BoundP, true
		if p.BoundP {
			pt.phase = phaseTypes
		}
	}
	if vc.propped(p) {
		pt.pw, pt.props = v.propWalk(vc, p), true
	}
}

// closedBatch is QueryIDBatch on a closed view, reporting false when neither
// closure can hold anything and the members answer the batch alone. Each
// probe that can match a closed triple is answered in turn — its stored
// matches, then its type walk, then its property walk — under one read-lock;
// a batch with no such probe is the members' batch.
func (v *View) closedBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) bool {
	vc, ok := v.vocab()
	if !ok {
		return false
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	// One walk of each kind serves the batch, so probes sharing an object
	// or a property share its subsumee or sub-property sets.
	tw, pw := v.typeWalk(vc, IDPattern{}), v.propWalk(vc, IDPattern{})
	lastP, lastStrict := noID, false
	strict := func(p IDPattern) bool {
		if !vc.propped(p) {
			return false
		}
		if p.BoundP && p.P != lastP {
			lastP, lastStrict = p.P, pw.strict(p.P)
		}
		return !p.BoundP || lastStrict
	}
	if !slices.ContainsFunc(ps, func(p IDPattern) bool { return vc.typed(p) || strict(p) }) {
		v.queryIDBatch(ps, yield)
		return true
	}
	for pi, p := range ps {
		typed, props := vc.typed(p), strict(p)
		if !typed || !p.BoundP {
			stored := yield
			if typed {
				stored = func(pi int, t IDTriple) bool { return t.P == vc.typ || yield(pi, t) }
			}
			if !v.base.probeLocked(p, pi, stored) || !v.overlay.probeLocked(p, pi, stored) {
				return true
			}
		}
		if typed {
			tw.s, tw.o, tw.boundS, tw.boundO, tw.at, tw.begun = p.S, p.O, p.BoundS, p.BoundO, typePlace{}, false
			if !tw.walk(func(s, o uint32) bool { return yield(pi, IDTriple{S: s, P: vc.typ, O: o}) }) {
				return true
			}
		}
		if props {
			pw.q, pw.boundQ, pw.s, pw.o, pw.boundS, pw.boundO, pw.at, pw.begun = p.P, p.BoundP, p.S, p.O, p.BoundS, p.BoundO, propPlace{}, false
			if !pw.walk(func(s, q, o uint32) bool { return yield(pi, IDTriple{S: s, P: q, O: o}) }) {
				return true
			}
		}
	}
	return true
}

// closedStats is StatsID on a closed view, reporting false when neither
// closure can hold anything. A closure's part of Count is exact for a bound
// subject's types and an upper bound otherwise: a triple reached along
// several paths is counted once per path.
func (v *View) closedStats(p IDPattern) (IDStats, bool) {
	vc, ok := v.vocab()
	if !ok {
		return IDStats{}, false
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	var st IDStats
	if vc.typed(p) {
		st = v.typedStats(vc, p)
	} else {
		st = v.storedStats(p)
	}
	if vc.propped(p) {
		pw := v.propWalk(vc, p)
		extra := pw.count()
		st.Count += extra.Count
		if p.BoundP {
			st.DistinctS += extra.DistinctS
			st.DistinctO += extra.DistinctO
			st.DistinctP = min(st.Count, 1)
		}
	}
	return st, true
}

// typedStats is StatsID of a pattern that can match a closed type triple.
// Callers hold the lock.
func (v *View) typedStats(vc vocab, p IDPattern) IDStats {
	w := v.typeWalk(vc, p)
	tp := p
	tp.P, tp.BoundP = vc.typ, true
	stored := v.storedStats(tp)
	n := w.count()
	if !p.BoundP {
		st := v.storedStats(p)
		st.Count += n - stored.Count
		return st
	}
	st := IDStats{Count: n, DistinctS: n, DistinctP: 1, DistinctO: n}
	switch {
	case n == 0:
		return IDStats{}
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
		st.DistinctO += v.base.pos.lead(vc.sub).sets() + v.overlay.pos.lead(vc.sub).sets()
	}
	return st
}

// closedHolds reports whether a closed view holds the triple (s p o) though
// neither member stores it. Callers hold the lock.
func (v *View) closedHolds(s, p, o uint32) bool {
	vc, ok := v.vocab()
	q := IDPattern{P: p, BoundP: true}
	switch {
	case !ok:
		return false
	case vc.typed(q):
		w := v.typeWalk(vc, q)
		return w.holds(s, o)
	case vc.propped(q):
		w := v.propWalk(vc, q)
		return w.holds(s, p, o)
	}
	return false
}

// closedSubjects is ForEachSubject on a closed view, reporting false when
// the view answers (predicate, object) from its members alone: the type walk
// for type, the members and then the property walk for a property. Callers
// hold the lock.
func (v *View) closedSubjects(pid, oid uint32, res resolver, yield func(string) bool) bool {
	vc, ok := v.vocab()
	p := IDPattern{P: pid, O: oid, BoundP: true, BoundO: true}
	switch {
	case !ok:
		return false
	case vc.typed(p):
		w := v.typeWalk(vc, p)
		w.walk(func(s, _ uint32) bool { return yield(res.name(s)) })
		return true
	case vc.propped(p):
		if v.storedSubjects(pid, oid, res, yield) {
			w := v.propWalk(vc, p)
			w.walk(func(s, _, _ uint32) bool { return yield(res.name(s)) })
		}
		return true
	}
	return false
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
	// object; they alias the indexes, so a walk drops them (subs.ok false)
	// whenever it lets go of the lock.
	subs subsumees
}

// subsumees caches the two members' sets of (? rel of): the subclasses or
// sub-properties of of, which a walk ranks candidates by.
type subsumees struct {
	sets [2]trailSet
	of   uint32
	ok   bool
}

// rank returns the bucket of u among of's candidates — of itself 0, one
// filed under rel in the base 1, in the overlay 2 — and false when u is
// none, looking the sets up when they are not of's.
func (c *subsumees) rank(m [2]*Store, rel, u, of uint32) (uint8, bool) {
	if u == of {
		return 0, true
	}
	if !c.ok || c.of != of {
		c.sets = [2]trailSet{m[0].pos.set(rel, of), m[1].pos.set(rel, of)}
		c.of, c.ok = of, true
	}
	switch {
	case c.sets[0].contains(u):
		return 1, true
	case c.sets[1].contains(u):
		return 2, true
	}
	return 0, false
}

// typePlace is a walk's place, a (bucket, id) slot per level: subj is the
// subject's, class the candidate's or the stored type's, last the
// instance's or the class reported.
type typePlace struct {
	subj, class, last slot
}

// slot is one level of a typePlace or a propPlace.
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

// types returns s's stored types in member m.
func (w *typeWalk) types(m int, s uint32) trailSet { return w.m[m].spo.set(s, w.typ) }

// supers returns c's stored superclasses in member m.
func (w *typeWalk) supers(m int, c uint32) trailSet { return w.m[m].spo.set(c, w.sub) }

// isSub reports whether (a subClassOf b) is in the view.
func (w *typeWalk) isSub(a, b uint32) bool {
	return w.m[0].spo.contains(a, w.sub, b) || w.m[1].spo.contains(a, w.sub, b)
}

// each calls f on the set's members ascending, from the first at or above
// from when resume is set (inclusive), until f returns false; it reports
// whether it reached the end.
func (ts trailSet) each(from uint32, resume bool, f func(uint32) bool) bool {
	if len(ts.pairs) == 0 {
		return true
	}
	k, i := 0, 0
	if resume && from > 0 {
		k, i = ts.seek(from - 1)
	}
	for ; k < len(ts.pairs); k, i = k+1, 0 {
		for _, v := range ts.elems(k)[i:] {
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

// under returns the bucket of u among o's candidate classes.
func (w *typeWalk) under(u, o uint32) (uint8, bool) { return w.subs.rank(w.m, w.sub, u, o) }

// holds reports whether (s type o) is in the closure: a stored type of s is
// o or has o as a superclass.
func (w *typeWalk) holds(s, o uint32) bool {
	for m := range w.m {
		for ts, k := w.types(m, s), 0; k < len(ts.pairs); k++ {
			for _, u := range ts.elems(k) {
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
				ok := pos(int(m)).set(w.typ, t).after(from, resume, func(s uint32) bool {
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
			ok = pos(int(b-1)).set(w.sub, w.o).each(from, resume, cand)
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
		for ts, k := w.types(m, s), 0; k < len(ts.pairs); k++ {
			for _, u := range ts.elems(k) {
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
		for ts, k := w.types(int(m), s), 0; k < len(ts.pairs); k++ {
			for _, v := range ts.elems(k) {
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
		ok := w.m[sm].spo.ascend(from, func(s uint32, ps trailSet) bool {
			if _, typed := ps.search(w.typ); !typed || sm == 1 && w.types(0, s).pairs != nil {
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
		n += w.m[0].pos.set(w.typ, w.o).len() + w.m[1].pos.set(w.typ, w.o).len()
		for m := range w.m {
			w.m[m].pos.set(w.sub, w.o).each(0, false, func(t uint32) bool {
				if t != w.o {
					n += w.m[0].pos.set(w.typ, t).len() + w.m[1].pos.set(w.typ, t).len()
				}
				return true
			})
		}
	default:
		for m := range w.m {
			ps := w.m[m].pos.lead(w.typ)
			for i := 0; i < len(ps.pairs); {
				end := ps.setEnd(i)
				u := ps.pairs[i].mid
				reach := 1 + w.supers(0, u).len() + w.supers(1, u).len()
				if w.isSub(u, u) {
					reach--
				}
				n += ps.span(i, end).len() * reach
				i = end
			}
		}
	}
	return n
}

// propWalk enumerates the closed property triples that neither member
// stores, for one binding of (s q o) over the view's two members, with the
// caller holding the lock. Its order is fixed by value as the type walk's
// is:
//
//   - a predicate bound to Q: the strict sub-properties p of Q, those with
//     (p subPropertyOf Q) in the base (bucket 1) and then in the overlay
//     (2), and under each the member (0, 1) and then the stored (s p o)
//     matching the binding, ascending by o for a bound subject, by s for a
//     bound object, and by (o, s) for neither;
//   - a free predicate: each Q that is the object of a subPropertyOf
//     triple, the base's (0) and then those only the overlay has (1), each
//     walked as a bound predicate.
//
// (s Q o) is emitted at its first place, and only when no member stores it
// (first), which is the deduplication; at is the place of the last one
// emitted, so a cursor holds nothing but that place.
type propWalk struct {
	m              [2]*Store
	sp             uint32
	q              uint32
	boundQ         bool
	s, o           uint32
	boundS, boundO bool
	at             propPlace
	begun          bool // at names an emitted triple
	// subs are the sub-properties of subs.of, as typeWalk's subsumees.
	subs subsumees
}

// propPlace is a property walk's place: sup the super-property's slot (a
// free predicate's), cand the sub-property's, m the member storing the
// triple emitted, and a, b its place in the sub-property's triples — o or s
// when one is bound, o and s when neither is.
type propPlace struct {
	sup, cand slot
	m         uint8
	a, b      uint32
}

// under returns the bucket of p among q's candidates.
func (w *propWalk) under(p, q uint32) (uint8, bool) { return w.subs.rank(w.m, w.sp, p, q) }

// strict reports whether q has a strict sub-property: some p other than q
// with (p subPropertyOf q) in the view.
func (w *propWalk) strict(q uint32) bool {
	for m := range w.m {
		ts := w.m[m].pos.set(w.sp, q)
		if n := ts.len(); n > 1 || n == 1 && ts.elems(0)[0] != q {
			return true
		}
	}
	return false
}

// holds reports whether (s q o) is in the closure though neither member
// stores it: a stored (s p o) has (p subPropertyOf q) in the view.
func (w *propWalk) holds(s, q, o uint32) bool {
	for m := range w.m {
		ps := w.m[m].spo.lead(s)
		for i := 0; i < len(ps.pairs); {
			end := ps.setEnd(i)
			p, ts := ps.pairs[i].mid, ps.span(i, end)
			i = end
			if _, ok := w.under(p, q); ok && p != q && ts.contains(o) {
				return true
			}
		}
	}
	return false
}

// walk emits the binding's unstored closed property triples from after its
// place until emit returns false, and reports whether it reached the end.
func (w *propWalk) walk(emit func(s, q, o uint32) bool) bool {
	if w.boundQ {
		return w.one(w.q, w.begun, emit)
	}
	at, begun := w.at, w.begun
	for qm := uint8(0); qm < 2; qm++ {
		if begun && qm < at.sup.b {
			continue
		}
		ps := w.m[qm].pos.lead(w.sp)
		i := 0
		if from, resume := at.sup.from(begun, qm); resume {
			i, _ = ps.search(from)
		}
		for i < len(ps.pairs) {
			q := ps.pairs[i].mid
			i = ps.setEnd(i)
			if qm == 1 && w.m[0].pos.set(w.sp, q).pairs != nil {
				continue // walked with the base's
			}
			onQ := at.sup.on(begun, qm, q)
			if !onQ {
				w.at = propPlace{}
			}
			w.at.sup = slot{qm, q}
			if !w.one(q, onQ, emit) {
				return false
			}
		}
	}
	return true
}

// one walks q's strict sub-properties' triples. begun says whether the walk
// resumes in q.
func (w *propWalk) one(q uint32, begun bool, emit func(s, q, o uint32) bool) bool {
	at := w.at
	for b := uint8(1); b < 3; b++ {
		if begun && b < at.cand.b {
			continue
		}
		from, resume := at.cand.from(begun, b)
		ok := w.m[b-1].pos.set(w.sp, q).each(from, resume, func(p uint32) bool {
			if p == q {
				return true // a cycle's (q subPropertyOf q)
			}
			onP := at.cand.on(begun, b, p)
			contested := w.contested(q, b, p)
			for m := uint8(0); m < 2; m++ {
				if onP && m < at.m {
					continue
				}
				ok := w.pairs(m, p, onP && m == at.m, at.a, at.b, func(s, o, ka, kb uint32) bool {
					if contested && !w.first(s, o, q, b, p) {
						return true
					}
					w.at.cand, w.at.m, w.at.a, w.at.b, w.begun = slot{b, p}, m, ka, kb, true
					return emit(s, q, o)
				})
				if !ok {
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

// pairs calls f on member m's triples (s p o) matching the binding, in the
// walk's order, after the place (a, b) when resume is set, each with its
// place, until f returns false; it reports whether it reached the end.
func (w *propWalk) pairs(m uint8, p uint32, resume bool, a, b uint32, f func(s, o, a, b uint32) bool) bool {
	st := w.m[m]
	switch {
	case w.boundS && w.boundO:
		if resume || !st.spo.contains(w.s, p, w.o) {
			return true
		}
		return f(w.s, w.o, 0, 0)
	case w.boundS:
		return st.spo.set(w.s, p).after(a, resume, func(o uint32) bool { return f(w.s, o, o, 0) })
	case w.boundO:
		return st.pos.set(p, w.o).after(a, resume, func(s uint32) bool { return f(s, w.o, s, 0) })
	}
	ps := st.pos.lead(p)
	i := 0
	if resume {
		i, _ = ps.search(a)
	}
	for i < len(ps.pairs) {
		end, o := ps.setEnd(i), ps.pairs[i].mid
		ok := ps.span(i, end).after(b, resume && o == a, func(s uint32) bool { return f(s, o, o, s) })
		if !ok {
			return false
		}
		i = end
	}
	return true
}

// contested reports whether a row of candidate p of bucket b under q can be
// stored as (s q o) or reached from a candidate ranking before p: whether q
// or such a candidate stores a triple that can share the row's subject and
// object — for a bound object one of (? u o), for a bound subject one of
// (s u ?), for neither any. It is looked up once per candidate; an
// uncontested candidate's rows are all first, which is the common case of a
// super-property that stores nothing itself, and need no probe.
func (w *propWalk) contested(q uint32, b uint8, p uint32) bool {
	stores := func(u uint32) bool {
		for m := range w.m {
			switch {
			case w.boundO:
				if w.m[m].pos.set(u, w.o).pairs != nil {
					return true
				}
			case w.boundS:
				if w.m[m].spo.set(w.s, u).pairs != nil {
					return true
				}
			case w.m[m].pos.find(u) != nil:
				return true
			}
		}
		return false
	}
	if stores(q) {
		return true
	}
	for bb := uint8(1); bb <= b; bb++ {
		found := false
		w.m[bb-1].pos.set(w.sp, q).each(0, false, func(u uint32) bool {
			if bb == b && u >= p {
				return false
			}
			found = u != q && stores(u)
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// first reports whether (s q o), reached from (s p o) with p a candidate of
// bucket b, is stored by neither member and reached from no candidate
// ranking before p: among s's stored predicates relating it to o, none is q
// or ranks before p.
func (w *propWalk) first(s, o, q uint32, b uint8, p uint32) bool {
	for m := range w.m {
		ps := w.m[m].spo.lead(s)
		for i := 0; i < len(ps.pairs); {
			end := ps.setEnd(i)
			u, ts := ps.pairs[i].mid, ps.span(i, end)
			i = end
			if u == p {
				continue
			}
			if ub, ok := w.under(u, q); ok && (ub < b || ub == b && u < p) && ts.contains(o) {
				return false
			}
		}
	}
	return true
}

// count returns the binding's unstored closed property triples as stored
// statistics summed over each (p subPropertyOf q) edge with p other than q:
// an upper bound, which counts a triple once per sub-property reaching it
// and a stored one too.
func (w *propWalk) count() IDStats {
	var st IDStats
	add := func(p, q uint32) bool {
		if p != q {
			sp := IDPattern{S: w.s, P: p, O: w.o, BoundS: w.boundS, BoundP: true, BoundO: w.boundO}
			for _, x := range w.m {
				s := x.statsID(sp)
				st.Count += s.Count
				st.DistinctS += s.DistinctS
				st.DistinctO += s.DistinctO
			}
		}
		return true
	}
	for m := range w.m {
		if w.boundQ {
			w.m[m].pos.set(w.sp, w.q).each(0, false, func(p uint32) bool { return add(p, w.q) })
			continue
		}
		ps := w.m[m].pos.lead(w.sp)
		for i := 0; i < len(ps.pairs); {
			end, q := ps.setEnd(i), ps.pairs[i].mid
			ps.span(i, end).each(0, false, func(p uint32) bool { return add(p, q) })
			i = end
		}
	}
	return st
}

// closure is a closed view's state: which closures it answers, the ids of
// the vocabulary it reads them by, and the number of their triples that its
// members do not store, so that Len counts what a read returns. Recount
// feeds it every write; it holds its own scratch, so a write costs no
// allocation once the scratch has grown to the write's size.
type closure struct {
	v *View
	// which is the view's Closure, narrowed by Open.
	which atomic.Uint32
	// ids holds each of vocabNames' id plus one, 0 until it is interned.
	ids      [3]atomic.Uint32
	unstored atomic.Int64
	// The scratch of one write: its fresh and its removed triples that a
	// closure reads, sorted; the subjects whose closed triples may have
	// changed; one subject's classes; and one subject's (property, object)
	// pairs with one property's super-properties.
	fresh, rem []IDTriple
	subjects   []uint32
	classes    []uint32
	pairs      [][2]uint32
	sups       []uint32
}

// newClosure counts the view's unstored closed triples: each subject's, the
// base's and then those only the overlay holds.
func newClosure(v *View, which Closure) *closure {
	c := &closure{v: v}
	c.which.Store(uint32(which))
	v.closure = c // for vocab
	vc, ok := v.vocab()
	if !ok {
		return c
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	w := v.typeWalk(vc, IDPattern{})
	n := 0
	for sm := range w.m {
		w.m[sm].spo.ascend(0, func(s uint32, _ trailSet) bool {
			if sm == 0 || w.m[0].spo.find(s) == nil {
				n += c.extra(vc, &w, s, false)
			}
			return true
		})
	}
	c.unstored.Store(int64(n))
	return c
}

// apply is Recount: each subject whose stored triples, or the schema
// triples their closure reads, changed is counted in both states.
func (c *closure) apply(added, removed []IDTriple, fresh int) {
	vc, ok := c.v.vocab()
	if !ok {
		return
	}
	keep := func(dst, src []IDTriple) []IDTriple {
		for _, x := range src {
			if vc.props || x.P == vc.typ || x.P == vc.sub {
				dst = append(dst, x)
			}
		}
		slices.SortFunc(dst, compareIDTriples)
		return dst
	}
	c.fresh, c.rem = keep(c.fresh[:0], added[:fresh]), keep(c.rem[:0], removed)
	c.v.base.mu.RLock()
	defer c.v.base.mu.RUnlock()
	w := c.v.typeWalk(vc, IDPattern{})
	c.subjects = c.subjects[:0]
	// subjectsOf collects the subjects filed under lead in the members' POS:
	// mid's set, or the whole lead's.
	subjectsOf := func(lead, mid uint32, whole bool) {
		for _, st := range w.m {
			ts := st.pos.lead(lead)
			if !whole {
				ts = ts.set(mid)
			}
			for k := range ts.pairs {
				c.subjects = append(c.subjects, ts.elems(k)...)
			}
		}
	}
	for _, list := range [2][]IDTriple{added, removed} {
		for _, x := range list {
			switch {
			case x.P == vc.typ && vc.typing:
				c.subjects = append(c.subjects, x.S)
			case x.P == vc.sub && vc.typing:
				subjectsOf(vc.typ, x.S, false)
			case vc.props:
				c.subjects = append(c.subjects, x.S)
				if x.P == vc.sp {
					subjectsOf(x.S, 0, true)
				}
			}
		}
	}
	slices.Sort(c.subjects)
	d := 0
	for _, s := range slices.Compact(c.subjects) {
		d += c.extra(vc, &w, s, false) - c.extra(vc, &w, s, true)
	}
	c.unstored.Add(int64(d))
	if max(cap(c.subjects), cap(c.fresh), cap(c.rem), cap(c.pairs)) > scratchCap {
		c.fresh, c.rem, c.subjects, c.pairs = nil, nil, nil, nil
	}
}

// scratchCap bounds, in entries, the scratch a closure keeps between
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

// extra counts s's closed triples beyond its stored ones, in the state the
// write left or, with pre, the one before it (see apply). Callers hold the
// view's lock.
func (c *closure) extra(vc vocab, w *typeWalk, s uint32, pre bool) int {
	n := 0
	if vc.typing {
		n += c.typeExtra(w, s, pre)
	}
	if vc.props {
		n += c.propExtra(vc, s, pre)
	}
	return n
}

// was reports whether a triple the view holds now was in it before the
// write (see apply): it is not one of the write's fresh ones.
func (c *closure) was(pre bool, x IDTriple) bool { return !pre || !in(c.fresh, x) }

// typeExtra counts s's closed types beyond its stored ones.
func (c *closure) typeExtra(w *typeWalk, s uint32, pre bool) int {
	if !pre {
		// The common subject, typed once: its superclasses, less itself
		// when a cycle makes it its own.
		t0, t1 := w.types(0, s), w.types(1, s)
		if t0.len()+t1.len() == 1 {
			if len(t0.pairs) == 0 {
				t0 = t1
			}
			u := t0.elems(0)[0]
			n := w.supers(0, u).len() + w.supers(1, u).len()
			if w.isSub(u, u) {
				n--
			}
			return n
		}
	}
	cls := c.classes[:0]
	for m := range w.m {
		w.types(m, s).each(0, false, func(u uint32) bool {
			if c.was(pre, IDTriple{S: s, P: w.typ, O: u}) {
				cls = append(cls, u)
			}
			return true
		})
	}
	if pre {
		cls = c.removedFrom(cls, s, w.typ)
	}
	slices.Sort(cls)
	cls = slices.Compact(cls)
	stored := len(cls)
	for _, u := range cls[:stored] {
		for m := range w.m {
			w.supers(m, u).each(0, false, func(d uint32) bool {
				if c.was(pre, IDTriple{S: u, P: w.sub, O: d}) {
					cls = append(cls, d)
				}
				return true
			})
		}
		if pre {
			cls = c.removedFrom(cls, u, w.sub)
		}
	}
	slices.Sort(cls)
	n := len(slices.Compact(cls)) - stored
	c.classes = cls[:0]
	return n
}

// propExtra counts s's closed property triples beyond its stored ones: the
// distinct (q, o) with a stored (s p o) and (p subPropertyOf q), p other
// than q, whose (s q o) is not stored.
func (c *closure) propExtra(vc vocab, s uint32, pre bool) int {
	m := [2]*Store{c.v.base, c.v.overlay}
	pairs := c.pairs[:0]
	for _, st := range m {
		ps := st.spo.lead(s)
		for i := 0; i < len(ps.pairs); {
			end, p := ps.setEnd(i), ps.pairs[i].mid
			ts := ps.span(i, end)
			i = end
			sups := c.supersOf(vc, p, pre)
			if len(sups) == 0 {
				continue
			}
			ts.each(0, false, func(o uint32) bool {
				if c.was(pre, IDTriple{S: s, P: p, O: o}) {
					for _, q := range sups {
						pairs = append(pairs, [2]uint32{q, o})
					}
				}
				return true
			})
		}
	}
	if pre {
		k, _ := slices.BinarySearchFunc(c.rem, IDTriple{S: s}, compareIDTriples)
		for ; k < len(c.rem) && c.rem[k].S == s; k++ {
			if x := c.rem[k]; !in(c.fresh, x) {
				for _, q := range c.supersOf(vc, x.P, pre) {
					pairs = append(pairs, [2]uint32{q, x.O})
				}
			}
		}
	}
	n := 0
	if len(pairs) > 0 {
		slices.SortFunc(pairs, func(a, b [2]uint32) int {
			if a[0] != b[0] {
				return cmp.Compare(a[0], b[0])
			}
			return cmp.Compare(a[1], b[1])
		})
		for _, qo := range slices.Compact(pairs) {
			x := IDTriple{S: s, P: qo[0], O: qo[1]}
			held := (m[0].spo.contains(x.S, x.P, x.O) || m[1].spo.contains(x.S, x.P, x.O)) && c.was(pre, x)
			if !held && pre {
				held = in(c.rem, x) && !in(c.fresh, x)
			}
			if !held {
				n++
			}
		}
	}
	c.pairs = pairs[:0]
	return n
}

// supersOf returns p's strict super-properties in the state (see extra), in
// the closure's sups scratch, valid until the next call.
func (c *closure) supersOf(vc vocab, p uint32, pre bool) []uint32 {
	sups := c.sups[:0]
	for _, st := range [2]*Store{c.v.base, c.v.overlay} {
		st.spo.set(p, vc.sp).each(0, false, func(q uint32) bool {
			if q != p && c.was(pre, IDTriple{S: p, P: vc.sp, O: q}) {
				sups = append(sups, q)
			}
			return true
		})
	}
	if pre {
		sups = slices.DeleteFunc(c.removedFrom(sups, p, vc.sp), func(q uint32) bool { return q == p })
	}
	c.sups = sups
	return sups
}

// removedFrom appends to cls the objects of the write's removed (s, p, ?)
// triples that were in the view before it: those it did not bring in.
func (c *closure) removedFrom(cls []uint32, s, p uint32) []uint32 {
	i, _ := slices.BinarySearchFunc(c.rem, IDTriple{S: s, P: p}, compareIDTriples)
	for ; i < len(c.rem) && c.rem[i].S == s && c.rem[i].P == p; i++ {
		if !in(c.fresh, c.rem[i]) {
			cls = append(cls, c.rem[i].O)
		}
	}
	return cls
}
