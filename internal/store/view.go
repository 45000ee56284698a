package store

import (
	"fmt"
	"io"
	"unsafe"
)

// This file is the store's materialization surface: shared-dictionary overlay
// stores and the View that unions a base (asserted) store with an overlay of
// inferred triples. The forward-chaining engine in repro/internal/reason
// derives entailed triples into an overlay returned by NewOverlay, so the two
// stores mint ids from one symbol table and the whole derivation runs at the
// dictionary-id level; a View presents their union to the query layer with
// every triple tagged by Provenance.

// Provenance distinguishes how a triple entered a materialized view: asserted
// directly into the base store, or inferred into the overlay by a reasoner.
type Provenance uint8

// Provenance values.
const (
	// ProvAsserted marks a triple present in the base store.
	ProvAsserted Provenance = iota
	// ProvInferred marks a triple present only in the inferred overlay.
	ProvInferred
)

// String names the provenance the way tagged snapshots spell it.
func (p Provenance) String() string {
	if p == ProvInferred {
		return "inferred"
	}
	return "asserted"
}

// NewOverlay returns a fresh empty store sharing s's symbol table, and its
// lock and generation: an id minted by either store resolves to the same name
// in both, so id-level triples and patterns can move between them without
// re-encoding, and one write section (Write) covers both. The overlay is an
// ordinary Store in every other respect — same indexes, same iterators — but
// it keeps no digest (digest.go), and package reason uses one to hold
// inferred triples apart from the asserted base.
func (s *Store) NewOverlay() *Store {
	return &Store{syms: s.syms, mu: s.mu, overlay: true}
}

// Intern interns a name into the store's dictionary and returns its id,
// minting a fresh id on first sight. Unlike SymbolID it never fails on an
// unseen name; it exists so a rule compiler can resolve head literals that no
// asserted triple mentions yet. Interning alone adds no triple. The empty
// string is rejected: no valid triple component is empty, so an empty name
// could never be matched or stored.
func (s *Store) Intern(name string) (SymbolID, error) {
	if name == "" {
		return 0, fmt.Errorf("store: cannot intern an empty name")
	}
	if id, ok := s.syms.lookup(name); ok {
		return id, nil
	}
	s.syms.mu.Lock()
	defer s.syms.mu.Unlock()
	before := s.syms.names.n
	id := s.syms.internLocked(name)
	s.syms.journalGrowthLocked(before)
	return id, nil
}

// InternBytes is Intern for the name spelled by b. The dictionary copies the
// names it mints into its own pages and b is not retained, so a reader can
// file the names of a buffer it reuses without making a string of each.
func (s *Store) InternBytes(b []byte) (SymbolID, error) {
	return s.Intern(unsafe.String(unsafe.SliceData(b), len(b)))
}

// validID reports whether every component id has actually been minted by the
// store's dictionary.
func (s *Store) validID(t IDTriple) bool {
	n := SymbolID(s.syms.snapshot().n)
	return t.S < n && t.P < n && t.O < n
}

// View is the read-only union of a base store (asserted triples) and an
// overlay store (inferred triples) sharing one dictionary. It satisfies the
// query layer's Source interface, so BGPs evaluate over the materialized
// union exactly as over a single store.
//
// There is one kind of view, and it rests on one contract: the caller keeps
// the members disjoint — no triple in both — which is the invariant package
// reason maintains (inferred triples are exactly the derivable non-asserted
// ones). Under it every read is the base's answer followed by the overlay's
// with no per-triple duplicate probe, and every count is the sum of the
// members' own counters. A writer that moves a triple between the members
// does so inside one write section, so no reader sees the contract broken.
// A view may also be closed (Close, closed.go): it then answers the
// instance types its subClassOf closure entails and the property triples its
// subPropertyOf closure entails beside the ones its members store.
//
// The members share one lock (NewOverlay), and a View read takes it once:
// each probe batch (QueryIDBatch), each cursor refill (Scan), each Contains,
// Provenance and ForEachSubject sees both members in one state, the state
// before a write section or after it. A read that spans refills may see
// several states; Store.Generation brackets it.
type View struct {
	base    *Store
	overlay *Store
	// closure is set by Close, and marks a closed view (closed.go).
	closure *closure
}

// NewView returns the union view of base and overlay. The overlay must share
// the base's dictionary and lock (see NewOverlay) — ids from one would be
// meaningless in the other otherwise, and a read could not see both in one
// state — and the caller promises to keep them disjoint (see View).
func NewView(base, overlay *Store) (*View, error) {
	if base == nil || overlay == nil {
		return nil, fmt.Errorf("store: NewView needs both a base and an overlay store")
	}
	if base.mu != overlay.mu {
		return nil, fmt.Errorf("store: view members do not share a lock and a dictionary; create the overlay with NewOverlay")
	}
	return &View{base: base, overlay: overlay}, nil
}

// Base returns the asserted member of the view.
func (v *View) Base() *Store { return v.base }

// Overlay returns the inferred member of the view.
func (v *View) Overlay() *Store { return v.overlay }

// Len returns the number of triples visible through the view: the O(1) sum
// of the members' counters, and of the closed triples they do not store.
func (v *View) Len() int {
	return v.base.Len() + v.overlay.Len() + v.unstored()
}

// SymbolID returns the dictionary id of a name (the dictionary is shared, so
// it answers for both members).
func (v *View) SymbolID(name string) (SymbolID, bool) {
	return v.base.SymbolID(name)
}

// NewResolver returns a resolver over the shared dictionary.
func (v *View) NewResolver() Resolver {
	return v.base.NewResolver()
}

// Contains reports whether the triple is visible through the view.
func (v *View) Contains(t Triple) bool {
	_, ok := v.Provenance(t)
	return ok
}

// Provenance reports how the triple entered the view: ProvAsserted when it is
// in the base store, ProvInferred when it is in the overlay; ok is false when
// the view does not contain it.
func (v *View) Provenance(t Triple) (Provenance, bool) {
	e, ok := v.base.syms.lookupTriple(t)
	if !ok {
		return ProvAsserted, false
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	switch {
	case v.base.spo.contains(e.S, e.P, e.O):
		return ProvAsserted, true
	case v.overlay.spo.contains(e.S, e.P, e.O), v.closedHolds(e.S, e.P, e.O):
		return ProvInferred, true
	}
	return ProvAsserted, false
}

// ForEachSubject streams the distinct subjects of the view's triples with the
// given predicate and object to yield, the base's first, stopping early when
// yield returns false. Both members are read under one read-lock, so the
// subjects are those of one state of the view. The order is unspecified and
// nothing is allocated per subject. yield runs under the lock, with the
// QueryIDBatch rule: it must not write to the view, nor read it again. It is
// the one string-level streaming read kept beside QueryIDFunc: resolving
// inside the set walk is what reason.Reasoner.InstancesFunc's class retrieval
// is measured on.
func (v *View) ForEachSubject(predicate, object string, yield func(string) bool) {
	pid, ok := v.base.syms.lookup(predicate)
	if !ok {
		return
	}
	oid, ok := v.base.syms.lookup(object)
	if !ok {
		return
	}
	res := newResolver(v.base.syms)
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	if !v.closedSubjects(pid, oid, res, yield) {
		v.storedSubjects(pid, oid, res, yield)
	}
}

// storedSubjects is ForEachSubject over the members' triples alone,
// reporting false when yield stopped it. Callers hold the lock.
func (v *View) storedSubjects(pid, oid uint32, res resolver, yield func(string) bool) bool {
	for _, s := range [2]*Store{v.base, v.overlay} {
		for _, ch := range set(&s.pos, pid, oid) {
			for _, sid := range ch.elems() {
				if !yield(res.name(sid)) {
					return false
				}
			}
		}
	}
	return true
}

// Held returns the view's reads for a caller inside a write section. It is
// the view itself under another type, so handing it around allocates nothing.
func (v *View) Held() *Held { return (*Held)(v) }

// Held reads a View from inside a write section (Store.Write) on its members:
// it takes no lock, since the section holds it. It satisfies the operator
// runtime's Source (package repro/internal/query/exec), so a writer can lower
// a pipeline over the view it is changing, and it answers membership.
// Outside a section, read through the View.
type Held View

// Scan is View.Scan for a caller inside a write section.
func (h *Held) Scan(p IDPattern) *ScanPart {
	pt := (*View)(h).scanStored(p)
	pt.held = true
	return pt
}

// QueryIDBatch is View.QueryIDBatch for a caller inside a write section.
func (h *Held) QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool) {
	(*View)(h).queryIDBatch(ps, yield)
}

// Contains reports whether the id triple is in the base (asserted) and
// whether it is in the overlay (inferred). Ids the dictionary never minted
// simply match nothing.
func (h *Held) Contains(t IDTriple) (asserted, inferred bool) {
	return h.base.spo.contains(t.S, t.P, t.O), h.overlay.spo.contains(t.S, t.P, t.O)
}

// QueryIDFunc streams every triple of the union matching the id pattern to
// yield, stopping early when yield returns false: first the base's matches,
// then the overlay's. Like Store.QueryIDFunc it is QueryIDBatch with a batch
// of one; the enumeration order is unspecified, nothing is allocated, and the
// same no-writes-from-yield rule applies.
func (v *View) QueryIDFunc(p IDPattern, yield func(IDTriple) bool) {
	v.QueryIDBatch([]IDPattern{p}, func(_ int, t IDTriple) bool { return yield(t) })
}

// StatsID returns cardinality statistics for the id pattern over the union,
// both members read under one read-lock. Count is exact — the sum of the
// members' counts — and the distinct widths are the sums of the two members'
// widths, an upper bound when a value occurs on both sides, which is accurate
// enough for the planner's selectivity ordering.
func (v *View) StatsID(p IDPattern) IDStats {
	if st, ok := v.closedStats(p); ok {
		return st
	}
	v.base.mu.RLock()
	defer v.base.mu.RUnlock()
	return v.storedStats(p)
}

// storedStats is StatsID over the members' triples alone: the sums of their
// statistics. Callers hold the lock.
func (v *View) storedStats(p IDPattern) IDStats {
	bs, os := v.base.statsID(p), v.overlay.statsID(p)
	return IDStats{
		Count:     bs.Count + os.Count,
		DistinctS: bs.DistinctS + os.DistinctS,
		DistinctP: bs.DistinctP + os.DistinctP,
		DistinctO: bs.DistinctO + os.DistinctO,
	}
}

// Query returns all union triples matching the pattern, sorted
// lexicographically — the same deterministic ordering contract as
// Store.Query.
func (v *View) Query(p Pattern) []Triple {
	ip, ok := v.base.encodePattern(p)
	if !ok {
		return nil
	}
	return sortedMatches(v.Scan(ip), v.base.syms, nil)
}

// Triples returns every triple visible through the view in the store's
// canonical sorted export order.
func (v *View) Triples() []Triple {
	return sortedMatches(v.Scan(IDPattern{}), v.base.syms, make([]Triple, 0, v.Len()))
}

// TaggedTriple is one triple of a materialized view together with its
// provenance; it is the record type of provenance-tagged snapshots.
type TaggedTriple struct {
	Subject    string
	Predicate  string
	Object     string
	Provenance string
}

// SnapshotProvenance writes every triple of the view to w, one JSON object per
// line in the canonical sorted order of Triples, each tagged "asserted" or
// "inferred" — the provenance-preserving export. Two views holding the same
// tagged triples produce byte-identical output. It returns the number of
// triples written.
func (v *View) SnapshotProvenance(w io.Writer) (int, error) {
	return writeSnapshot(w, v.Triples(), v)
}

// Snapshot writes every triple of the view to w in the plain snapshot format
// of Store.Snapshot (no provenance tags), so a materialized union can be
// re-read by Restore like any store snapshot. It returns the number of
// triples written.
func (v *View) Snapshot(w io.Writer) (int, error) {
	return writeSnapshot(w, v.Triples(), nil)
}
