package store

import (
	"fmt"
	"io"
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

// NewOverlay returns a fresh empty store sharing s's symbol table: an id
// minted by either store resolves to the same name in both, so id-level
// triples and patterns can move between them without re-encoding. The overlay
// is an ordinary Store in every other respect — same indexes, same locking,
// same iterators — and package reason uses one to hold inferred triples apart
// from the asserted base.
func (s *Store) NewOverlay() *Store {
	return &Store{syms: s.syms}
}

// SharesDictionary reports whether o interns through the same symbol table as
// s (i.e. o was created by NewOverlay on s or on a store sharing s's
// dictionary), which is what makes their SymbolIDs interchangeable.
func (s *Store) SharesDictionary(o *Store) bool {
	return o != nil && s.syms == o.syms
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
	before := len(s.syms.names)
	id := s.syms.internLocked(name)
	s.syms.journalGrowthLocked(before)
	return id, nil
}

// ContainsID reports whether the id triple is present. It is the id-level
// twin of Contains: three ids that were never interned simply match nothing.
func (s *Store) ContainsID(t IDTriple) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spo.contains(t.S, t.P, t.O)
}

// validID reports whether every component id has actually been minted by the
// store's dictionary.
func (s *Store) validID(t IDTriple) bool {
	n := SymbolID(len(s.syms.snapshot()))
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
// members' own counters. If the contract is transiently violated (mid-
// maintenance, between a base insert and the matching overlay retirement),
// reads overlapping that window may see the affected triple twice and counts
// may double-count it; quiescent views are exact.
//
// A View holds no locks of its own: each probe reads the two stores under
// their own read-locks, one after the other, so, like Store's iterators, a
// result set is only guaranteed consistent against quiescent members.
type View struct {
	base    *Store
	overlay *Store
}

// NewView returns the union view of base and overlay. The two stores must
// share a dictionary (see NewOverlay) — ids from one would be meaningless in
// the other otherwise — and the caller promises to keep them disjoint (see
// View).
func NewView(base, overlay *Store) (*View, error) {
	if base == nil || overlay == nil {
		return nil, fmt.Errorf("store: NewView needs both a base and an overlay store")
	}
	if !base.SharesDictionary(overlay) {
		return nil, fmt.Errorf("store: view members do not share a dictionary; create the overlay with NewOverlay")
	}
	return &View{base: base, overlay: overlay}, nil
}

// Base returns the asserted member of the view.
func (v *View) Base() *Store { return v.base }

// Overlay returns the inferred member of the view.
func (v *View) Overlay() *Store { return v.overlay }

// Len returns the number of triples visible through the view: the O(1) sum
// of the members' counters.
func (v *View) Len() int {
	return v.base.Len() + v.overlay.Len()
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
	return v.base.Contains(t) || v.overlay.Contains(t)
}

// Provenance reports how the triple entered the view: ProvAsserted when it is
// in the base store, ProvInferred when it is in the overlay; ok is false when
// the view does not contain it.
func (v *View) Provenance(t Triple) (Provenance, bool) {
	if v.base.Contains(t) {
		return ProvAsserted, true
	}
	if v.overlay.Contains(t) {
		return ProvInferred, true
	}
	return ProvAsserted, false
}

// QueryIDFunc streams every triple of the union matching the id pattern to
// yield, stopping early when yield returns false: first the base's matches,
// then the overlay's. Like Store.QueryIDFunc it is QueryIDBatch with a batch
// of one; the enumeration order is unspecified, nothing is allocated, and the
// same no-writes-from-yield rule applies.
func (v *View) QueryIDFunc(p IDPattern, yield func(IDTriple) bool) {
	v.QueryIDBatch([]IDPattern{p}, func(_ int, t IDTriple) bool { return yield(t) })
}

// StatsID returns cardinality statistics for the id pattern over the union.
// Count is exact — the sum of the members' counts — and the distinct widths
// are the sums of the two members' widths, an upper bound when a value occurs
// on both sides, which is accurate enough for the planner's selectivity
// ordering.
func (v *View) StatsID(p IDPattern) IDStats {
	bs, os := v.base.StatsID(p), v.overlay.StatsID(p)
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
	return sortedMatches(v.ScanParts(ip), v.base.syms, nil)
}

// Triples returns every triple visible through the view in the store's
// canonical sorted export order.
func (v *View) Triples() []Triple {
	return sortedMatches(v.ScanParts(IDPattern{}), v.base.syms, make([]Triple, 0, v.Len()))
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
