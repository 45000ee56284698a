package store

import (
	"bufio"
	"encoding/json"
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
	sh := s.spo.shard(t.S)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.containsLocked(t.S, t.P, t.O)
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
// union exactly as over a single store; every read de-duplicates triples
// present in both members, so callers see each triple once even if an
// overlay briefly shadows an asserted triple.
//
// A View holds no locks of its own: each probe reads the two stores under
// their own shard read-locks, so, like Store's iterators, a result set is
// only guaranteed consistent against quiescent members.
type View struct {
	base    *Store
	overlay *Store
	// disjoint records the NewDisjointView promise that no triple is in
	// both members: counts become plain sums and reads skip the per-triple
	// duplicate probe.
	disjoint bool
}

// NewView returns the union view of base and overlay. The two stores must
// share a dictionary (see NewOverlay); ids from one would be meaningless in
// the other otherwise. NewView makes no disjointness assumption: every read
// de-duplicates against the base, and counting scans the overlay's matches.
// When the caller maintains base∩overlay = ∅, NewDisjointView is the faster
// form.
func NewView(base, overlay *Store) (*View, error) {
	if base == nil || overlay == nil {
		return nil, fmt.Errorf("store: NewView needs both a base and an overlay store")
	}
	if !base.SharesDictionary(overlay) {
		return nil, fmt.Errorf("store: view members do not share a dictionary; create the overlay with NewOverlay")
	}
	return &View{base: base, overlay: overlay}, nil
}

// NewDisjointView is NewView under the caller's promise that no triple is
// ever in both members — the invariant package reason maintains (inferred
// triples are exactly the derivable non-asserted ones). The promise buys the
// fast paths the union cannot have in general: Len and CountID are O(1)-over
// the members' own counters instead of overlay scans, and the iterators skip
// the per-triple duplicate probe. If the promise is transiently violated
// (e.g. mid-maintenance, between a base insert and the matching overlay
// retirement), reads overlapping that window may see the affected triple
// twice and counts may double-count it; quiescent views are exact.
func NewDisjointView(base, overlay *Store) (*View, error) {
	v, err := NewView(base, overlay)
	if err != nil {
		return nil, err
	}
	v.disjoint = true
	return v, nil
}

// Base returns the asserted member of the view.
func (v *View) Base() *Store { return v.base }

// Overlay returns the inferred member of the view.
func (v *View) Overlay() *Store { return v.overlay }

// Len returns the number of distinct triples visible through the view. For
// a disjoint view (NewDisjointView) it is the O(1) sum of the members'
// counters; otherwise triples present in both members are counted once, at
// the cost of scanning the overlay.
func (v *View) Len() int {
	n := v.base.Len() + v.overlay.Len()
	if v.disjoint {
		return n
	}
	v.overlay.QueryIDFunc(IDPattern{}, func(t IDTriple) bool {
		if v.base.ContainsID(t) {
			n--
		}
		return true
	})
	return n
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
// in the base store (even if an overlay copy shadows it), ProvInferred when it
// is only in the overlay; ok is false when the view does not contain it.
func (v *View) Provenance(t Triple) (Provenance, bool) {
	if v.base.Contains(t) {
		return ProvAsserted, true
	}
	if v.overlay.Contains(t) {
		return ProvInferred, true
	}
	return ProvAsserted, false
}

// QueryIDFunc streams every distinct triple of the union matching the id
// pattern to yield, stopping early when yield returns false: first the base's
// matches, then the overlay's, skipping overlay triples also present in the
// base. The enumeration order is unspecified and allocation per triple is
// zero; the same no-writes-from-yield rule as Store.QueryIDFunc applies.
func (v *View) QueryIDFunc(p IDPattern, yield func(IDTriple) bool) {
	stopped := false
	v.base.QueryIDFunc(p, func(t IDTriple) bool {
		if !yield(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	v.overlay.QueryIDFunc(p, func(t IDTriple) bool {
		if !v.disjoint && v.base.ContainsID(t) {
			return true
		}
		return yield(t)
	})
}

// CountID returns the number of distinct union triples matching the id
// pattern. Like View.Len it is a plain sum of the members' index counters
// for a disjoint view — cheap enough for the query planner to call once per
// pattern per query — and subtracts duplicates by scanning the overlay's
// matches otherwise.
func (v *View) CountID(p IDPattern) int {
	n := v.base.CountID(p) + v.overlay.CountID(p)
	if v.disjoint {
		return n
	}
	v.overlay.QueryIDFunc(p, func(t IDTriple) bool {
		if v.base.ContainsID(t) {
			n--
		}
		return true
	})
	return n
}

// StatsID returns cardinality statistics for the id pattern over the union.
// Counts are exact for a disjoint view and subtract overlay duplicates
// otherwise; the distinct widths are the sums of the two members' widths —
// an upper bound when a value occurs on both sides — which is accurate
// enough for the planner's selectivity ordering.
func (v *View) StatsID(p IDPattern) IDStats {
	bs, os := v.base.StatsID(p), v.overlay.StatsID(p)
	count := bs.Count + os.Count
	if !v.disjoint {
		v.overlay.QueryIDFunc(p, func(t IDTriple) bool {
			if v.base.ContainsID(t) {
				count--
			}
			return true
		})
	}
	return IDStats{
		Count:     count,
		DistinctS: bs.DistinctS + os.DistinctS,
		DistinctP: bs.DistinctP + os.DistinctP,
		DistinctO: bs.DistinctO + os.DistinctO,
	}
}

// Query returns all distinct union triples matching the pattern, sorted
// lexicographically — the same deterministic ordering contract as
// Store.Query.
func (v *View) Query(p Pattern) []Triple {
	ip, ok := v.base.encodePattern(p)
	if !ok {
		return nil
	}
	return sortedMatches(v, v.base.syms, ip, nil)
}

// Triples returns every distinct triple visible through the view in the
// store's canonical sorted export order.
func (v *View) Triples() []Triple {
	return sortedMatches(v, v.base.syms, IDPattern{}, make([]Triple, 0, v.base.Len()+v.overlay.Len()))
}

// TaggedTriple is one triple of a materialized view together with its
// provenance; it is the record type of provenance-tagged snapshots.
type TaggedTriple struct {
	Subject    string
	Predicate  string
	Object     string
	Provenance string
}

// SnapshotProvenance writes every distinct triple of the view to w, one JSON
// object per line in the canonical sorted order of Triples, each tagged
// "asserted" or "inferred" — the provenance-preserving export. Two views
// holding the same tagged triples produce byte-identical output. It returns
// the number of triples written.
func (v *View) SnapshotProvenance(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	triples := v.Triples()
	for _, t := range triples {
		prov := ProvInferred
		if v.base.Contains(t) {
			prov = ProvAsserted
		}
		if err := enc.Encode(TaggedTriple{t.Subject, t.Predicate, t.Object, prov.String()}); err != nil {
			return 0, fmt.Errorf("store: encoding tagged snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("store: flushing tagged snapshot: %w", err)
	}
	return len(triples), nil
}

// Snapshot writes every distinct triple of the view to w in the plain
// snapshot format of Store.Snapshot (no provenance tags), so a materialized
// union can be re-read by Restore like any store snapshot. It returns the
// number of triples written.
func (v *View) Snapshot(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	triples := v.Triples()
	for _, t := range triples {
		if err := enc.Encode(t); err != nil {
			return 0, fmt.Errorf("store: encoding view snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("store: flushing view snapshot: %w", err)
	}
	return len(triples), nil
}
