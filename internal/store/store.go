// Package store implements the database-shaped substrate for the paper's §4
// pragmatic argument: an in-memory triple store with subject/predicate/object
// indexes, pattern queries, ontology-aware query expansion over a
// description-logic TBox, and the precision/recall accounting used to measure
// whether a normative ontonomy helps or hinders retrieval as the usage of a
// domain drifts away from it (experiment E5).
//
// The engine is dictionary-encoded. Every subject, predicate and object
// string is interned into a uint32 id by a symbol table, and the two
// permutation indexes, SPO and POS, hold ids under one RWMutex, which a store
// shares with its overlays. Seven of the eight bound shapes of a pattern land
// on one lead of one index; the eighth, object-only (? ? o), fans out over
// POS at O(predicates) finds plus the matches (see index.go for why no third
// rotation is stored). Ingest has a batch path (AddBatch) that interns the
// whole batch under one symbol-table lock and files it in one write section,
// and reads have an allocation-free iterator form (QueryIDFunc,
// View.ForEachSubject) alongside the materializing Query.
//
// Ordering: every materializing read (Query, Triples) returns its result in
// sorted lexicographic order, so results depend only on the store's contents
// — never on ingest order or on the ids the names happened to get. The
// streaming forms (QueryIDFunc, View.ForEachSubject, the hooks of scan.go)
// trade that order for zero allocation and enumerate in an unspecified one,
// which is still a function of the contents alone: leads ascending by id,
// pairs by middle id within a lead and members ascending within a set. Those
// ascents are facts of the layout the cursors resume by, not a sort order
// callers may rely on.
//
// Reads: a pattern is enumerated in two places and counted in one. The
// callback walk behind QueryIDBatch (QueryIDFunc is a batch of one) and the
// resumable ScanPart cursor, both in scan.go, are the enumerations; StatsID
// (ids.go) is the cardinality dispatch, and Count is its count. A View
// (view.go) is the union of a base and an overlay sharing one dictionary and
// one lock, under one contract — the caller keeps the two disjoint — so a
// view read is the base's answer followed by the overlay's and a view count
// is a sum.
//
// Joins, variables and ontology-aware expansion live one layer up, in
// package repro/internal/query, which evaluates basic graph patterns over
// the id-level hooks in ids.go and scan.go.
//
// Consistency: all methods are safe for concurrent use. A store and its
// overlays share one RWMutex and one generation. A write holds it for one
// write section (Write) — Add, AddBatch and Remove are one each, a reasoner's
// write to both members is one — so a reader sees all of a write or none of
// it, across both members of a View. A read holds it once for one probe
// batch (QueryIDBatch), one cursor refill (ScanPart.NextBatch) or one
// Contains, StatsID or View.ForEachSubject, so a cursor that spans refills
// may see a section run between two of them (see ScanPart, and Generation for
// the bracket that detects it). The materializing reads (Query, Triples, the
// snapshots) drain a cursor, so none holds the lock for longer than a refill.
// Lock order is store, symbol table, journal, and the lock is not reentrant:
// a callback run under it must not read the view again, and a section reads
// through View.Held.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Triple is one (subject, predicate, object) fact.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the triple.
func (t Triple) String() string {
	return fmt.Sprintf("(%s %s %s)", t.Subject, t.Predicate, t.Object)
}

// valid reports whether all three components are non-empty.
func (t Triple) valid() bool {
	return t.Subject != "" && t.Predicate != "" && t.Object != ""
}

// less orders triples lexicographically by subject, predicate, object.
func (t Triple) less(u Triple) bool {
	if t.Subject != u.Subject {
		return t.Subject < u.Subject
	}
	if t.Predicate != u.Predicate {
		return t.Predicate < u.Predicate
	}
	return t.Object < u.Object
}

// Pattern is a triple pattern: empty components are wildcards.
type Pattern struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders the pattern with ? for wildcards.
func (p Pattern) String() string {
	part := func(s string) string {
		if s == "" {
			return "?"
		}
		return s
	}
	return fmt.Sprintf("(%s %s %s)", part(p.Subject), part(p.Predicate), part(p.Object))
}

// Matches reports whether the triple matches the pattern.
func (p Pattern) Matches(t Triple) bool {
	return (p.Subject == "" || p.Subject == t.Subject) &&
		(p.Predicate == "" || p.Predicate == t.Predicate) &&
		(p.Object == "" || p.Object == t.Object)
}

// Store is an in-memory indexed triple store. The zero value is not ready to
// use; call New. All methods are safe for concurrent use; see the package
// documentation for the exact visibility guarantees of batch ingest.
type Store struct {
	syms *symtab
	size atomic.Int64
	// mu guards both indexes, and is shared with every overlay (NewOverlay):
	// readers hold it for one probe batch or one cursor refill, writers for
	// one write section (Write).
	mu  *viewLock
	spo index // subjects leading
	pos index // predicates leading
	// digest is the multiset hash of the triples (digest.go), kept under the
	// write lock by every write and computed afresh by a bulk load; an
	// overlay keeps none.
	digest  Digest
	overlay bool
	// journal, when non-nil, receives this store's triple mutations and
	// gates their acknowledgment on durability; see SetJournal. Overlays
	// never inherit it. Held as an atomic pointer so a detach at engine
	// close is safe against in-flight mutations; each write handle loads it
	// once (Begin).
	journal atomic.Pointer[Journal]
}

// viewLock is the lock a store shares with its overlays, and the generation
// it guards.
type viewLock struct {
	sync.RWMutex
	// gen counts the write sections that reported a change; it is advanced
	// only under the write lock, so it may be loaded without it.
	gen atomic.Uint64
	// journal, store, adds and removes are what the section under way
	// changed through a journaled write handle, in the order it did: the
	// record the section stages when it ends (Tx.note, stage). Guarded by
	// the write lock.
	journal       Journal
	store         *Store
	adds, removes []IDTriple
}

// New returns an empty store.
func New() *Store {
	return &Store{syms: newSymtab(), mu: new(viewLock)}
}

// Write runs fn as one write section, under the write lock s shares with its
// overlays: a reader of s or of a View over it sees the state before the
// section or after it. When fn reports a change, the generation advances
// before the unlock; Write returns the generation after the section. fn calls
// Tx methods and reads through View.Held; a method that locks would deadlock.
// Store's own Add, AddBatch and Remove report no change: a generation names
// a reasoner's write (package reason), and a load before Materialize none.
// When a journaled write handle changed its store in the section, the section
// ends by staging the handle's changes with the journal as one record,
// stamped with the Position the section left, so the log holds the records
// in section order; the handle's Commit waits for it.
func (s *Store) Write(fn func() bool) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.mu.gen.Load()
	if fn() {
		gen = s.mu.gen.Add(1)
	}
	if s.mu.journal != nil {
		s.mu.stage(gen)
	}
	return gen
}

// Position returns the generation and the digest of s as of the last write
// section, read together. On an overlay the digest is zero.
func (s *Store) Position() Position {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Position{Gen: s.mu.gen.Load(), Digest: s.digest}
}

// Generation returns the number of write sections on s and its overlays that
// reported a change. Two equal readings bracket a span in which no such
// section completed.
func (s *Store) Generation() uint64 { return s.mu.gen.Load() }

// Add inserts a triple, reporting whether it was newly inserted. Triples with
// an empty component are rejected with an error. It is a write handle used
// once (see Tx): with a journal attached, a newly inserted triple is
// committed before Add returns, and a commit failure is returned wrapping
// ErrJournal (the triple is applied in memory).
func (s *Store) Add(t Triple) (added bool, err error) {
	tx := s.Begin()
	s.Write(func() bool {
		added, err = tx.Add(t)
		return false
	})
	if err != nil {
		return false, err
	}
	return added, tx.Commit()
}

// MustAdd is Add panicking on error, for statically known data in tests and
// examples.
func (s *Store) MustAdd(t Triple) {
	if _, err := s.Add(t); err != nil {
		panic(err)
	}
}

// AddBatch inserts a batch of triples, returning how many were newly
// inserted (duplicates, within the batch or against the store, are counted
// once). Validation is all-or-nothing: a failed AddBatch inserted nothing, so
// there are no partial counts to misread. It is Tx.AddBatch on a write handle
// used once: with a journal attached the batch is committed before AddBatch
// returns, and a commit failure is returned wrapping ErrJournal — the batch
// is applied in memory but not durable.
func (s *Store) AddBatch(ts []Triple) (int, error) {
	tx := s.Begin()
	var fresh []IDTriple
	var err error
	s.Write(func() bool {
		fresh, err = tx.AddBatch(ts)
		return false
	})
	if err != nil {
		return 0, err
	}
	return len(fresh), tx.Commit()
}

// Remove deletes a triple, reporting whether it was present. With a journal
// attached the removal is committed before Remove returns; the signature has
// no error slot, so a failed commit is only observable through the journal's
// own sticky-error reporting (the removal stays applied in memory either
// way). A caller that must see the error removes through a Tx.
func (s *Store) Remove(t Triple) (removed bool) {
	tx := s.Begin()
	s.Write(func() bool {
		removed = tx.Remove(t)
		return false
	})
	_ = tx.Commit() // sticky in the journal; no error slot here
	return removed
}

// Len returns the number of triples in this store. A Store only ever counts
// what was explicitly added to it: when a reasoner (repro/internal/reason)
// materializes entailments, the inferred triples live in a separate overlay
// store, so Len on the asserted base excludes them. Use View.Len for the
// asserted-plus-inferred total of a materialized view.
func (s *Store) Len() int {
	return int(s.size.Load())
}

// Contains reports whether the triple is present.
func (s *Store) Contains(t Triple) bool {
	e, ok := s.syms.lookupTriple(t)
	if !ok {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spo.contains(e.S, e.P, e.O)
}

// drainBatch is how many triples sortedMatches moves per cursor refill.
const drainBatch = 1024

// sortedMatches appends the matches of the cursor pt to out, resolved through
// syms, and sorts the result into the canonical (subject, predicate, object)
// order. It drains the cursor one refill at a time and releases it, so a walk
// over the whole store holds the lock for no longer than one refill.
func sortedMatches(pt *ScanPart, syms *symtab, out []Triple) []Triple {
	res := newResolver(syms)
	var buf [drainBatch]IDTriple
	for done := false; !done; {
		var n int
		n, done = pt.NextBatch(buf[:])
		for _, t := range buf[:n] {
			out = append(out, Triple{res.name(t.S), res.name(t.P), res.name(t.O)})
		}
	}
	pt.Release()
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Query returns all triples matching the pattern, sorted lexicographically by
// subject, then predicate, then object. That ordering is a contract: two
// stores holding the same triples return identical slices for the same
// pattern, whatever order the triples were ingested in. The most selective permutation index available for the
// pattern's bound components is used, so fully or partially bound queries
// never scan the whole store. Use QueryIDFunc to stream matches without
// materializing, resolving and sorting the result.
func (s *Store) Query(p Pattern) []Triple {
	ip, ok := s.encodePattern(p)
	if !ok {
		return nil
	}
	return sortedMatches(s.Scan(ip), s.syms, nil)
}

// Triples returns every triple in the store, sorted lexicographically by
// subject, then predicate, then object — the store's canonical export order.
// Like Query, the result depends only on the store's contents, never on
// ingest order or id assignment; Snapshot is defined in terms of it.
func (s *Store) Triples() []Triple {
	return sortedMatches(s.Scan(IDPattern{}), s.syms, make([]Triple, 0, s.Len()))
}

// Count returns the number of triples matching the pattern. It runs entirely
// on the dictionary-encoded indexes — no triple is materialized and no symbol
// is resolved back to a string. Like Len, it counts this store's own triples
// only: inferred triples held in a reasoner's overlay are not included unless
// counted through the overlay or a View (View.StatsID is the union form).
func (s *Store) Count(p Pattern) int {
	ip, ok := s.encodePattern(p)
	if !ok {
		return 0
	}
	return s.StatsID(ip).Count
}
