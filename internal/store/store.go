// Package store implements the database-shaped substrate for the paper's §4
// pragmatic argument: an in-memory triple store with subject/predicate/object
// indexes, pattern queries, ontology-aware query expansion over a
// description-logic TBox, and the precision/recall accounting used to measure
// whether a normative ontonomy helps or hinders retrieval as the usage of a
// domain drifts away from it (experiment E5).
//
// The engine is dictionary-encoded. Every subject, predicate and object
// string is interned into a uint32 id by a symbol table, and the two
// permutation indexes, SPO and POS, hold ids under the store's one RWMutex. Seven of the eight bound shapes of a pattern land on one lead of
// one index; the eighth, object-only (? ? o), fans out over POS at
// O(predicates) finds plus the matches (see index.go for why no third
// rotation is stored). Ingest has a batch path (AddBatch) that interns the
// whole batch under one symbol-table lock and files it under one write lock,
// and reads have an allocation-free iterator form (QueryIDFunc,
// ForEachSubject) alongside the materializing Query.
//
// Ordering: every materializing read (Query, Triples) returns its result in
// sorted lexicographic order, so results depend only on the store's contents
// — never on ingest order or on the ids the names happened to get. The
// streaming forms (QueryIDFunc, ForEachSubject, the batched hooks of scan.go)
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
// (view.go) is the union of a base and an overlay sharing one dictionary,
// under one contract — the caller keeps the two disjoint — so a view read is
// the base's answer followed by the overlay's and a view count is a sum.
//
// Joins, variables and ontology-aware expansion live one layer up, in
// package repro/internal/query, which evaluates basic graph patterns over
// the id-level hooks in ids.go and scan.go.
//
// Consistency: all methods are safe for concurrent use. Each store has one
// RWMutex over both indexes. A write holds it for one triple (Add, Remove) or
// one whole batch (AddBatch, Tx.RemoveIDs, LoadSorted), so a batch is atomic
// to readers: a reader sees all of it or none of it, and a triple is never
// observable in one permutation but not the other. A read holds it for one
// probe batch (QueryIDBatch) or one cursor refill (ScanPart.NextBatch), so a
// cursor that spans refills may see a batch written between two of them —
// see ScanPart for what it guarantees then. The materializing reads (Query,
// Triples, the snapshots) drain a cursor, so none holds the lock for longer
// than a refill; a callback walk of an unbound pattern holds it throughout.
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
	// mu guards both indexes: readers hold it for one probe batch or one
	// cursor refill, write handles for one triple or one batch.
	mu  sync.RWMutex
	spo index // subjects leading
	pos index // predicates leading
	// journal, when non-nil, receives this store's triple mutations and
	// gates their acknowledgment on durability; see SetJournal. Overlays
	// never inherit it. Held as an atomic pointer so a detach at engine
	// close is safe against in-flight mutations; each write handle loads it
	// once (Begin).
	journal atomic.Pointer[Journal]
}

// New returns an empty store.
func New() *Store {
	return &Store{syms: newSymtab()}
}

// Add inserts a triple, reporting whether it was newly inserted. Triples with
// an empty component are rejected with an error. It is a write handle used
// once (see Tx): with a journal attached, a newly inserted triple is
// committed before Add returns, and a commit failure is returned wrapping
// ErrJournal (the triple is applied in memory).
func (s *Store) Add(t Triple) (bool, error) {
	tx := s.Begin()
	added, err := tx.Add(t)
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
	fresh, err := tx.AddBatch(ts)
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
func (s *Store) Remove(t Triple) bool {
	tx := s.Begin()
	removed := tx.Remove(t)
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

// sortedMatches appends the matches of parts to out, resolved through syms,
// and sorts the result into the canonical (subject, predicate, object) order.
// It drains each cursor one refill at a time and releases it, so a walk over
// the whole store holds a store's lock for no longer than one refill.
func sortedMatches(parts []*ScanPart, syms *symtab, out []Triple) []Triple {
	res := newResolver(syms)
	var buf [drainBatch]IDTriple
	for _, pt := range parts {
		for done := false; !done; {
			var n int
			n, done = pt.NextBatch(buf[:])
			for _, t := range buf[:n] {
				out = append(out, Triple{res.name(t.S), res.name(t.P), res.name(t.O)})
			}
		}
		pt.Release()
	}
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
	return sortedMatches(s.ScanParts(ip), s.syms, nil)
}

// Triples returns every triple in the store, sorted lexicographically by
// subject, then predicate, then object — the store's canonical export order.
// Like Query, the result depends only on the store's contents, never on
// ingest order or id assignment; Snapshot is defined in terms of it.
func (s *Store) Triples() []Triple {
	return sortedMatches(s.ScanParts(IDPattern{}), s.syms, make([]Triple, 0, s.Len()))
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

// ForEachSubject streams the distinct subjects of triples with the given
// predicate and object to yield, stopping early when yield returns false.
// The order is unspecified; allocation per subject is zero. The same
// no-writes-from-yield rule as QueryIDFunc applies. It is the one string-level
// streaming read kept beside QueryIDFunc: resolving inside the set walk is
// what reason.Reasoner.InstancesFunc's class retrieval is measured on.
func (s *Store) ForEachSubject(predicate, object string, yield func(string) bool) {
	pid, ok := s.syms.lookup(predicate)
	if !ok {
		return
	}
	oid, ok := s.syms.lookup(object)
	if !ok {
		return
	}
	res := newResolver(s.syms)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.pos.find(pid)
	if e == nil {
		return
	}
	mt := e.find(oid)
	if mt == nil {
		return
	}
	for _, sid := range mt.elems() {
		if !yield(res.name(sid)) {
			return
		}
	}
}
