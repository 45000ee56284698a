package store

import "errors"

// This file is the store's durability hook: a Journal interface the mutation
// path reports to, at dictionary-id level, so a write-ahead log (package
// repro/internal/durable) can make every acknowledged mutation replayable
// without the store knowing anything about files, fsync or record formats.
//
// The contract between the store and a journal is ordering: dictionary-growth
// notifications are emitted under the symbol-table lock, in id order, so a
// journal that appends them to a log in call order is guaranteed that every
// id is defined before any mutation references it. Mutations committed
// concurrently may be journaled in any order — adds commute under set
// semantics — but a racing Add and Remove of the same triple may be journaled
// in either order (the store documents that race as unspecified; callers that
// need a deterministic log, like the serving stack's reasoner, already
// serialize mutations behind one lock).

// ErrJournal marks a mutation that was applied to the in-memory indexes but
// whose journal commit failed: the triples are visible to readers of this
// process yet are not guaranteed durable. Callers that promise durability
// (the HTTP serving layer) should report such errors as server-side failures,
// not client errors.
var ErrJournal = errors.New("journal commit failed")

// Journal receives the store's mutation stream at dictionary-id level. A
// journal is attached with SetJournal; afterwards every write section that
// changed the store through a write handle (Tx) stages what it changed as one
// mutation, and the handle's Commit blocks until the journal calls it
// durable. Implementations must be safe for concurrent use and must not
// retain the slices they are handed.
type Journal interface {
	// JournalDict reports freshly minted dictionary ids: names[i] was
	// assigned id first+i. It is called under the symbol-table lock, so
	// calls arrive in ascending id order and before any JournalMutation that
	// references the new ids; it must be fast and must not call back into
	// the store.
	JournalDict(first SymbolID, names []string)
	// JournalMutation stages one write section's changes — the triples it
	// newly inserted (duplicates already present excluded) and the triples
	// it deleted, to be replayed adds first — stamped with the Position the
	// section left. It is called at the end of the section, under the
	// store's write lock, so mutations arrive in section order; like
	// JournalDict it must only stage, never wait or call back. At least one
	// list is non-empty, and every component id has been reported by an
	// earlier JournalDict call or belongs to the dictionary state the
	// journal was opened over.
	JournalMutation(adds, removes []IDTriple, at Position)
	// JournalWait blocks until every mutation staged so far is durable and
	// returns the journal's sticky error if durability has failed. The store
	// calls it outside the write lock, so group-committing journals see
	// concurrent mutations pile up and can amortize one fsync across them.
	JournalWait() error
}

// SetJournal attaches a journal to the store's mutation path, or detaches it
// with nil. The journal observes dictionary growth for every store sharing
// this store's symbol table (overlays included — their ids must be defined
// too), and triple changes for this store only, which is what lets a serving
// stack journal the asserted base while the reasoner's derived overlay stays
// ephemeral.
//
// SetJournal is safe to call while mutations are in flight: the field is an
// atomic pointer a write handle loads once, so a concurrent detach
// (durable.Engine.Close) is not a data race — a racing mutation either
// commits through the old journal or skips journaling entirely. Once
// attached, a mutation returns only after JournalMutation; if that fails the
// mutation is still applied in memory and the error (wrapping ErrJournal)
// tells the caller durability is gone. Store.Remove alone has no error
// return; see there.
func (s *Store) SetJournal(j Journal) {
	if j == nil {
		s.journal.Store(nil)
	} else {
		s.journal.Store(&j)
	}
	s.syms.setJournal(j)
}

// getJournal loads the attached journal, nil when none is attached.
func (s *Store) getJournal() Journal {
	if p := s.journal.Load(); p != nil {
		return *p
	}
	return nil
}

// DictLen returns the number of names interned in the store's dictionary —
// the exclusive upper bound of every minted SymbolID. A checkpointer pairs it
// with NewResolver to dump the id→name mapping: every id below DictLen
// resolves, and ids minted later refer to names the dump does not need.
func (s *Store) DictLen() int {
	return len(s.syms.snapshot())
}
