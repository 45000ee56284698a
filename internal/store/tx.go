package store

import (
	"fmt"
	"slices"
)

// This file is the store's write path. Every mutation goes through a Tx, a
// write handle that applies each change to the indexes at once, inside a
// write section (Store.Write), and defers the journal: what the handle
// changed is remembered and handed to the attached Journal as one mutation by
// Commit. Store.Add, AddBatch and Remove are a handle begun, used once in one
// section and committed; a caller whose write touches the store more than
// once (the reasoner asserts, maintains, then retracts) holds the handle
// across the touches, all in one section, and commits once, so the whole
// write is one state change to readers, one journal record and one wait for
// durability.

// Tx is a write handle on one store, begun with Store.Begin. Its methods take
// no lock: every one but Commit runs inside a write section (Store.Write) on
// its store or on one sharing its lock, and changes the indexes at once, so
// readers see the section's changes together when it ends. Commit, outside
// any section, makes everything the handle changed durable as one journaled
// mutation. On a store without a journal Commit has nothing to do, so a
// handle on such a store (a reasoner's overlay) may simply stay open.
//
// A journaled mutation is replayed adds first, then removes. A handle on a
// journaled store therefore refuses to add once it has removed (the error
// applies nothing); Commit and Begin again to continue. A Tx is not safe for
// concurrent use; any number of handles may be open on one store.
type Tx struct {
	s *Store
	// j is the journal loaded at Begin, so a concurrent SetJournal cannot
	// split one mutation across two journals; nil when none is attached, and
	// then nothing below is recorded.
	j Journal
	// adds and removes are the triples this handle inserted and deleted since
	// the last Commit, in the order it did.
	adds, removes []IDTriple
}

// Begin opens a write handle. It is returned by value so that a caller who
// keeps it in a local pays no allocation for it.
func (s *Store) Begin() Tx {
	return Tx{s: s, j: s.getJournal()}
}

// addable refuses an add that the journal would replay before this handle's
// removes.
func (tx *Tx) addable() error {
	if len(tx.removes) > 0 {
		return fmt.Errorf("store: this write handle has removed triples and a journaled mutation replays adds first; Commit before adding again")
	}
	return nil
}

// Add inserts a triple, reporting whether it was newly inserted. Triples with
// an empty component are rejected with an error.
func (tx *Tx) Add(t Triple) (bool, error) {
	if !t.valid() {
		return false, fmt.Errorf("store: triple %v has an empty component", t)
	}
	if err := tx.addable(); err != nil {
		return false, err
	}
	return tx.insert(tx.s.syms.internTriple(t)), nil
}

// AddID inserts a dictionary-encoded triple, reporting whether it was newly
// inserted. All three ids must have been minted by the store's dictionary
// (an overlay sharing the dictionary qualifies); unknown ids are rejected
// with an error, since they name nothing. It is the id-level twin of Add —
// the materialization engine derives triples as ids and stores them without
// ever resolving a string.
func (tx *Tx) AddID(t IDTriple) (bool, error) {
	if !tx.s.validID(t) {
		return false, fmt.Errorf("store: AddID: triple %v has an id the dictionary never minted", t)
	}
	if err := tx.addable(); err != nil {
		return false, err
	}
	return tx.insert(t), nil
}

// insert files one encoded triple in both indexes.
func (tx *Tx) insert(t IDTriple) bool {
	s := tx.s
	added := s.spo.insert(t.S, t.P, t.O)
	if added {
		s.pos.insert(t.P, t.O, t.S)
		s.size.Add(1)
	}
	if added && tx.j != nil {
		tx.adds = append(tx.adds, t)
	}
	return added
}

// AddBatch inserts a batch of triples and returns the ones that were newly
// inserted, dictionary-encoded, in the batch's order (a duplicate, within the batch or against the store, is dropped:
// a triple appears at most once, at its first occurrence). The result is the
// caller's to keep. Validation is all-or-nothing: the batch is checked up
// front and if any triple has an empty component an error identifying its
// position is returned and nothing at all is inserted.
//
// The fast path over per-triple Add: all strings of the batch are interned
// under one symbol-table lock, and the batch is then filed in one pass.
func (tx *Tx) AddBatch(ts []Triple) ([]IDTriple, error) {
	for i, t := range ts {
		if !t.valid() {
			return nil, fmt.Errorf("store: batch triple %d %v has an empty component; batch not inserted", i, t)
		}
	}
	if err := tx.addable(); err != nil || len(ts) == 0 {
		return nil, err
	}
	return tx.insertBatch(tx.s.syms.internBatch(ts, make([]IDTriple, 0, len(ts)))), nil
}

// insertBatch files an encoded batch in both indexes and returns the triples that were actually absent: the batch's fresh subset in
// the batch's order, reusing enc's storage, which it takes over. SPO is the
// arbiter of newness: a duplicate within the batch comes after its first
// occurrence, so the first is the one kept.
func (tx *Tx) insertBatch(enc []IDTriple) []IDTriple {
	s, fresh := tx.s, enc[:0]
	for _, e := range enc {
		if s.spo.insert(e.S, e.P, e.O) {
			s.pos.insert(e.P, e.O, e.S)
			fresh = append(fresh, e)
		}
	}
	s.size.Add(int64(len(fresh)))
	if tx.j != nil {
		tx.adds = append(tx.adds, fresh...)
	}
	return fresh
}

// Remove deletes a triple, reporting whether it was present.
func (tx *Tx) Remove(t Triple) bool {
	e, ok := tx.s.syms.lookupTriple(t)
	return ok && tx.RemoveID(e)
}

// RemoveID deletes a dictionary-encoded triple from both indexes, reporting whether it was present. Ids the dictionary never minted simply
// match nothing. It is the id-level twin of Remove, used by the overdeletion
// pass of incremental maintenance.
func (tx *Tx) RemoveID(t IDTriple) bool {
	s := tx.s
	removed := s.spo.remove(t.S, t.P, t.O)
	if removed {
		s.pos.remove(t.P, t.O, t.S)
		s.size.Add(-1)
	}
	if removed && tx.j != nil {
		tx.removes = append(tx.removes, t)
	}
	return removed
}

// removeIDsMin is the batch length from which RemoveIDs sorts the batch and
// compacts each touched set once. Below it, removing triple by triple moves
// fewer than removeIDsMin times the bytes of one compaction and allocates
// nothing, which the reasoner's small writes rely on.
const removeIDsMin = 64

// RemoveIDs deletes a batch of dictionary-encoded triples and reports how
// many were present: RemoveID over the batch, so a duplicate counts once and
// an absent triple not at all. A large batch is sorted per index and every
// trailing set it touches is compacted in one pass, so retracting k of a
// set's n members moves O(n) bytes, not the O(k·n) of k RemoveID calls (which
// made one write that empties a large class quadratic in its size).
func (tx *Tx) RemoveIDs(ts []IDTriple) int {
	if len(ts) < removeIDsMin {
		n := 0
		for _, t := range ts {
			if tx.RemoveID(t) {
				n++
			}
		}
		return n
	}
	byKey := func(a, b [3]uint32) int { return slices.Compare(a[:], b[:]) }
	keys, pos := make([][3]uint32, len(ts)), make([][3]uint32, len(ts))
	for i, t := range ts {
		keys[i], pos[i] = [3]uint32{t.S, t.P, t.O}, [3]uint32{t.P, t.O, t.S}
	}
	slices.SortFunc(keys, byKey)
	slices.SortFunc(pos, byKey)
	// The indexes hold the same triples, so the keys absent from SPO are
	// absent from POS too and removing every key from POS removes exactly
	// what SPO reports gone.
	s := tx.s
	gone := s.spo.removeAll(keys)
	s.pos.removeAll(pos)
	s.size.Add(-int64(len(gone)))
	if tx.j != nil {
		for _, k := range gone {
			tx.removes = append(tx.removes, IDTriple{S: k[0], P: k[1], O: k[2]})
		}
	}
	return len(gone)
}

// Commit journals everything the handle changed since Begin (or the previous
// Commit) as one mutation and blocks until the journal calls it durable. A
// failure is returned wrapping ErrJournal: the changes are applied in memory
// but not durable. A handle that changed nothing, or whose store has no
// journal, commits without touching anything. The handle is reusable
// afterwards.
func (tx *Tx) Commit() error {
	if len(tx.adds)+len(tx.removes) == 0 {
		return nil
	}
	err := tx.j.JournalMutation(tx.adds, tx.removes)
	tx.adds, tx.removes = nil, nil
	if err != nil {
		return fmt.Errorf("store: mutation applied in memory but not durable: %w: %w", ErrJournal, err)
	}
	return nil
}
