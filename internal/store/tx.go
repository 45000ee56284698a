package store

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the store's write path. Every mutation goes through a Tx, a
// write handle that applies each change to the indexes at once, inside a
// write section (Store.Write), and moves the store's digest with it. What a
// journaled handle changed in a section is staged with the Journal as one
// record when the section ends, stamped with the section's Position, and
// Commit, outside the section, waits for it to be durable. Store.Add,
// AddBatch and Remove are a handle begun, used once in one section and
// committed; a caller whose write touches the store more than once (the
// reasoner asserts, maintains, then retracts) does all its touches in one
// section and commits once, so the whole write is one state change to
// readers, one journal record and one wait for durability.
//
// There is one filing path per direction: every add goes through
// insertBatch and every remove through RemoveIDs, and the one-triple
// methods (Add, AddID, Remove, RemoveID) are batches of one. A batch is keyed
// and sorted in scratch kept beside the section's buffers, so a warmed write
// allocates nothing for it: an added one is filed set by set in SPO
// (index.insertAll), so each subject's sets and pair slice grow once, and
// then into POS triple by triple; a removed one is compacted set by set in
// both (index.removeAll). Either is noted in the batch's own order, so its
// journal record and digest are those of the same triples written one at a
// time.

// Tx is a write handle on one store, begun with Store.Begin. Its methods take
// no lock: every one but Commit runs inside a write section (Store.Write) on
// its store or on one sharing its lock, and changes the indexes at once, so
// readers see the section's changes together when it ends. Commit, outside
// any section, waits until the journal calls what the handle staged durable.
// On a store without a journal Commit has nothing to do, so a handle on such
// a store (a reasoner's overlay) may simply stay open.
//
// A journaled record is replayed adds first, then removes. A handle on a
// journaled store therefore refuses to add once its section has removed (the
// error applies nothing); end the section to continue. A Tx is not safe for
// concurrent use; any number of handles may be open on one store.
type Tx struct {
	s *Store
	// j is the journal loaded at Begin, so a concurrent SetJournal cannot
	// split one mutation across two journals; nil when none is attached, and
	// then nothing below is recorded.
	j Journal
	// wrote says a section staged changes of this handle that Commit has not
	// waited for yet.
	wrote bool
}

// Begin opens a write handle. It is returned by value so that a caller who
// keeps it in a local pays no allocation for it.
func (s *Store) Begin() Tx {
	return Tx{s: s, j: s.getJournal()}
}

// maxSectionBuf is the capacity past which a section's journal buffers are
// dropped once staged rather than kept for the next section.
const maxSectionBuf = 4096

// note records one journaled change of the section under way and moves the
// digest; h is the triple's hash, unused on an overlay.
func (tx *Tx) note(t IDTriple, add bool, h Digest) {
	s, sec := tx.s, tx.s.mu
	if !s.overlay {
		if add {
			s.digest.add(h)
		} else {
			s.digest.sub(h)
		}
	}
	if tx.j == nil {
		return
	}
	if add {
		sec.adds = append(sec.adds, t)
	} else {
		sec.removes = append(sec.removes, t)
	}
	sec.journal, sec.store, tx.wrote = tx.j, s, true
}

// stage hands the section's journaled changes to their journal, stamped with
// the generation the section produced and its store's digest, and empties
// the buffers for the next section. Store.Write calls it under the write
// lock.
func (sec *viewLock) stage(gen uint64) {
	sec.journal.JournalMutation(sec.adds, sec.removes, Position{Gen: gen, Digest: sec.store.digest})
	sec.journal, sec.store = nil, nil
	sec.adds, sec.removes = sec.adds[:0], sec.removes[:0]
	if cap(sec.adds) > maxSectionBuf {
		sec.adds = nil
	}
	if cap(sec.removes) > maxSectionBuf {
		sec.removes = nil
	}
}

// hashNames is one read of the dictionary for a batch's hashes (hash); an
// overlay, which keeps no digest, reads none.
func (s *Store) hashNames() nameView {
	if s.overlay {
		return nameView{}
	}
	return s.syms.snapshot()
}

// hash is H of one encoded triple, names being hashNames; zero on an
// overlay.
func (s *Store) hash(names nameView, t IDTriple) Digest {
	if s.overlay {
		return Digest{}
	}
	return idHash(names, t)
}

// addable refuses an add that the journal would replay before this handle's
// removes.
func (tx *Tx) addable() error {
	if tx.j != nil && len(tx.s.mu.removes) > 0 {
		return fmt.Errorf("store: this write section has removed triples and a journaled record replays adds first; end the section before adding again")
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
	return len(tx.insertBatch([]IDTriple{tx.s.syms.internTriple(t)})) == 1, nil
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
	return len(tx.insertBatch([]IDTriple{t})) == 1, nil
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

// AddIDs inserts a batch of dictionary-encoded triples and returns the ones
// that were newly inserted, in the batch's order, reusing ts's storage, which
// it takes over (a duplicate, within the batch or against the store, is
// dropped: a triple appears at most once, at its first occurrence). It is
// AddID over the batch, and its checks are AddID's, made up front for the
// whole batch: an id the dictionary never minted fails it and nothing is
// inserted. The batch is filed as AddBatch's is, each set it touches grown
// once (insertBatch) — the reasoner files each rule's heads of a round so.
func (tx *Tx) AddIDs(ts []IDTriple) ([]IDTriple, error) {
	for i, t := range ts {
		if !tx.s.validID(t) {
			return nil, fmt.Errorf("store: AddIDs: batch triple %d %v has an id the dictionary never minted; batch not inserted", i, t)
		}
	}
	if err := tx.addable(); err != nil {
		return nil, err
	}
	return tx.insertBatch(ts), nil
}

// insertBatch files an encoded batch in both indexes and returns the triples
// that were absent: the batch's fresh subset in the batch's order, reusing
// enc's storage, which it takes over. SPO is the arbiter of newness: the
// batch is keyed, sorted and filed there grouped (index.insertAll), so each
// subject's pair slice and each of its sets grows once, not once per member,
// and a duplicate within the batch is fresh at its first occurrence, the
// least position. A batch longer than maxBatchKeys is filed so in windows of
// that many triples, in order, so its scratch stays bounded; a window's
// repeat of an earlier window's triple is found present in SPO. The fresh
// triples then go into POS one at a time and are noted, in the batch's
// order, so the digest moves and the journal record reads exactly as if they
// had been added one by one. POS is not grouped: a write's POS sets are
// mostly class hubs, which take members one at a time in any case, and its
// leads are the few predicates, whose pair slices grow by doubling; grouping
// it measured no fewer bytes on write_durable and 12 % more CPU a write
// (PERFLOG.md "A write files each set once").
func (tx *Tx) insertBatch(enc []IDTriple) []IDTriple {
	s, sec := tx.s, tx.s.mu
	// out is written only below the window being filed.
	out, names := enc[:0], s.hashNames()
	for lo := 0; lo < len(enc); lo += maxBatchKeys {
		win := enc[lo:min(lo+maxBatchKeys, len(enc))]
		keys, isFresh := sec.batchKeys(win), &sec.fresh
		clear(isFresh[:(len(win)+63)/64])
		for _, k := range s.spo.insertAll(keys) {
			isFresh[k[3]/64] |= 1 << (k[3] % 64)
		}
		for p, e := range win {
			if isFresh[p/64]&(1<<(p%64)) == 0 {
				continue
			}
			s.pos.insert(e.P, e.O, e.S)
			out = append(out, e)
			tx.note(e, true, s.hash(names, e))
		}
		sec.release(keys)
	}
	s.size.Add(int64(len(out)))
	return out
}

// maxBatchKeys is the window in which insertBatch files an added batch, and
// the capacity past which a removed batch's key scratch (RemoveIDs) is
// dropped once the batch is filed rather than kept for the next: 16 KiB of
// keys, room for the few hundred heads one rule concludes from a served
// 64-triple batch, so a store that once took a large batch does not hold its
// keys for good. It is chunkLen, so a set that a window opens is one chunk
// (keyChunk).
const maxBatchKeys = chunkLen

// batchKeys returns the keys of ts in SPO order — (S, P, O, position in ts)
// — sorted, in the section's key scratch, which release hands back.
func (sec *viewLock) batchKeys(ts []IDTriple) [][4]uint32 {
	keys := slices.Grow(sec.keys[:0], len(ts))[:len(ts)]
	for i, t := range ts {
		keys[i] = [4]uint32{t.S, t.P, t.O, uint32(i)}
	}
	sortKeys(keys, compareKeys)
	return keys
}

// toPOS turns SPO keys into the same triples' POS keys in place, sorted, and
// returns them.
func toPOS(keys [][4]uint32) [][4]uint32 {
	for i, k := range keys {
		keys[i] = [4]uint32{k[1], k[2], k[0], k[3]}
	}
	sortKeys(keys, compareKeys)
	return keys
}

// sortKeys sorts batch keys by cmp. A batch of one — every one-triple
// write — is sorted already, and skips the sort's call.
func sortKeys(keys [][4]uint32, cmp func(a, b [4]uint32) int) {
	if len(keys) > 1 {
		slices.SortFunc(keys, cmp)
	}
}

// compareKeys orders batch keys component by component, two at a time.
func compareKeys(a, b [4]uint32) int {
	if c := cmp.Compare(uint64(a[0])<<32|uint64(a[1]), uint64(b[0])<<32|uint64(b[1])); c != 0 {
		return c
	}
	return cmp.Compare(uint64(a[2])<<32|uint64(a[3]), uint64(b[2])<<32|uint64(b[3]))
}

// release keeps a batch's key scratch for the next batch of the section's
// lock, or drops what has grown past maxBatchKeys.
func (sec *viewLock) release(keys [][4]uint32) {
	sec.keys = keys[:0]
	if cap(keys) > maxBatchKeys {
		sec.keys = nil
	}
}

// Remove deletes a triple, reporting whether it was present.
func (tx *Tx) Remove(t Triple) bool {
	e, ok := tx.s.syms.lookupTriple(t)
	return ok && tx.RemoveID(e)
}

// RemoveID deletes a dictionary-encoded triple from both indexes, reporting
// whether it was present: RemoveIDs of one. Ids the dictionary never minted
// simply match nothing. It is the id-level twin of Remove.
func (tx *Tx) RemoveID(t IDTriple) bool {
	return tx.RemoveIDs([]IDTriple{t}) == 1
}

// RemoveIDs deletes a batch of dictionary-encoded triples and reports how
// many were present: a duplicate counts once and an absent triple not at
// all. The batch is sorted per index and every trailing set it touches is
// compacted in one pass (index.removeAll), so retracting k of a set's n
// members moves O(n) bytes, not the O(k·n) of k removals one at a time
// (which made one write that empties a large class quadratic in its size).
// The removed triples are noted in the batch's order, each at its first
// occurrence, as insertBatch notes its adds, so the journal record reads as
// if they had been removed one by one.
func (tx *Tx) RemoveIDs(ts []IDTriple) int {
	// The indexes hold the same triples, so only what SPO reports gone is
	// looked for in POS.
	s, sec := tx.s, tx.s.mu
	keys := sec.batchKeys(ts)
	gone := s.spo.removeAll(keys)
	s.size.Add(-int64(len(gone)))
	sortKeys(gone, func(a, b [4]uint32) int { return cmp.Compare(a[3], b[3]) })
	names := s.hashNames()
	for _, k := range gone {
		t := IDTriple{S: k[0], P: k[1], O: k[2]}
		tx.note(t, false, s.hash(names, t))
	}
	s.pos.removeAll(toPOS(gone))
	sec.release(keys)
	return len(gone)
}

// Commit waits until the journal calls everything the handle's sections
// staged durable. A failure is returned wrapping ErrJournal: the changes are
// applied in memory but not durable. A handle that changed nothing, or whose
// store has no journal, commits without touching anything. The handle is
// reusable afterwards.
func (tx *Tx) Commit() error {
	if !tx.wrote {
		return nil
	}
	tx.wrote = false
	if err := tx.j.JournalWait(); err != nil {
		return fmt.Errorf("store: mutation applied in memory but not durable: %w: %w", ErrJournal, err)
	}
	return nil
}
