package store

import (
	"hash/maphash"
	"sync"
)

// symtab is the store's symbol table: it interns subject, predicate and
// object strings into dense uint32 ids so the permutation indexes hold
// four-byte ids instead of string headers, and so equality tests inside the
// indexes are integer compares. Ids are append-only and never reused, which
// makes the id→name direction readable under a plain snapshot of the names
// slice (see names below).
type symtab struct {
	mu sync.RWMutex
	// index is the name→id direction without the names: an open-addressed
	// table whose slots hold id+1 (0 is empty), probed linearly from the
	// name's hash under symSeed. A slot is confirmed by comparing against
	// names, so the table stores no key and no pointer. Its length is a
	// power of two at least twice the number of names; it doubles when an
	// insert would fill it past half.
	index []uint32
	names []string
	// journal, when non-nil, is told about freshly minted ids before the
	// interning lock is released, so dictionary-growth records reach the log
	// in id order ahead of any triple record that references them. The
	// symbol table is shared by overlays, so the hook covers every store of
	// a dictionary-sharing family.
	journal Journal
}

// symSeed keys the index's hash. Names arrive in request bodies, so the seed
// is drawn per process: a client cannot pick names that all probe to one
// run.
var symSeed = maphash.MakeSeed()

// minIndex is the length of an empty dictionary's index.
const minIndex = 16

// indexLen is the index length for n names: the smallest power of two at
// least 2n, and no less than minIndex.
func indexLen(n int) int {
	l := minIndex
	for l < 2*n {
		l *= 2
	}
	return l
}

func newSymtab() *symtab {
	return &symtab{index: make([]uint32, minIndex)}
}

// find probes the index for s. When s is interned it returns its id and
// true; otherwise slot is the empty slot an insert of s would fill. Callers
// hold st.mu.
func (st *symtab) find(s string) (id uint32, slot int, ok bool) {
	mask := len(st.index) - 1
	for slot = int(maphash.String(symSeed, s)) & mask; ; slot = (slot + 1) & mask {
		v := st.index[slot]
		if v == 0 {
			return 0, slot, false
		}
		if st.names[v-1] == s {
			return v - 1, slot, true
		}
	}
}

// insert mints the next id for s, which find has just reported missing at
// slot. Callers hold st.mu for writing.
func (st *symtab) insert(s string, slot int) uint32 {
	id := uint32(len(st.names))
	st.names = append(st.names, s)
	if 2*len(st.names) <= len(st.index) {
		st.index[slot] = id + 1
		return id
	}
	// The names are distinct, so refiling one needs only an empty slot and
	// never a compare against names.
	st.index = make([]uint32, 2*len(st.index))
	mask := len(st.index) - 1
	for i, name := range st.names {
		slot := int(maphash.String(symSeed, name)) & mask
		for st.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		st.index[slot] = uint32(i) + 1
	}
	return id
}

// setJournal installs (or clears) the dictionary-growth hook.
func (st *symtab) setJournal(j Journal) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.journal = j
}

// journalGrowthLocked reports the names minted since the dictionary held
// before entries to the journal. Callers hold st.mu for writing; running
// under the lock is what orders dictionary records ahead of every triple
// record that uses the new ids.
func (st *symtab) journalGrowthLocked(before int) {
	if st.journal != nil && len(st.names) > before {
		st.journal.JournalDict(SymbolID(before), st.names[before:]) //ontolint:ignore lockcheck the journal only appends to its own buffer (its lock nests strictly inside the dictionary lock, never the reverse) and the under-lock call is what keeps dictionary records ordered before the triple records that use the new ids
	}
}

// internTriple interns all three components under a single lock round trip.
func (st *symtab) internTriple(t Triple) IDTriple {
	st.mu.RLock()
	s, _, okS := st.find(t.Subject)
	p, _, okP := st.find(t.Predicate)
	o, _, okO := st.find(t.Object)
	st.mu.RUnlock()
	if okS && okP && okO {
		return IDTriple{s, p, o}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	before := len(st.names)
	e := IDTriple{st.internLocked(t.Subject), st.internLocked(t.Predicate), st.internLocked(t.Object)}
	st.journalGrowthLocked(before)
	return e
}

// internBatch interns every component of ts under one write lock, appending
// the encoded triples to enc (the symbol-table lock is taken once for the
// whole batch, not once per triple).
func (st *symtab) internBatch(ts []Triple, enc []IDTriple) []IDTriple {
	st.mu.Lock()
	defer st.mu.Unlock()
	before := len(st.names)
	for _, t := range ts {
		enc = append(enc, IDTriple{
			st.internLocked(t.Subject),
			st.internLocked(t.Predicate),
			st.internLocked(t.Object),
		})
	}
	st.journalGrowthLocked(before)
	return enc
}

func (st *symtab) internLocked(s string) uint32 {
	id, slot, ok := st.find(s)
	if !ok {
		id = st.insert(s, slot)
	}
	return id
}

// lookup returns the id of s without interning it; ok is false when s has
// never been seen (and therefore cannot occur in any index).
func (st *symtab) lookup(s string) (uint32, bool) {
	st.mu.RLock()
	id, _, ok := st.find(s)
	st.mu.RUnlock()
	return id, ok
}

// lookupBytes returns the interned name spelled by b, the dictionary's own
// string, without allocating: maphash.Bytes hashes b as maphash.String
// hashes the same bytes, and the confirming compare does not copy b. ok is
// false when no such name is interned.
func (st *symtab) lookupBytes(b []byte) (string, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	mask := len(st.index) - 1
	for slot := int(maphash.Bytes(symSeed, b)) & mask; ; slot = (slot + 1) & mask {
		v := st.index[slot]
		if v == 0 {
			return "", false
		}
		if name := st.names[v-1]; name == string(b) {
			return name, true
		}
	}
}

// lookupTriple resolves all three components read-only.
func (st *symtab) lookupTriple(t Triple) (IDTriple, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s, _, okS := st.find(t.Subject)
	p, _, okP := st.find(t.Predicate)
	o, _, okO := st.find(t.Object)
	return IDTriple{s, p, o}, okS && okP && okO
}

// snapshot returns the current id→name mapping. The returned slice is safe
// to read concurrently with interning: ids are append-only, so every element
// below the snapshot's length is immutable. Resolvers must fall back to name
// for ids minted after the snapshot was taken.
func (st *symtab) snapshot() []string {
	st.mu.RLock()
	names := st.names
	st.mu.RUnlock()
	return names
}

// name resolves a single id under the lock; used as the slow path when a
// snapshot proves too short.
func (st *symtab) name(id uint32) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.names[id]
}

// resolver resolves ids to names from a cheap snapshot, falling back to the
// locked path for ids interned after the snapshot. The zero value is not
// ready; use newResolver.
type resolver struct {
	st    *symtab
	names []string
}

func newResolver(st *symtab) resolver {
	return resolver{st: st, names: st.snapshot()}
}

func (r resolver) name(id uint32) string {
	if int(id) < len(r.names) {
		return r.names[id]
	}
	return r.st.name(id)
}
