package store

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"unsafe"
)

// symtab is the store's symbol table: it interns subject, predicate and
// object strings into dense uint32 ids so the permutation indexes hold
// four-byte ids instead of string headers, and so equality tests inside the
// indexes are integer compares. Ids are append-only and never reused, which
// makes the id→name direction readable under a plain snapshot of its
// directories and count (see nameTable and nameView). The names themselves
// are bytes in pages, in the encoding of the log's dictionary records, not
// strings: a restored dictionary is the recovered bytes, and nothing turns a
// name into a string object until a caller asks for one, which then shares
// the page.
type symtab struct {
	mu sync.RWMutex
	// index is the name→id direction without the names: an open-addressed
	// table whose slots hold id+1 (0 is empty), probed linearly from the
	// name's hash under symSeed. A slot is confirmed by comparing against
	// names, so the table stores no key and no pointer. Its length is a
	// power of two at least twice the number of names; it doubles when an
	// insert would fill it past half.
	index []uint32
	names nameTable
	// journal, when non-nil, is told about freshly minted ids before the
	// interning lock is released, so dictionary-growth records reach the log
	// in id order ahead of any triple record that references them. The
	// symbol table is shared by overlays, so the hook covers every store of
	// a dictionary-sharing family. journaled is the runs it is handed, kept
	// for the next call.
	journal   Journal
	journaled []NameRun
}

// NameRun is a run of dictionary names in the encoding the log and the
// segment files use: N names, each a uvarint length and then its bytes. The
// name table keeps its names in this encoding too, so a restore takes a
// recovered run as it lies (RestoreSorted) and a journal is handed the
// freshly minted names as the bytes a dictionary record carries
// (Journal.JournalDict).
type NameRun struct {
	N   int
	Enc []byte
}

// namePageBits sizes the windows of the table's offsets: 4 096 ids, 16 KiB
// of offsets, a window. A window is allocated whole when its first id is
// filed, restored or minted, and never moves.
const (
	namePageBits = 12
	namePageLen  = 1 << namePageBits
	namePageMask = namePageLen - 1
)

// An offset packs which page a name lies in, counted from the page its
// window's first name lies in, over where it starts in that page: a
// window's 4 096 names lie in at most 4 096 pages, and a name starts in the
// first MiB of its page, where restored runs are cut. A page add allocates
// is 64 KiB, or one name longer than that; the first is 256 B and each next
// one doubles the one before, so a dictionary that mints a few names keeps
// a few hundred bytes for them.
const (
	nameStartBits = 32 - namePageBits
	nameStartMask = 1<<nameStartBits - 1
	restoredPage  = 1 << nameStartBits
	firstPage     = 256
	mintedPage    = 64 << 10
)

// nameTable is the id→name direction: pages of names in NameRun's encoding,
// in id order, and one uint32 offset per id, in windows of 4 096, saying
// where its name starts. A restored dictionary's pages are the restored
// runs' own bytes, cut where a name would start past 1 MiB and capped at
// their length; add copies a minted name's bytes into the last page it
// allocated, or into a new one when the name does not fit. The table holds
// no pointer per name: a name costs its bytes, a byte or two of length and
// its four-byte offset, and at hands it out as a string over the page
// bytes without allocating.
//
// A reader holds a nameView: the table's directories and its count. The
// writer writes page bytes and offsets only past everything the names below
// each count it has published occupy, and never writes them again: restored
// pages are capped, so no add reaches them, and add writes a page only past
// the names filed in it. It never edits directories a view may hold either:
// a page or a window is added to a copy (edit). So the names below a view's
// count are immutable, read without a lock, and strings over them stay
// valid for good; two stores restored from the same runs share the runs'
// bytes and write none of them.
type nameTable struct {
	nameView
	// used is how many bytes of the last page hold names (all of a
	// restored one), and fresh the size of the last page add allocated.
	used, fresh int
}

// nameView is a snapshot of the table: its directories and its count.
type nameView struct {
	dirs *nameDirs
	n    int
}

// nameDirs is the table's two directories: its windows of offsets, and its
// pages.
type nameDirs struct {
	windows []nameWindow
	pages   [][]byte
}

// nameWindow is the offsets of 4 096 ids, and the page the first of them
// lies in, which they count their pages from.
type nameWindow struct {
	first int
	offs  []uint32
}

// at returns the name of id, which must be below the view's count.
func (nv nameView) at(id uint32) string {
	page, start := nv.place(int(id))
	b := nv.dirs.pages[page][start:]
	n, w := uint64(b[0]), 1
	if n >= 0x80 {
		n, w = binary.Uvarint(b)
	}
	b = b[w : w+int(n)]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// place returns the page id's name lies in and where its encoding starts
// there.
func (nv nameView) place(id int) (page, start int) {
	w := &nv.dirs.windows[id>>namePageBits]
	o := w.offs[id&namePageMask]
	return w.first + int(o>>nameStartBits), int(o & nameStartMask)
}

// add files name as id nt.n, copying its bytes. Callers hold the symbol
// table's lock for writing and never add the empty name.
func (nt *nameTable) add(name string) {
	size := uvarintLen(len(name)) + len(name)
	if nt.dirs == nil || len(nt.dirs.pages) == 0 || nt.used+size > len(nt.dirs.pages[len(nt.dirs.pages)-1]) {
		nt.fresh = min(mintedPage, max(firstPage, 2*nt.fresh))
		d := nt.edit()
		d.pages = append(d.pages, make([]byte, max(nt.fresh, size)))
		nt.used = 0
	}
	last := len(nt.dirs.pages) - 1
	page := nt.dirs.pages[last][nt.used:]
	copy(page[binary.PutUvarint(page, uint64(len(name))):], name)
	nt.file(last, nt.used)
	nt.used += size
}

// file sets the next id's offset to start in page, adding its window on
// the window's first id.
func (nt *nameTable) file(page, start int) {
	if nt.n&namePageMask == 0 {
		d := nt.edit()
		d.windows = append(d.windows, nameWindow{first: page, offs: make([]uint32, namePageLen)})
	}
	w := &nt.dirs.windows[nt.n>>namePageBits]
	w.offs[nt.n&namePageMask] = uint32(page-w.first)<<nameStartBits | uint32(start)
	nt.n++
}

// edit replaces the table's directories with a copy, which the caller then
// grows: views taken before keep the directories they hold.
func (nt *nameTable) edit() *nameDirs {
	d := new(nameDirs)
	if nt.dirs != nil {
		*d = *nt.dirs
	}
	nt.dirs = d
	return d
}

// uvarintLen is the length of n's uvarint encoding.
func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
}

// restoredNames returns a table of the names runs hold, in order. Its pages
// are the runs' bytes — retained, not copied, and capped, so no add ever
// writes them — cut where a name would start 1 MiB or more into its page.
// A run whose N names do not fill its bytes exactly is refused.
func restoredNames(runs []NameRun) (nameTable, error) {
	var nt nameTable
	d := nt.edit()
	for k, run := range runs {
		enc, lo, off := run.Enc, 0, 0
		for i := 0; i < run.N; i++ {
			n, w := binary.Uvarint(enc[off:])
			if w <= 0 || n > uint64(len(enc)-off-w) {
				return nameTable{}, fmt.Errorf("store: restore run %d: name %d overruns its %d bytes", k, i, len(enc))
			}
			if off-lo >= restoredPage {
				d.pages = append(d.pages, enc[lo:off:off])
				lo = off
			}
			nt.file(len(d.pages), off-lo)
			d = nt.dirs
			off += w + int(n)
		}
		if off != len(enc) {
			return nameTable{}, fmt.Errorf("store: restore run %d holds %d bytes past its %d names", k, len(enc)-off, run.N)
		}
		if off > lo {
			d.pages = append(d.pages, enc[lo:off:off])
		}
	}
	if len(d.pages) > 0 {
		nt.used = len(d.pages[len(d.pages)-1])
	}
	return nt, nil
}

// runs appends to dst the names of ids from up to to, in their encoding,
// one run per page they lie in, in id order.
func (nv nameView) runs(dst []NameRun, from, to int) []NameRun {
	for id := from; id < to; {
		p, lo := nv.place(id)
		end := id + 1
		for end < to {
			if q, _ := nv.place(end); q != p {
				break
			}
			end++
		}
		_, hi := nv.place(end - 1)
		last := nv.at(uint32(end - 1))
		hi += uvarintLen(len(last)) + len(last)
		dst = append(dst, NameRun{N: end - id, Enc: nv.dirs.pages[p][lo:hi]})
		id = end
	}
	return dst
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
		if st.names.at(v-1) == s {
			return v - 1, slot, true
		}
	}
}

// insert mints the next id for s, which find has just reported missing at
// slot. Callers hold st.mu for writing.
func (st *symtab) insert(s string, slot int) uint32 {
	id := uint32(st.names.n)
	st.names.add(s)
	if 2*st.names.n <= len(st.index) {
		st.index[slot] = id + 1
		return id
	}
	// The names are distinct, so refiling one needs only an empty slot and
	// never a compare against names. They are read in id order, page by page
	// front to back, with no offset: a page's names end at its length, or at
	// the zero length byte where the room of a page add allocated begins (no
	// name is empty).
	st.index = make([]uint32, 2*len(st.index))
	mask := len(st.index) - 1
	next := uint32(0)
	for _, page := range st.names.dirs.pages {
		for off := 0; off < len(page) && page[off] != 0; {
			n, w := binary.Uvarint(page[off:])
			off += w
			slot := int(maphash.Bytes(symSeed, page[off:off+int(n)])) & mask
			for st.index[slot] != 0 {
				slot = (slot + 1) & mask
			}
			next++
			st.index[slot] = next
			off += int(n)
		}
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
// before entries to the journal, as their encoded bytes, one call per window
// of 4 096 ids they fall in: a log has always cut its dictionary records
// there. Callers hold st.mu for writing; running under the lock is what
// orders dictionary records ahead of every triple record that uses the new
// ids.
func (st *symtab) journalGrowthLocked(before int) {
	if st.journal == nil {
		return
	}
	for id := before; id < st.names.n; {
		end := min(st.names.n, (id|namePageMask)+1)
		st.journaled = st.names.runs(st.journaled[:0], id, end)
		st.journal.JournalDict(SymbolID(id), st.journaled) //ontolint:ignore lockcheck the journal only appends to its own buffer (its lock nests strictly inside the dictionary lock, never the reverse) and the under-lock call is what keeps dictionary records ordered before the triple records that use the new ids
		id = end
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
	before := st.names.n
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
	before := st.names.n
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
// string, without allocating: the probe reads b through a string that does
// not outlive it. ok is false when no such name is interned.
func (st *symtab) lookupBytes(b []byte) (string, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	id, _, ok := st.find(unsafe.String(unsafe.SliceData(b), len(b)))
	if !ok {
		return "", false
	}
	return st.names.at(id), true
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

// snapshot returns the current id→name mapping. It is safe to read
// concurrently with interning: ids are append-only, so every name below the
// snapshot's count is immutable. Resolvers must fall back to name for ids
// minted after the snapshot was taken.
func (st *symtab) snapshot() nameView {
	st.mu.RLock()
	names := st.names.nameView
	st.mu.RUnlock()
	return names
}

// name resolves a single id under the lock; used as the slow path when a
// snapshot proves too short.
func (st *symtab) name(id uint32) string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.names.at(id)
}

// resolver resolves ids to names from a cheap snapshot, falling back to the
// locked path for ids interned after the snapshot. The zero value is not
// ready; use newResolver.
type resolver struct {
	st    *symtab
	names nameView
}

func newResolver(st *symtab) resolver {
	return resolver{st: st, names: st.snapshot()}
}

func (r resolver) name(id uint32) string {
	if int(id) < r.names.n {
		return r.names.at(id)
	}
	return r.st.name(id)
}
