package durable

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/store"
)

// This file is the patch algebra of the data directory. A directory is a
// chain of patches over adjacent seq windows — segment files (segment.go),
// then the wal files beyond them (record.go). A patch keeps its dictionary
// window and both triple runs encoded, as the files carry them. A fold
// composes adjacent patches, oldest first, in one k-way pass over all their
// runs in which the newest mention of a triple wins, and every use of the
// directory is a sink of that one fold. walkWAL reads the log under them
// all, and under the replica's Follower, which folds nothing:
//
//	reader      folds                              ends at               a bad frame is
//	checkpoint  foldWAL of the sealed files        the rotation point    corruption
//	merge       foldChain of a suffix              the chain's end       n/a (segments are atomic)
//	recovery    foldHistory: chain, then log tail  the end of the log    cut in the last file; over the cap, corrupt
//	snapshot    foldHistory to the last commit     that write            corruption
//	Follower    nothing: walkWAL of one log body   its last whole write  ErrTorn, over the cap too
//
// A checkpoint and a merge stream their fold into a segment file
// (writeSegment); recovery streams it into the run the store is loaded
// from. Nothing composes two patches into a third in memory. The size-ratio
// merge policy lives here too.
//
// The on-disk chain is a classic size-tiered LSM shape: checkpoints append
// small young segments on the right, the background merge folds a suffix of
// the chain whenever the generations stop being size-separated, and the
// oldest segment (start == 1) absorbs tombstones terminally — merging into it
// drops them, because a patch against the empty state has nothing to remove.

// segMeta is the engine's in-memory accounting for one live segment file.
type segMeta struct {
	start, end uint64
	at         store.Position // the segment's stamp
	adds       int
	removes    int
	bytes      int64
}

// fold is the composition of adjacent patches, oldest first, over the window
// they cover together: seqs [start, end], and the names dictFirst onwards
// they mint. It holds the patches as they are and composes them only when a
// sink runs it (each): the composed adds are the triples whose newest
// mention is an add, and the composed tombstones those whose newest mention
// is a removal — none when the window starts at seq 1, because the patch
// then applies to the empty state. Adds and tombstones stay disjoint, and
// the dictionary windows are the patches' encoded regions in order. Its
// stamp is its newest patch's.
type fold struct {
	start, end uint64
	at         store.Position
	dictFirst  store.SymbolID
	names      int
	patches    []segmentData
}

// foldOf is the fold of one patch.
func foldOf(p segmentData) *fold {
	return &fold{start: p.start, end: p.end, at: p.at, dictFirst: p.dictFirst, names: p.dict.n, patches: []segmentData{p}}
}

// precede checks that a patch over [start, end] whose names begin at id
// dictFirst continues the fold: its seqs start right after the fold's end
// and its ids right after the fold's names.
func (f *fold) precede(start, end uint64, dictFirst store.SymbolID) error {
	if start != f.end+1 {
		return fmt.Errorf("durable: folding [%d, %d] onto [%d, %d]: windows not adjacent", start, end, f.start, f.end)
	}
	if dictFirst != f.dictFirst+store.SymbolID(f.names) {
		return fmt.Errorf("durable: folding [%d, %d] onto [%d, %d]: dictionary windows not contiguous (%d+%d names, then first id %d)",
			start, end, f.start, f.end, f.dictFirst, f.names, dictFirst)
	}
	return nil
}

// push appends the next-newer patch, which must continue the fold; the
// first patch pushed onto an empty fold opens its window.
func (f *fold) push(p segmentData) error {
	if len(f.patches) == 0 {
		*f = *foldOf(p)
		return nil
	}
	if err := f.precede(p.start, p.end, p.dictFirst); err != nil {
		return err
	}
	f.end, f.at = p.end, p.at
	f.names += p.dict.n
	f.patches = append(f.patches, p)
	return nil
}

// cursor is one run's position in a fold: head is the triple at the front of
// run, the rest of the run not yet passed.
type cursor struct {
	run  tripleRun
	head store.IDTriple
	add  bool
}

// each yields every triple the fold's patches mention, once, ascending, with
// add set when its newest mention is an add and clear for a tombstone; it
// skips tombstones when the window starts at seq 1, and stops when yield
// returns false. The cursors are ordered oldest patch first, and within a
// patch its removals before its adds, so the last cursor holding a triple is
// its newest mention — an add outranking a removal of the same patch, as
// applying a patch (tombstones, then adds) implies.
func (f *fold) each(yield func(t store.IDTriple, add bool) bool) {
	cs := make([]cursor, 0, 2*len(f.patches))
	for _, p := range f.patches {
		for _, c := range [2]cursor{{run: p.removes}, {run: p.adds, add: true}} {
			if len(c.run) > 0 {
				c.head = c.run.at(0)
				cs = append(cs, c)
			}
		}
	}
	for len(cs) > 0 {
		m := 0 // the first cursor holding the least head; none before it holds t
		for i := 1; i < len(cs); i++ {
			if cs[i].head.Less(cs[m].head) {
				m = i
			}
		}
		t, add := cs[m].head, false
		for i := m; i < len(cs); {
			c := &cs[i]
			if c.head != t {
				i++
				continue
			}
			add = c.add
			if c.run = c.run[12:]; len(c.run) == 0 {
				cs = slices.Delete(cs, i, i+1)
				continue
			}
			c.head = c.run.at(0)
			i++
		}
		if (add || f.start > 1) && !yield(t, add) {
			return
		}
	}
}

// count runs the fold once, counting the adds and tombstones it yields.
func (f *fold) count() (adds, removes int) {
	f.each(func(_ store.IDTriple, add bool) bool {
		if add {
			adds++
		} else {
			removes++
		}
		return true
	})
	return adds, removes
}

// dictionary decodes the fold's dictionary windows, oldest first, into one
// string per name.
func (f *fold) dictionary() []string {
	names := make([]string, 0, f.names)
	for _, p := range f.patches {
		names = p.dict.appendStrings(names)
	}
	return names
}

// errStopped is foldChain's report that its stop channel closed mid-fold.
var errStopped = errors.New("durable: fold stopped")

// foldChain is the package's one loop over segment files: it loads the
// adjacent segments chain names, oldest first, checks each carries the window
// its name claims, pushes it onto one fold, and fills every chain entry's
// accounting in from its file. A merge runs it over a suffix of the chain and
// streams the fold into the merged file; recovery runs it over all of it.
// stop is polled before each load — a closed one ends the fold with
// errStopped, so Close never waits out a long merge's reads; nil never stops.
func foldChain(d disk, chain []segMeta, stop <-chan struct{}) (*fold, error) {
	folded := &fold{}
	for k, m := range chain {
		select {
		case <-stop:
			return folded, errStopped
		default:
		}
		name := segmentName(m.start, m.end)
		data, err := d.readFile(name)
		if err != nil {
			return folded, fmt.Errorf("durable: reading segment: %w", err)
		}
		seg, err := decodeSegment(name, data)
		if err != nil {
			return folded, err
		}
		if seg.start != m.start || seg.end != m.end {
			return folded, fmt.Errorf("durable: segment %s claims internal window [%d, %d]", name, seg.start, seg.end)
		}
		chain[k] = segMeta{start: seg.start, end: seg.end, at: seg.at, adds: seg.adds.len(), removes: seg.removes.len(), bytes: seg.size}
		if err := folded.push(seg); err != nil {
			return folded, err
		}
	}
	return folded, nil
}

// foldHistory folds a whole history as recovery boots it and Engine.Snapshot
// serves it: the chain, which must start at seq 1 and id 0, then the wal
// files beyond it (foldWAL under st's policy) pushed onto the same fold —
// its last patch, whose dictFirst is where the chain's names end. Recovery
// passes the empty store it boots, st: the chain's names are restored into
// it before the log is walked, and the walk files the tail's names there
// too, so every name is checked once, against the whole dictionary, and the
// load that follows (loadFold) keeps them. A snapshot passes nil.
func foldHistory(d disk, chain []segMeta, firsts []uint64, datas [][]byte, st *store.Store) (*fold, walTail, error) {
	history, err := foldChain(d, chain, nil)
	if err == nil && len(chain) > 0 {
		err = (&fold{start: 1}).precede(history.start, history.end, history.dictFirst)
	}
	if err == nil && st != nil {
		if err = st.RestoreSorted(history.dictionary(), nil, 0); err != nil {
			err = fmt.Errorf("durable: restoring the chain's names: %w", err)
		}
	}
	if err != nil {
		return nil, walTail{}, err
	}
	log, live, err := foldWAL(d, firsts, datas, history.end, store.SymbolID(history.names), history.at, st)
	if err == nil {
		err = history.push(log)
	}
	return history, live, err
}

// The merge policy.
const (
	// mergeRatio is the size-separation factor between generations: a
	// segment is folded into the suffix being merged while its size is at
	// most the ratio times the combined size of everything younger. 4 keeps
	// the chain logarithmic in corpus size while bounding merge write
	// amplification to ~1/ratio of ingested bytes per generation.
	mergeRatio = 4.0
	// maxSegments force-merges the whole chain once it grows past this many
	// segments, whatever the sizes — a hard bound on how many files
	// recovery must open.
	maxSegments = 8
)

// pickMergeRun decides which suffix of the chain to merge: it grows the run
// from the newest segment leftwards while the next-older segment is within
// ratio× of the run's combined size, and returns the index the run starts at.
// ok is false when no merge is warranted (the generations are size-separated
// and the chain is short enough). sizes is ordered oldest→newest.
func pickMergeRun(sizes []int64, ratio float64) (int, bool) {
	n := len(sizes)
	if n < 2 {
		return 0, false
	}
	if n > maxSegments {
		return 0, true // chain too long: fold everything into one base segment
	}
	sum := sizes[n-1]
	i := n - 1
	for i > 0 && float64(sizes[i-1]) <= ratio*float64(sum) {
		i--
		sum += sizes[i]
	}
	return i, i < n-1
}

// logWalk is a walk of the log in progress, carried across records and the
// files of one log: the last seq read, the ids minted by then, whether a
// write's parts wait for its recWrite, and where the current file last stood
// whole — the offset just past its last record outside an open write, and
// that record's seq. A log cut there ends with its last whole write.
//
// dict, when set, is the dictionary the walk files each dictionary record's
// names in, at the ids the record gives them, holding them to the checks a
// store's dictionary makes when it is loaded: no empty name, no name under
// two ids. The readers that load what they read set it — recovery to the
// store it boots, which holds the chain's names, the Follower to its
// dictionary of everything its snapshot named — so a log both refuse is
// refused at the same record with the same words, and a tail name that
// repeats a chain name is refused there, not at the load. A checkpoint and a
// snapshot fold the log a running store wrote, whose dictionary holds
// neither, and skip the index it would cost.
type logWalk struct {
	seq, wholeSeq uint64
	ids           store.SymbolID
	open          bool
	whole         int
	dict          *store.Store
	names         []string // mint's scratch
}

// walkWAL is the package's one reading of the log: it walks the wal file (or
// log body) called name frame by frame — nextFrame, decodeRecord — holds each
// record to what a log means (the seq after w's, then w.read), and hands it to
// visit with the offsets it starts and ends at. Records at or below skip are
// passed over unseen: an interrupted cleanup's leftovers, or records a
// replica holds. It returns the offset it stopped at: len(data) after a clean
// walk, else the first byte that does not begin a whole, checksum-valid
// frame. Whether that is a torn tail or corruption, and what a write left
// open means, is the caller's policy. An error from visit ends the walk.
func walkWAL(name string, data []byte, skip uint64, w *logWalk, visit func(r record, off, next int) error) (int, error) {
	off := 0
	w.whole, w.wholeSeq = 0, w.seq
	for off < len(data) {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return off, fmt.Errorf("durable: %s: offset %d: %w", name, off, err)
		}
		if r.seq > skip {
			if r.seq != w.seq+1 {
				return off, fmt.Errorf("durable: %s: record at offset %d has seq %d, want %d; the log has a gap", name, off, r.seq, w.seq+1)
			}
			if err = w.read(r); err == nil {
				err = visit(r, off, next)
			}
			if err != nil {
				return off, fmt.Errorf("durable: %s: record %d: %w", name, r.seq, err)
			}
		}
		if off = next; !w.open {
			w.whole, w.wholeSeq = off, w.seq
		}
	}
	return off, nil
}

// read holds r, the next record, to the log's rules and moves the walk past
// it: a dictionary record continues the ids exactly — one that restates or
// skips an id disagrees with the reader about what an id names — a mutation
// names only ids minted by then, and a write is its recParts closed by a
// recWrite, with no dictionary record between.
func (w *logWalk) read(r record) error {
	if r.typ == recDict {
		if w.open {
			return errors.New("a dictionary record interrupts a chunked write")
		}
		if r.first != w.ids {
			return fmt.Errorf("dictionary record starts at id %d, want %d", r.first, w.ids)
		}
		if w.dict != nil {
			if err := w.mint(r); err != nil {
				return err
			}
		}
		w.ids += store.SymbolID(r.names.n)
	} else {
		for i := 0; i < r.triples.len(); i++ {
			if t := r.triples.at(i); t.S >= w.ids || t.P >= w.ids || t.O >= w.ids {
				return fmt.Errorf("triple %v names an id beyond the %d the dictionary had minted", t, w.ids)
			}
		}
		w.open = r.typ == recPart
	}
	w.seq = r.seq
	return nil
}

// mint files a dictionary record's names in w.dict, in id order, refusing
// the first that is empty or that the dictionary already holds under another
// id — in the words of the load's own refusal.
func (w *logWalk) mint(r record) error {
	w.names = r.names.appendStrings(w.names[:0])
	for i, name := range w.names {
		id := r.first + store.SymbolID(i)
		if name == "" {
			return fmt.Errorf("dictionary id %d is the empty string", id)
		}
		if got, _ := w.dict.Intern(name); got != id {
			return fmt.Errorf("dictionary repeats %q as ids %d and %d", name, min(got, id), max(got, id))
		}
	}
	return nil
}

// logPos is one write of the live log: the position its record names, its
// seq, and where its frame ends — the wal file's first seq and the offset
// just past the frame. A replica at that position is served from there on.
type logPos struct {
	at   store.Position
	seq  uint64
	file uint64
	end  int64
}

// walTail is what the tail sink's fold reports besides its patch: the
// position of every whole write in the live log, and the size of the last
// file (after a torn tail's cut) — the writer's starting offset there.
type walTail struct {
	writes []logPos
	size   int64
}

// readWAL reads the wal files named by firsts.
func readWAL(d disk, firsts []uint64) ([][]byte, error) {
	datas := make([][]byte, len(firsts))
	for i, first := range firsts {
		data, err := d.readFile(walFileName(first))
		if err != nil {
			return nil, fmt.Errorf("durable: reading log file: %w", err)
		}
		datas[i] = data
	}
	return datas, nil
}

// foldWAL folds the wal files named by firsts (their first seqs, ascending;
// datas holds their bytes), walked from dictNext, the chain's next id, into
// the patch over the window (after, end], where end is wherever the records
// stop, stamped with its last write's position — at, the chain's stamp, when
// it holds none. Dictionary records are concatenated, and per triple the LAST
// event wins: an add then a remove folds to a tombstone, a remove then a
// re-add to an add, and a record's adds come before its removes. Records at
// or below after are skipped and a file that starts there is a leftover of an
// interrupted cleanup; every other file must begin with the successor of the
// record before it.
//
// A frame that fails its framing is corruption: sealed files were fsynced by
// the rotation that closed them, which never splits a write. The one
// exception is the tail sink's — with st set the last file is the one a
// crash may have torn, so it is cut where the walk last stood whole, before a
// trailing run of parts whose recWrite never reached the disk as much as
// before a torn frame, and the fold ends there, the writer appending after
// the last good record instead of burying garbage mid-file. A length field
// beyond maxFramePayload is never a torn tail, wherever it sits: the writer
// chunks every record below the cap, so the claim proves damage to a frame
// header, and cutting there would silently discard every record after it.
// st is the store recovery boots, holding every name below dictNext: the
// tail sink walks with it as its dictionary (logWalk.dict), so what recovery
// loads is held to the load's checks at the record that breaks them, and the
// names are in st once the walk is done. A checkpoint passes nil. A cut
// drops no name the walk filed: a dictionary record never sits inside a
// write, so the walk stands whole just past each one.
func foldWAL(d disk, firsts []uint64, datas [][]byte, after uint64, dictNext store.SymbolID, at store.Position, st *store.Store) (segmentData, walTail, error) {
	seg := segmentData{start: after + 1, end: after, at: at, dictFirst: dictNext}
	var live walTail
	size := 0
	for _, data := range datas {
		size += len(data)
	}
	// The files are read first so the events are sized once: every triple
	// event costs 12 bytes of the window, so size/12 is room for them all.
	events := make([]walEvent, 0, size/12)
	whole := 0      // the events of the whole writes: a cut keeps these
	var data []byte // the file being walked
	var first uint64
	kept := 0 // how much of data's front holds its dictionary regions
	var regions [][]byte
	tail := st != nil
	w := logWalk{seq: after, ids: dictNext, dict: st}
	visit := func(r record, _, next int) error {
		if r.typ == recDict {
			// The walk is past these bytes and never reads them again: move
			// the region down behind the file's earlier ones, so the file's
			// buffer ends up carrying its whole dictionary window at its
			// front.
			kept += copy(data[kept:], r.names.enc)
			return nil
		}
		n := r.triples.len()
		if err := checkFoldEvents(len(events) + n); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			ev := walEvent{t: r.triples.at(i), key: uint32(len(events)) << 1}
			if i < r.nAdds {
				ev.key |= 1
			}
			events = append(events, ev)
		}
		if r.typ == recWrite {
			seg.at, whole = r.at, len(events)
			if tail {
				live.writes = append(live.writes, logPos{at: r.at, seq: r.seq, file: first, end: int64(next)})
			}
		}
		return nil
	}
	for i := range firsts {
		first = firsts[i]
		name := walFileName(first)
		if first > after && first != w.seq+1 {
			return seg, live, fmt.Errorf("durable: log file %s does not follow record %d; the log has a gap", name, w.seq)
		}
		data, kept = datas[i], 0
		off, err := walkWAL(name, data, after, &w, visit)
		if err != nil {
			return seg, live, err
		}
		if kept > 0 {
			regions = append(regions, data[:kept])
		}
		live.size = int64(len(data))
		if off == len(data) && !w.open {
			continue
		}
		if len(data)-off >= 4 {
			if claim := binary.LittleEndian.Uint32(data[off:]); claim > maxFramePayload {
				return seg, live, fmt.Errorf("durable: %s: frame at offset %d claims a %d-byte payload, beyond the %d-byte cap the writer enforces; the log is corrupt, not torn", name, off, claim, maxFramePayload)
			}
		}
		if !tail || i < len(firsts)-1 {
			if off < len(data) {
				return seg, live, fmt.Errorf("durable: %s: bad frame at offset %d in a sealed log file; the log is corrupt", name, off)
			}
			return seg, live, fmt.Errorf("durable: %s: a sealed log file ends inside a chunked write; the log is corrupt", name)
		}
		if err := d.truncate(name, int64(w.whole)); err != nil {
			return seg, live, fmt.Errorf("durable: truncating torn log tail: %w", err)
		}
		w.seq, events, live.size = w.wholeSeq, events[:whole], int64(w.whole)
	}
	seg.end, seg.dict.n = w.seq, int(w.ids-dictNext)
	if len(regions) == 1 {
		seg.dict.enc = regions[0]
	} else {
		seg.dict.enc = slices.Concat(regions...)
	}
	// Last event per triple wins. Sorting by (triple, log position) groups
	// each triple's history together in log order AND leaves the surviving
	// triples in (S, P, O) order — the segment runs fall out sorted for free.
	slices.SortFunc(events, func(a, b walEvent) int {
		return cmp.Or(cmp.Compare(a.t.S, b.t.S), cmp.Compare(a.t.P, b.t.P), cmp.Compare(a.t.O, b.t.O), cmp.Compare(a.key, b.key))
	})
	// Keep each triple's last event, in place, counting the adds among them;
	// then fill both runs at their exact sizes.
	last, adds := events[:0], 0
	for i, ev := range events {
		if i+1 < len(events) && events[i+1].t == ev.t {
			continue
		}
		last = append(last, ev)
		adds += int(ev.key & 1)
	}
	seg.adds = make(tripleRun, 0, 12*adds)
	if seg.start > 1 { // a patch against the empty state removes nothing
		seg.removes = make(tripleRun, 0, 12*(len(last)-adds))
	}
	for _, ev := range last {
		if ev.key&1 != 0 {
			seg.adds = appendTriple(seg.adds, ev.t)
		} else if seg.start > 1 {
			seg.removes = appendTriple(seg.removes, ev.t)
		}
	}
	return seg, live, nil
}

// walEvent is one triple event of a folded log window. key is the event's
// position in the log — records in seq order, a record's adds before its
// removes — shifted left by one, with the low bit set for an add: ordered by
// (t, key), a triple's events run in log order and its last one wins.
type walEvent struct {
	t   store.IDTriple
	key uint32
}

// maxFoldEvents is how many triple events one foldWAL can number: an event's
// position shares its uint32 key with the add bit.
const maxFoldEvents = 1 << 31

// checkFoldEvents refuses a window of n triple events when the packed
// position cannot number them all. Checkpoints bound a window by size, but
// with automatic checkpoints off a recovery tail has no bound.
func checkFoldEvents(n int) error {
	if uint64(n) > maxFoldEvents {
		return fmt.Errorf("the log window holds more than %d triple events, the most one fold can order; it cannot be folded", maxFoldEvents)
	}
	return nil
}
