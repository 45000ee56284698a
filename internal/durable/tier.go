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
// then the wal files beyond them (record.go). A patch's names and triples
// stay where they lie: in a segment file's frames, or in memory for a folded
// log window. A fold composes adjacent patches, oldest first, in one k-way
// pass over their sorted streams in which the newest mention of a triple
// wins, and every use of the directory is a sink of that one fold. Every
// file is read through a fixed buffer (reader.go), never whole; the disk's
// open is the one read door. walkWAL reads the log under them all, and under
// the replica's Follower, which folds nothing:
//
//	reader      folds                              reads                                ends at               a bad frame is
//	checkpoint  foldWAL of the sealed files        each file twice: count, then fold    the rotation point    corruption
//	merge       foldChain of a suffix              each segment once: names, triples    the chain's end       corruption (segments are atomic)
//	recovery    foldHistory: chain, then log tail  both of the above                    the end of the log    cut in the last file; over the cap, corrupt
//	snapshot    foldHistory to the last commit     both, the last file to its cut       that write            corruption
//	Follower    nothing: walkWAL of one log body   the body, through a bytes.Reader     its last whole write  ErrTorn, over the cap too
//
// A checkpoint and a merge stream their fold into a segment file
// (writeSegment); recovery streams it into the run the store is loaded
// from. Nothing composes two patches into a third in memory. Each patch is
// read by one cursor, which checks a frame's CRC before it hands out
// anything of it and holds the stream to its order, its id bound and its
// totals as it reads, so a merge reads each input once and publishes only
// bytes the pass that read them checked. The size-ratio merge policy lives
// here too.
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
// sink runs it: the composed names are the patches' names in order
// (nameRuns), the composed adds the triples whose newest mention is an add,
// and the composed tombstones those whose newest mention is a removal — none
// when the window starts at seq 1, because the patch then applies to the
// empty state (each). Adds and tombstones stay disjoint. Its stamp is its
// newest patch's.
//
// A fold reads each patch through one cursor (reader.go), which a pass over
// the names and then one over the triples read once, in file order; a file's
// cursor reads through a buffer of readBuf bytes (readBufSize if zero). files
// are the segment files its patches lie in, which close closes.
type fold struct {
	start, end uint64
	at         store.Position
	dictFirst  store.SymbolID
	names      int
	patches    []segmentData
	readBuf    int
	files      []source
	cursors    []cursor
}

// foldOf is the fold of one patch.
func foldOf(p segmentData) *fold {
	f := &fold{}
	_ = f.push(p) // the first patch opens the fold's window
	return f
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
		f.start, f.dictFirst = p.start, p.dictFirst
	} else if err := f.precede(p.start, p.end, p.dictFirst); err != nil {
		return err
	}
	f.end, f.at = p.end, p.at
	f.names += p.dict.N
	f.patches = append(f.patches, p)
	return nil
}

// close closes the files the fold's patches lie in.
func (f *fold) close() {
	for _, src := range f.files {
		src.Close()
	}
	f.files = nil
}

// cursor returns the cursor of the fold's i-th patch standing before the
// patch's names, or with triples set before its triples, past names it reads
// on the way. A cursor that already stands there is left there, so a pass
// over the names and then one over the triples read each patch once. The
// first call allocates every patch's cursor, so none moves once handed out.
func (f *fold) cursor(i int, triples bool) (*cursor, error) {
	for len(f.cursors) < len(f.patches) {
		f.cursors = append(f.cursors, cursor{})
	}
	c := &f.cursors[i]
	if triples && c.at == atNamed {
		return c, nil
	}
	c.reset(f.patches[i], cmp.Or(f.readBuf, readBufSize))
	if triples {
		return c, c.readNames(nil)
	}
	return c, nil
}

// nameRuns hands yield the fold's names, oldest patch first, in id order: a
// log window's as one run, a segment's a frame at a time, valid until yield
// returns. It stops at yield's first error.
func (f *fold) nameRuns(yield func(store.NameRun) error) error {
	for i := range f.patches {
		c, err := f.cursor(i, false)
		if err == nil {
			err = c.readNames(yield)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dictionary reads the fold's names into runs, a segment's one a frame:
// the runs a store restores its dictionary from (store.RestoreSorted), which
// keeps their bytes as its name pages.
func (f *fold) dictionary() ([]store.NameRun, error) {
	var runs []store.NameRun
	err := f.nameRuns(func(run store.NameRun) error {
		runs = append(runs, store.NameRun{N: run.N, Enc: slices.Clone(run.Enc)})
		return nil
	})
	return runs, err
}

// each yields every triple the fold's patches mention, once, ascending, with
// add set when its newest mention is an add and clear for a tombstone; it
// skips tombstones when the window starts at seq 1, and stops when yield
// returns false. It merges one cursor a patch, ordered oldest patch first,
// so the last cursor holding a triple is its newest mention. A cursor that
// finds its segment damaged ends the pass with an error — at the latest at
// the segment's end, before the pass does.
func (f *fold) each(yield func(t store.IDTriple, add bool) bool) error {
	cs := make([]*cursor, 0, len(f.patches))
	for i := range f.patches {
		c, err := f.cursor(i, true)
		if err != nil {
			return err
		}
		if ok, err := c.next(); err != nil {
			return err
		} else if ok {
			cs = append(cs, c)
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
			c := cs[i]
			if c.head != t {
				i++
				continue
			}
			add = c.add
			if ok, err := c.next(); err != nil {
				return err
			} else if !ok {
				cs = slices.Delete(cs, i, i+1)
				continue
			}
			i++
		}
		if (add || f.start > 1) && !yield(t, add) {
			return nil
		}
	}
	return nil
}

// errStopped is foldChain's report that its stop channel closed mid-fold.
var errStopped = errors.New("durable: fold stopped")

// foldChain is the package's one loop over segment files: it opens the
// adjacent segments chain names, oldest first (openSegment: the magic, the
// trailer and the last frame), checks each carries the window its name
// claims, pushes it onto one fold, and fills every chain entry's accounting
// in from its last frame. The fold keeps the files open, reading their
// frames as it runs; the caller closes it.
// A merge runs it over a suffix of the chain and streams the fold into the
// merged file; recovery runs it over all of it. stop is polled before each
// open — a closed one ends the fold with errStopped, so Close never waits
// out a long merge's reads; nil never stops. On an error nothing is left
// open.
func foldChain(d disk, chain []segMeta, stop <-chan struct{}) (*fold, error) {
	folded := &fold{readBuf: d.readBuf()}
	for k, m := range chain {
		if err := folded.open(d, m, stop); err != nil {
			folded.close()
			return nil, err
		}
		p := folded.patches[len(folded.patches)-1]
		chain[k] = segMeta{start: p.start, end: p.end, at: p.at, adds: p.adds, removes: p.removes, bytes: p.size}
	}
	return folded, nil
}

// open opens the segment m names and pushes it.
func (f *fold) open(d disk, m segMeta, stop <-chan struct{}) error {
	select {
	case <-stop:
		return errStopped
	default:
	}
	name := segmentName(m.start, m.end)
	src, err := d.open(name)
	if err != nil {
		return fmt.Errorf("durable: reading segment: %w", err)
	}
	f.files = append(f.files, src)
	seg, err := openSegment(name, src, src.Size())
	if err != nil {
		return err
	}
	if seg.start != m.start || seg.end != m.end {
		return fmt.Errorf("durable: segment %s claims internal window [%d, %d]", name, seg.start, seg.end)
	}
	return f.push(seg)
}

// foldHistory folds a whole history as recovery boots it and Engine.Snapshot
// serves it: the chain, which must start at seq 1 and id 0, then the wal
// files beyond it (foldWAL under st's policy, the last cut at cut bytes when
// cut ≥ 0) pushed onto the same fold — its last patch, whose dictFirst is
// where the chain's names end. Recovery passes the empty store it boots, st:
// the chain's names are restored into it, a run a name frame as it was read,
// before foldWAL walks the log, whose walk mints the tail's names after them,
// so every name is checked once, against the whole dictionary, and the load
// that follows (loadFold) keeps them. A snapshot passes nil. The caller
// closes the fold.
func foldHistory(d disk, chain []segMeta, firsts []uint64, cut int64, st *store.Store) (*fold, walTail, error) {
	history, err := foldChain(d, chain, nil)
	if err != nil {
		return nil, walTail{}, err
	}
	if len(chain) > 0 {
		err = (&fold{start: 1}).precede(history.start, history.end, history.dictFirst)
	}
	if err == nil && st != nil {
		var names []store.NameRun
		if names, err = history.dictionary(); err == nil {
			err = st.RestoreSorted(names, nil, 0)
		}
		if err != nil {
			err = fmt.Errorf("durable: restoring the chain's names: %w", err)
		}
	}
	var log segmentData
	var live walTail
	if err == nil {
		log, live, err = foldWAL(d, firsts, cut, history.end, store.SymbolID(history.names), history.at, st)
	}
	if err == nil {
		err = history.push(log)
	}
	if err != nil {
		history.close()
		return nil, live, err
	}
	return history, live, nil
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
}

// walkWAL is the package's one reading of the log: it walks the wal file (or
// log body) called name frame by frame through rd — reader.frame,
// decodeRecord — holds each record to what a log means (the seq after w's,
// then w.read), and hands it to visit with the offsets it starts and ends
// at. Records at or below skip are passed over unseen: an interrupted
// cleanup's leftovers, or records a replica holds. It returns the offset it
// stopped at, rd standing there: the stretch's end after a clean walk, else
// the first byte that does not begin a whole, checksum-valid frame. Whether
// that is a torn tail or corruption, and what a write left open means, is the
// caller's policy. An error from visit, or from reading, ends the walk.
func walkWAL(name string, rd *reader, skip uint64, w *logWalk, visit func(r record, off, next int) error) (int, error) {
	start, off := rd.pos, 0
	w.whole, w.wholeSeq = 0, w.seq
	for rd.left() > 0 {
		payload, ok, err := rd.frame()
		if err != nil {
			return off, fmt.Errorf("durable: reading %s: %w", name, err)
		}
		if !ok {
			break
		}
		next := int(rd.pos - start)
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
		w.ids += store.SymbolID(r.names.N)
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
// id — in the words of the load's own refusal. The names are read where they
// lie in the record; the dictionary copies them.
func (w *logWalk) mint(r record) error {
	enc := r.names.Enc
	for i, off := 0, 0; i < r.names.N; i++ {
		n, k := binary.Uvarint(enc[off:])
		name := enc[off+k : off+k+int(n)]
		off += k + int(n)
		id := r.first + store.SymbolID(i)
		if len(name) == 0 {
			return fmt.Errorf("dictionary id %d is the empty string", id)
		}
		if got, _ := w.dict.InternBytes(name); got != id {
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

// logFiles is a window of the log open for reading: the wal files named by
// firsts, the bytes of each a walk reads (sizes), and the frame buffer every
// walk of them reuses, grown only to the largest frame.
type logFiles struct {
	firsts []uint64
	srcs   []source
	sizes  []int64
	buf    []byte
}

// openLog opens the wal files named by firsts for walking, the last of them
// cut at cut bytes when cut ≥ 0. On an error nothing is left open.
func openLog(d disk, firsts []uint64, cut int64) (*logFiles, error) {
	l := &logFiles{firsts: firsts, buf: make([]byte, d.readBuf())}
	for i, first := range firsts {
		src, err := d.open(walFileName(first))
		if err != nil {
			l.close()
			return nil, fmt.Errorf("durable: reading log file: %w", err)
		}
		size := src.Size()
		if i == len(firsts)-1 && cut >= 0 {
			size = min(size, cut)
		}
		l.srcs, l.sizes = append(l.srcs, src), append(l.sizes, size)
	}
	return l, nil
}

func (l *logFiles) close() {
	for _, src := range l.srcs {
		src.Close()
	}
}

// walk walks the i-th file with walkWAL, keeping the frame buffer it grew.
func (l *logFiles) walk(i int, skip uint64, w *logWalk, visit func(r record, off, next int) error) (int, *reader, error) {
	rd := newReader(l.srcs[i], 0, l.sizes[i], l.buf)
	off, err := walkWAL(walFileName(l.firsts[i]), &rd, skip, w, visit)
	l.buf = rd.buf
	return off, &rd, err
}

// walCount is what a counting walk of a log window finds: its triple events
// and the bytes of its names.
type walCount struct {
	events, dictBytes int
}

// count walks the window once, as foldWAL's second walk will, counting what
// it will keep. It stops where the walk stops, at the first fault, and
// reports only a failed read: the second walk meets a fault in what was read
// at the same record, or at an earlier one its dictionary refuses.
func (l *logFiles) count(after uint64, dictNext store.SymbolID) (walCount, error) {
	var c walCount
	w := logWalk{seq: after, ids: dictNext}
	for i := range l.firsts {
		_, rd, err := l.walk(i, after, &w, func(r record, _, _ int) error {
			if r.typ == recDict {
				c.dictBytes += len(r.names.Enc)
			} else {
				c.events += r.triples.len()
			}
			return nil
		})
		if rd.err != nil {
			return c, err
		}
		if err != nil {
			break
		}
	}
	return c, nil
}

// foldWAL folds the wal files named by firsts (their first seqs, ascending;
// the last cut at cut bytes when cut ≥ 0), walked from dictNext, the chain's
// next id, into the patch over the window (after, end], where end is
// wherever the records stop, stamped with its last write's position — at,
// the chain's stamp, when it holds none. Dictionary records are
// concatenated, and per triple the LAST event wins: an add then a remove
// folds to a tombstone, a remove then a re-add to an add, and a record's adds
// come before its removes. Records at or below after are skipped and a file
// that starts there is a leftover of an interrupted cleanup; every other
// file must begin with the successor of the record before it.
//
// The files are walked twice, through one frame buffer: the first walk
// counts the window's triple events and dictionary bytes, so the second
// allocates the events and the dictionary window once, at their size, and
// fills them.
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
// second walk files the names with it as its dictionary
// (logWalk.dict), so what recovery loads is held to the load's checks at the
// record that breaks them, and the names are in st once the walk is done. A
// checkpoint and a snapshot pass nil. A cut drops no name the walk filed: a
// dictionary record never sits inside a write, so the walk stands whole just
// past each one.
func foldWAL(d disk, firsts []uint64, cut int64, after uint64, dictNext store.SymbolID, at store.Position, st *store.Store) (segmentData, walTail, error) {
	seg := segmentData{start: after + 1, end: after, at: at, dictFirst: dictNext, file: "(the log window)"}
	var live walTail
	log, err := openLog(d, firsts, cut)
	if err != nil {
		return seg, live, err
	}
	defer log.close()
	c, err := log.count(after, dictNext)
	if err != nil {
		return seg, live, err
	}
	events := make([]walEvent, 0, min(c.events, maxFoldEvents))
	dict := make([]byte, 0, c.dictBytes)
	whole := 0 // the events of the whole writes: a cut keeps these
	var first uint64
	tail := st != nil
	w := logWalk{seq: after, ids: dictNext, dict: st}
	visit := func(r record, _, next int) error {
		if r.typ == recDict {
			dict = append(dict, r.names.Enc...)
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
		off, rd, err := log.walk(i, after, &w, visit)
		if err != nil {
			return seg, live, err
		}
		size := int(log.sizes[i])
		live.size = int64(size)
		if off == size && !w.open {
			continue
		}
		if size-off >= 4 {
			h, err := rd.peek(4)
			if err != nil {
				return seg, live, fmt.Errorf("durable: reading %s: %w", name, err)
			}
			if claim := binary.LittleEndian.Uint32(h); claim > maxFramePayload {
				return seg, live, fmt.Errorf("durable: %s: frame at offset %d claims a %d-byte payload, beyond the %d-byte cap the writer enforces; the log is corrupt, not torn", name, off, claim, maxFramePayload)
			}
		}
		if !tail || i < len(firsts)-1 {
			if off < size {
				return seg, live, fmt.Errorf("durable: %s: bad frame at offset %d in a sealed log file; the log is corrupt", name, off)
			}
			return seg, live, fmt.Errorf("durable: %s: a sealed log file ends inside a chunked write; the log is corrupt", name)
		}
		if err := d.truncate(name, int64(w.whole)); err != nil {
			return seg, live, fmt.Errorf("durable: truncating torn log tail: %w", err)
		}
		w.seq, events, live.size = w.wholeSeq, events[:whole], int64(w.whole)
	}
	seg.end, seg.dict = w.seq, store.NameRun{N: int(w.ids - dictNext), Enc: dict}
	// Last event per triple wins. Sorting by (triple, log position) groups
	// each triple's history together in log order AND leaves the surviving
	// triples in (S, P, O) order — the patch's stream falls out sorted for
	// free.
	slices.SortFunc(events, func(a, b walEvent) int {
		return cmp.Or(cmp.Compare(a.t.S, b.t.S), cmp.Compare(a.t.P, b.t.P), cmp.Compare(a.t.O, b.t.O), cmp.Compare(a.key, b.key))
	})
	// Keep each triple's last event, in place — the stream the patch's
	// cursor reads — counting the adds among them.
	last := events[:0]
	for i, ev := range events {
		if i+1 < len(events) && events[i+1].t == ev.t {
			continue
		}
		if ev.key&1 == 0 && seg.start == 1 {
			continue // a patch against the empty state removes nothing
		}
		last = append(last, ev)
		seg.adds += int(ev.key & 1)
	}
	seg.events, seg.removes = last, len(last)-seg.adds
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
