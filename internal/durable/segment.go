package durable

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/store"
)

// This file is the segment format: an immutable delta file produced by
// compacting one window of the WAL. A segment named seg-<start>-<end> is a
// patch covering log records start..end: the dictionary names those records
// minted (ids dictFirst..dictFirst+count-1), the triples whose last event in
// the window was an insert (adds), and the triples whose last event was a
// removal (tombstones). Applying a chain of segments oldest→newest — subtract
// each segment's tombstones, union its adds — reproduces exactly the state
// the WAL prefix through the newest segment's end would build.
//
// Delta segments are what make checkpoints O(changed bytes) instead of
// O(corpus): a checkpoint folds only the WAL window it retires, and a
// background merge (see tier.go) folds young segments into older generations
// so the chain stays short. The oldest segment of a chain always starts at
// seq 1, and a segment starting at 1 carries no tombstones — a patch against
// the empty state has nothing to remove.
//
// Layout (integers little-endian). Every piece after the magic but the
// trailer is a frame, framed as the log frames its records (record.go: the
// payload's length and CRC-32C, then the payload), and no frame a writer
// makes outgrows a reader's buffer (readBufSize) unless one name does:
//
//	magic     "ONTOSEG4"                         8 bytes
//	names     frames, each a recDict body:       first uint32, count uint32,
//	                                             count × (uvarint n, n bytes)
//	triples   frames, each a recPart body:       nAdds uint32, nRemoves uint32,
//	                                             nAdds × (s, p, o uint32),
//	                                             nRemoves × (s, p, o uint32)
//	last      one frame:                         start, end uint64 (the window),
//	                                             gen uint64, digest 2 × uint64
//	                                             (the stamp: the position of the
//	                                             state through end), dictFirst,
//	                                             names uint32, adds, removes uint64
//	trailer   the last frame's offset uint64,
//	          "ONTOSEGE"                         16 bytes
//
// The name frames hold the names of ids dictFirst..dictFirst+names-1, in
// order. The triple frames are consecutive stretches of the patch's one
// stream of adds and tombstones, strictly ascending in (S, P, O) order: a
// frame holds its stretch's adds, then its tombstones. Every triple
// references only ids below dictFirst+names — the names of the whole chain
// prefix — and a segment starting at seq 1 holds no tombstones. Every
// consumer (the fold in tier.go, store.RestoreSorted) depends on these
// properties, so the reader holds each segment to them.
//
// A segment is written in one pass of its fold, which counts the totals on
// the way and puts them last (encodeSegment). Opening one reads its magic,
// its trailer and its last frame (openSegment); its cursor (reader.go) then
// reads every frame once, in file order, checking each frame's CRC before it
// hands out anything of it, and holds what it reads to the order, the bound
// and the totals as it goes.
//
// A segment becomes visible atomically: written to a .tmp name, fsynced,
// renamed into place, directory fsynced. Readers never see a half-written
// seg- file; a crash mid-checkpoint or mid-merge leaves a .tmp that recovery
// deletes — a torn merge is simply not-yet-merged, its inputs still on disk.
// A segment over the whole chain, start 1, is also what GET /repl/snapshot
// serves (serve.go).

// Segment magic strings. ONTOSEG1 (a full dump), ONTOSEG2 (a delta with no
// stamp) and ONTOSEG3 (runs counted up front, one CRC over the body) are the
// formats of older builds: the loader names them as such rather than
// misreading them.
const (
	segMagic   = "ONTOSEG4"
	segTrailer = "ONTOSEGE"
)

// Sizes of the segment format's fixed pieces.
const (
	// lastSize is the last frame's payload.
	lastSize = 8 + 8 + 24 + 4 + 4 + 8 + 8
	// tailSize is the last frame and the trailer: what opening a segment
	// reads besides its magic.
	tailSize = frameHeader + lastSize + 8 + 8 // the trailer: an offset and segTrailer
	// frameTriples is the most triples one triple frame holds: the frame,
	// its header and counts included, fills at most one reader's buffer.
	frameTriples = (readBufSize - frameHeader - 8) / 12
)

// segmentData is one patch: a segment file, opened (openSegment), or a
// folded log window (foldWAL). Its totals are known before it is read — a
// segment's last frame claims them — and a cursor (reader.go) reads it.
type segmentData struct {
	start, end uint64         // WAL seq window [start, end], start ≥ 1
	at         store.Position // the stamp: the position of the state through end
	dictFirst  store.SymbolID
	// dict is the names of ids dictFirst..dictFirst+dict.N-1: their bytes
	// in Enc for a log window, in its name frames for a segment.
	dict          store.NameRun
	adds, removes int // its triples' totals; no tombstones when start == 1
	// events is a log window's triples, strictly ascending, each its last
	// event in the window, the add bit in key.
	events []walEvent
	src    io.ReaderAt // a segment's file; nil for a log window
	size   int64       // the file's size
	file   string      // what errors name it by
}

// tripleRun is a run of triples in the form a segment file and a mutation
// record carry them: 12 bytes each, (s, p, o) as little-endian uint32s.
type tripleRun []byte

// len is how many triples the run holds.
func (r tripleRun) len() int { return len(r) / 12 }

// at decodes the run's i-th triple.
func (r tripleRun) at(i int) store.IDTriple { return decodeTriple(r[12*i:]) }

// segmentName names the segment covering WAL records start..end. Both bounds
// are in the name so a merged segment never collides with its inputs and
// recovery can chain tiers without opening every file.
func segmentName(start, end uint64) string {
	return fmt.Sprintf("seg-%016d-%016d.seg", start, end)
}

// parseSegmentName extracts the window from a "seg-%016d-%016d.seg" name.
func parseSegmentName(name string) (start, end uint64, ok bool) {
	const prefix, ext = "seg-", ".seg"
	if len(name) != len(prefix)+16+1+16+len(ext) {
		return 0, 0, false
	}
	if name[:len(prefix)] != prefix || name[len(name)-len(ext):] != ext || name[len(prefix)+16] != '-' {
		return 0, 0, false
	}
	var err error
	if start, err = parseSeq(name[len(prefix) : len(prefix)+16]); err != nil {
		return 0, 0, false
	}
	if end, err = parseSeq(name[len(prefix)+17 : len(prefix)+33]); err != nil {
		return 0, 0, false
	}
	return start, end, true
}

// writeSegment streams the fold into the segment file for its window and
// publishes it, returning the new segment's accounting, its size the bytes
// it wrote. A stop channel closed before the rename abandons the publish with
// errStopped, so Close never waits out a merge's write; nil never stops. On
// any failure the .tmp is removed.
func writeSegment(d disk, fd *fold, stop <-chan struct{}) (meta segMeta, retErr error) {
	meta = segMeta{start: fd.start, end: fd.end, at: fd.at}
	final := segmentName(fd.start, fd.end)
	tmp := final + ".tmp"
	f, err := d.create(tmp)
	if err != nil {
		return meta, fmt.Errorf("durable: creating segment: %w", err)
	}
	defer func() {
		if retErr != nil {
			f.Close()
			_ = d.remove(tmp) // if this fails too, recovery deletes the .tmp
		}
	}()
	bw := bufio.NewWriterSize(f, 64<<10)
	if meta.bytes, meta.adds, meta.removes, err = encodeSegment(bw, fd); err != nil {
		return meta, err
	}
	if err := bw.Flush(); err != nil {
		return meta, fmt.Errorf("durable: flushing segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return meta, fmt.Errorf("durable: fsyncing segment: %w", err)
	}
	select {
	case <-stop:
		return meta, errStopped
	default:
	}
	if err := f.Close(); err != nil {
		return meta, fmt.Errorf("durable: closing segment: %w", err)
	}
	if err := d.rename(tmp, final); err != nil {
		return meta, fmt.Errorf("durable: publishing segment: %w", err)
	}
	if err := d.syncDir("."); err != nil {
		return meta, fmt.Errorf("durable: fsyncing directory: %w", err)
	}
	return meta, nil
}

// encodeSegment streams the fold into w in the segment format, in one pass:
// its names into name frames (fold.nameRuns), then its one sorted stream of
// adds and tombstones into triple frames (fold.each), counting them, then
// the totals in the last frame, and the trailer. It returns the bytes it
// wrote and the totals.
func encodeSegment(w io.Writer, fd *fold) (n int64, adds, removes int, err error) {
	sw := segWriter{w: w, pay: make([]byte, 0, readBufSize), out: make([]byte, 0, readBufSize)}
	sw.write([]byte(segMagic))
	id := fd.dictFirst
	err = fd.nameRuns(func(run store.NameRun) error {
		for enc := run.Enc; len(enc) > 0 && sw.err == nil; id++ {
			l, k := binary.Uvarint(enc) // a frame's names were scanned when it was read
			sw.name(id, enc[:k+int(l)])
			enc = enc[k+int(l):]
		}
		return sw.err
	})
	sw.flushNames()
	if err == nil {
		err = fd.each(func(t store.IDTriple, add bool) bool {
			sw.triple(t, add)
			return sw.err == nil
		})
	}
	sw.flushTriples()
	if err = cmp.Or(err, sw.err); err != nil {
		return 0, 0, 0, err
	}
	last := segmentData{start: fd.start, end: fd.end, at: fd.at, dictFirst: fd.dictFirst, dict: store.NameRun{N: fd.names}, adds: sw.adds, removes: sw.removes}
	at := sw.n
	sw.frame(last.appendLast(sw.pay[:0]))
	sw.write(append(binary.LittleEndian.AppendUint64(sw.pay[:0], uint64(at)), segTrailer...))
	return sw.n, sw.adds, sw.removes, sw.err
}

// segWriter frames a segment as encodeSegment writes it, counting the bytes
// it writes and the triples. pay is the payload of the frame being filled —
// kept names, or kept triples of which the tombstones wait in rems, to
// follow the adds — and out the frame as written.
type segWriter struct {
	w                   io.Writer
	n                   int64
	err                 error
	pay, rems, out      []byte
	kept, adds, removes int
}

// write writes p, unless an earlier write failed.
func (sw *segWriter) write(p []byte) {
	if sw.err != nil {
		return
	}
	k, err := sw.w.Write(p)
	sw.n += int64(k)
	if err != nil {
		sw.err = fmt.Errorf("durable: writing segment: %w", err)
	}
}

// frame writes payload as a frame.
func (sw *segWriter) frame(payload []byte) {
	sw.out = appendFrame(sw.out[:0], payload)
	sw.write(sw.out)
}

// name keeps the encoded name b of id in the name frame being filled,
// writing that frame first when b would overfill it.
func (sw *segWriter) name(id store.SymbolID, b []byte) {
	if sw.kept > 0 && frameHeader+len(sw.pay)+len(b) > readBufSize {
		sw.flushNames()
	}
	if sw.kept == 0 {
		sw.pay = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(sw.pay[:0], id), 0)
	}
	sw.pay = append(sw.pay, b...)
	sw.kept++
}

// flushNames writes the name frame being filled, if it holds a name.
func (sw *segWriter) flushNames() {
	if sw.kept > 0 {
		binary.LittleEndian.PutUint32(sw.pay[4:], uint32(sw.kept))
		sw.frame(sw.pay)
		sw.kept = 0
	}
}

// triple keeps the next triple of the stream in the triple frame being
// filled, writing that frame first when it is full.
func (sw *segWriter) triple(t store.IDTriple, add bool) {
	if sw.kept == frameTriples {
		sw.flushTriples()
	}
	if sw.kept == 0 {
		sw.pay, sw.rems = append(sw.pay[:0], 0, 0, 0, 0, 0, 0, 0, 0), sw.rems[:0]
	}
	if add {
		sw.pay = appendTriple(sw.pay, t)
		sw.adds++
	} else {
		sw.rems = appendTriple(sw.rems, t)
		sw.removes++
	}
	sw.kept++
}

// flushTriples writes the triple frame being filled, if it holds a triple:
// its counts, its adds, then its tombstones.
func (sw *segWriter) flushTriples() {
	if sw.kept > 0 {
		removes := len(sw.rems) / 12
		binary.LittleEndian.PutUint32(sw.pay, uint32(sw.kept-removes))
		binary.LittleEndian.PutUint32(sw.pay[4:], uint32(removes))
		sw.pay = append(sw.pay, sw.rems...)
		sw.frame(sw.pay)
		sw.kept = 0
	}
}

// appendLast appends the payload of seg's last frame to dst.
func (seg *segmentData) appendLast(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seg.start)
	dst = binary.LittleEndian.AppendUint64(dst, seg.end)
	dst = binary.LittleEndian.AppendUint64(dst, seg.at.Gen)
	dst = binary.LittleEndian.AppendUint64(dst, seg.at.Digest[0])
	dst = binary.LittleEndian.AppendUint64(dst, seg.at.Digest[1])
	dst = binary.LittleEndian.AppendUint32(dst, seg.dictFirst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(seg.dict.N))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(seg.adds))
	return binary.LittleEndian.AppendUint64(dst, uint64(seg.removes))
}

// openSegment opens the segment file called name, size bytes in src: it
// reads the magic, the trailer and the last frame, and holds the totals the
// last frame claims to the bytes the frames before it have, so that nothing
// sized by them outgrows the file. Any framing violation is an error:
// segments are published atomically, so a damaged one means real
// corruption, never a torn write to tolerate. The frames are read later,
// once, by the patch's cursor.
func openSegment(name string, src io.ReaderAt, size int64) (segmentData, error) {
	seg := segmentData{src: src, size: size, file: name}
	var magic [len(segMagic)]byte
	var tail [tailSize]byte
	if err := readAt(src, magic[:min(size, int64(len(magic)))], 0); err != nil {
		return seg, fmt.Errorf("durable: reading segment %s: %w", name, err)
	}
	switch magic := string(magic[:min(size, int64(len(magic)))]); magic {
	case segMagic:
	case "ONTOSEG1", "ONTOSEG2", "ONTOSEG3":
		return seg, fmt.Errorf("durable: segment %s is in the %s format of an older build of this engine, which this build does not read", name, magic)
	default:
		return seg, fmt.Errorf("durable: segment %s has a bad magic header", name)
	}
	body := size - int64(len(segMagic)+tailSize) // the name and triple frames
	if body < 0 {
		return seg, fmt.Errorf("durable: segment %s is %d bytes, too short to be valid", name, size)
	}
	if err := readAt(src, tail[:], size-tailSize); err != nil {
		return seg, fmt.Errorf("durable: reading segment %s: %w", name, err)
	}
	if string(tail[tailSize-len(segTrailer):]) != segTrailer {
		return seg, fmt.Errorf("durable: segment %s has a bad trailer (truncated checkpoint?)", name)
	}
	if off := binary.LittleEndian.Uint64(tail[frameHeader+lastSize:]); off != uint64(size-tailSize) {
		return seg, fmt.Errorf("durable: segment %s: its trailer puts its last frame at offset %d, not %d", name, off, size-tailSize)
	}
	last, _, ok := nextFrame(tail[:frameHeader+lastSize], 0)
	if !ok || len(last) != lastSize {
		return seg, fmt.Errorf("durable: segment %s fails its checksum", name)
	}
	seg.start = binary.LittleEndian.Uint64(last)
	seg.end = binary.LittleEndian.Uint64(last[8:])
	if seg.start < 1 || seg.end+1 < seg.start { // an empty window is a snapshot of an empty log
		return seg, fmt.Errorf("durable: segment %s claims window [%d, %d]", name, seg.start, seg.end)
	}
	seg.at = store.Position{Gen: binary.LittleEndian.Uint64(last[16:]), Digest: store.Digest{
		binary.LittleEndian.Uint64(last[24:]), binary.LittleEndian.Uint64(last[32:])}}
	seg.dictFirst = binary.LittleEndian.Uint32(last[40:])
	names := binary.LittleEndian.Uint32(last[44:])
	if uint64(seg.dictFirst)+uint64(names) > 1<<32-1 {
		return seg, fmt.Errorf("durable: segment %s dictionary window %d+%d overflows the id space", name, seg.dictFirst, names)
	}
	if int64(names) > body { // every name costs ≥1 length byte
		return seg, fmt.Errorf("durable: segment %s claims %d dictionary names in %d bytes", name, names, body)
	}
	// Validate by division, not multiplication: 12*count would wrap for a
	// corrupt count near 2^64 and sneak past a comparison.
	room := uint64(body) / 12
	adds, removes := binary.LittleEndian.Uint64(last[48:]), binary.LittleEndian.Uint64(last[56:])
	if adds > room {
		return seg, fmt.Errorf("durable: segment %s claims %d add triples but carries %d bytes", name, adds, body)
	}
	if removes > room-adds {
		return seg, fmt.Errorf("durable: segment %s claims %d remove triples but carries %d bytes", name, removes, body)
	}
	if seg.start == 1 && removes > 0 {
		return seg, fmt.Errorf("durable: segment %s starts at seq 1 but claims %d tombstones", name, removes)
	}
	seg.dict.N, seg.adds, seg.removes = int(names), int(adds), int(removes)
	return seg, nil
}
