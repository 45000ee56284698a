package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// Layout (integers little-endian):
//
//	magic     "ONTOSEG3"                       8 bytes
//	start     uint64                           first WAL seq the segment covers
//	end       uint64                           last WAL seq the segment covers
//	gen       uint64                           the stamp: the store.Position of
//	digest    2 × uint64                       the state through end
//	dictFirst uint32                           id of the first name below
//	dict      count uint32,
//	          count × (uvarint n, n bytes)     names for ids dictFirst..dictFirst+count-1
//	adds      count uint64,
//	          count × (s, p, o uint32)         net inserts, sorted by (s, p, o)
//	removes   count uint64,
//	          count × (s, p, o uint32)         net removals (tombstones), sorted
//	crc       uint32                           CRC-32C of everything above
//	trailer   "ONTOSEGE"                       8 bytes
//
// Both triple runs are strictly sorted and reference only ids below
// dictFirst+count of the whole chain prefix — properties the loader verifies,
// because every consumer (the fold in tier.go, store.RestoreSorted) depends
// on them. The loader keeps each run as its checked bytes, which are the
// tripleRun a fold reads.
//
// A segment becomes visible atomically: written to a .tmp name, fsynced,
// renamed into place, directory fsynced. Readers never see a half-written
// seg- file; a crash mid-checkpoint or mid-merge leaves a .tmp that recovery
// deletes — a torn merge is simply not-yet-merged, its inputs still on disk.
// A segment over the whole chain, start 1, is also what GET /repl/snapshot
// serves (serve.go).

// Segment magic strings. ONTOSEG1 (a full dump) and ONTOSEG2 (a delta with
// no stamp) are the formats of older builds: the loader names them as such
// rather than misreading them.
const (
	segMagic   = "ONTOSEG3"
	segTrailer = "ONTOSEGE"
)

// segmentData is one patch: a decoded segment, or a folded log window.
type segmentData struct {
	start, end uint64         // WAL seq window [start, end], start ≥ 1
	at         store.Position // the stamp: the position of the state through end
	dictFirst  store.SymbolID
	dict       nameRun   // the names of ids dictFirst..dictFirst+dict.n-1
	adds       tripleRun // sorted (S, P, O), strictly ascending
	removes    tripleRun // sorted tombstones; empty when start == 1
	size       int64     // file size; set by decodeSegment, informative only
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

// crcWriter feeds every written byte to both the file and the running
// checksum, so the footer CRC covers exactly the bytes on disk before it, and
// counts them.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.n += int64(n)
	return n, err
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

// encodeSegment streams the fold into w in the segment format and returns
// the bytes it wrote and the runs' sizes. The fold runs twice: once to count
// each run, because a run's count comes before it in the format, and once to
// write — the adds, then the tombstones if the count found any. The
// dictionary regions are written one after another, as they lie. A fold
// yields its runs sorted; the loader verifies it on the way back in.
func encodeSegment(w io.Writer, fd *fold) (n int64, adds, removes int, retErr error) {
	adds, removes = fd.count()
	cw := &crcWriter{w: w}
	// chunk stages the fixed-width fields and the triple runs, so a run
	// reaches the checksum and the writer in chunk-sized writes.
	var chunk [64 * 12]byte
	write := func(p []byte) error {
		if retErr == nil {
			if _, err := cw.Write(p); err != nil {
				retErr = fmt.Errorf("durable: writing segment: %w", err)
			}
		}
		return retErr
	}
	b := append(chunk[:0], segMagic...)
	b = binary.LittleEndian.AppendUint64(b, fd.start)
	b = binary.LittleEndian.AppendUint64(b, fd.end)
	b = binary.LittleEndian.AppendUint64(b, fd.at.Gen)
	b = binary.LittleEndian.AppendUint64(b, fd.at.Digest[0])
	b = binary.LittleEndian.AppendUint64(b, fd.at.Digest[1])
	b = binary.LittleEndian.AppendUint32(b, fd.dictFirst)
	b = binary.LittleEndian.AppendUint32(b, uint32(fd.names))
	_ = write(b)
	for _, p := range fd.patches {
		_ = write(p.dict.enc)
	}
	writeRun := func(count int, wantAdds bool) {
		b := binary.LittleEndian.AppendUint64(chunk[:0], uint64(count))
		if count > 0 {
			fd.each(func(t store.IDTriple, add bool) bool {
				if add != wantAdds {
					return true
				}
				if len(b) > len(chunk)-12 {
					if write(b) != nil {
						return false
					}
					b = chunk[:0]
				}
				b = appendTriple(b, t)
				return true
			})
		}
		_ = write(b)
	}
	writeRun(adds, true)
	writeRun(removes, false)
	if retErr != nil {
		return 0, 0, 0, retErr
	}
	// Footer: CRC of everything above, then the trailer magic, written past
	// the checksum — it must not hash itself.
	footer := append(binary.LittleEndian.AppendUint32(chunk[:0], cw.crc), segTrailer...)
	if _, err := w.Write(footer); err != nil {
		return 0, 0, 0, fmt.Errorf("durable: writing segment footer: %w", err)
	}
	return cw.n + int64(len(footer)), adds, removes, nil
}

// decodeSegment verifies and decodes the bytes of the segment file called
// name. Any framing violation —
// bad magic, bad CRC, truncation, an unsorted run, an id at or beyond
// dictFirst+count — is an error: segments are published atomically, so a
// damaged one means real corruption, never a torn write to tolerate. The id
// bound is against the chain prefix the window ends at (dictFirst+count), so
// a segment may freely reference names minted by older segments.
func decodeSegment(name string, data []byte) (segmentData, error) {
	var seg segmentData
	var err error
	seg.size = int64(len(data))
	const header = len(segMagic) + 8 + 8 + 24 + 4 + 4
	const footer = 4 + len(segTrailer)
	switch magic := string(data[:min(len(data), len(segMagic))]); magic {
	case segMagic:
	case "ONTOSEG1", "ONTOSEG2":
		return seg, fmt.Errorf("durable: segment %s is in the %s format of an older build of this engine, which this build does not read", name, magic)
	default:
		return seg, fmt.Errorf("durable: segment %s has a bad magic header", name)
	}
	if len(data) < header+8+8+footer {
		return seg, fmt.Errorf("durable: segment %s is %d bytes, too short to be valid", name, len(data))
	}
	if string(data[len(data)-len(segTrailer):]) != segTrailer {
		return seg, fmt.Errorf("durable: segment %s has a bad trailer (truncated checkpoint?)", name)
	}
	body := data[:len(data)-footer]
	wantCRC := binary.LittleEndian.Uint32(data[len(body):])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return seg, fmt.Errorf("durable: segment %s fails its checksum", name)
	}

	seg.start = binary.LittleEndian.Uint64(body[len(segMagic):])
	seg.end = binary.LittleEndian.Uint64(body[len(segMagic)+8:])
	if seg.start < 1 || seg.end+1 < seg.start { // an empty window is a snapshot of an empty log
		return seg, fmt.Errorf("durable: segment %s claims window [%d, %d]", name, seg.start, seg.end)
	}
	seg.at = store.Position{Gen: binary.LittleEndian.Uint64(body[len(segMagic)+16:]), Digest: store.Digest{
		binary.LittleEndian.Uint64(body[len(segMagic)+24:]), binary.LittleEndian.Uint64(body[len(segMagic)+32:])}}
	seg.dictFirst = binary.LittleEndian.Uint32(body[len(segMagic)+40:])
	dictCount := int(binary.LittleEndian.Uint32(body[len(segMagic)+44:]))
	if uint64(seg.dictFirst)+uint64(dictCount) > 1<<32-1 {
		return seg, fmt.Errorf("durable: segment %s dictionary window %d+%d overflows the id space", name, seg.dictFirst, dictCount)
	}
	rest := body[header:]
	if dictCount > len(rest) { // every name costs ≥1 length byte
		return seg, fmt.Errorf("durable: segment %s claims %d dictionary names in %d bytes", name, dictCount, len(rest))
	}
	// The names stay encoded: a merge writes the region as it lies, and
	// recovery decodes the regions it folded (fold.dictionary).
	dictEnd, whole := scanNames(rest, dictCount)
	if whole < dictCount {
		return seg, fmt.Errorf("durable: segment %s: dictionary name %d overruns the file", name, whole)
	}
	seg.dict = nameRun{n: dictCount, enc: rest[:dictEnd]}
	rest = rest[dictEnd:]
	idBound := seg.dictFirst + store.SymbolID(dictCount)
	readRun := func(what string) (tripleRun, error) {
		if len(rest) < 8 {
			return nil, fmt.Errorf("durable: segment %s is truncated before its %s count", name, what)
		}
		count := binary.LittleEndian.Uint64(rest)
		rest = rest[8:]
		// Validate by division, not multiplication: 12*count would wrap for
		// a corrupt count near 2^64, sneak past a comparison, and turn the
		// allocation below into a panic instead of a clean error.
		if uint64(len(rest))/12 < count {
			return nil, fmt.Errorf("durable: segment %s claims %d %s triples but carries %d bytes", name, count, what, len(rest))
		}
		run := tripleRun(rest[:12*count])
		var prev store.IDTriple
		for i := uint64(0); i < count; i++ {
			t := run.at(int(i))
			if t.S >= idBound || t.P >= idBound || t.O >= idBound {
				return nil, fmt.Errorf("durable: segment %s: %s triple %d references id beyond the %d-id dictionary prefix", name, what, i, idBound)
			}
			if i > 0 && !prev.Less(t) {
				return nil, fmt.Errorf("durable: segment %s: %s run not strictly sorted at triple %d", name, what, i)
			}
			prev = t
		}
		rest = rest[12*count:]
		return run, nil
	}
	if seg.adds, err = readRun("add"); err != nil {
		return seg, err
	}
	if seg.removes, err = readRun("remove"); err != nil {
		return seg, err
	}
	if len(rest) != 0 {
		return seg, fmt.Errorf("durable: segment %s has %d trailing bytes", name, len(rest))
	}
	return seg, nil
}
