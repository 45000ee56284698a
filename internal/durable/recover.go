package durable

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
)

// This file is startup recovery: scan the data directory, chain the delta
// segments, fold them into one state, bulk-restore it into the store, replay
// the WAL tail beyond the chain, truncate the torn tail a crash may have
// left, and hand back an open log file positioned for appending. The state
// machine, in order:
//
//	scan      classify directory entries: seg-*-*.seg, wal-*.wal, leftovers
//	clean     delete *.tmp (unpublished checkpoints and torn merges — a torn
//	          merge is simply not-yet-merged, its inputs still present) and
//	          every segment subsumed by a wider merged segment (leftover
//	          inputs of a merge that crashed between publish and cleanup)
//	chain     order segments by window; they must tile seqs 1..N contiguously
//	          — a gap or partial overlap is corruption, reported, never
//	          papered over
//	fold      apply the chain oldest→newest in memory: concatenate the
//	          dictionary windows, subtract each segment's tombstones, union
//	          its adds — producing one sorted triple set
//	restore   store.RestoreSorted builds the dictionary and both index
//	          families directly from the folded state: per-shard goroutines,
//	          no per-triple locks, no dedup probing. This is the bulk fast
//	          path; the per-record mutation path below is only for the tail.
//	replay    walk the remaining wal files in ascending order, applying
//	          records and checking the seq chain stays dense
//	truncate  a frame that fails its CRC in the LAST file is a torn tail:
//	          cut the file there and stop. The same failure in any earlier
//	          file is corruption, reported as an error — earlier files were
//	          sealed by a rotation's fsync and have no business being torn.
//	          A frame claiming a payload beyond maxFramePayload is corruption
//	          even in the last file: the writer never produces one (oversized
//	          mutations are chunked), so truncating there would throw away
//	          good records behind a damaged header.
//	reopen    open the last wal file for appending (creating wal-<lastSeq+1>
//	          if the tail is empty), ready for the writer.
//
// Unlike the PR-7 full-dump design, segments are exact WAL folds — a
// checkpoint never reads the live store — so the chain and the tail never
// overlap: every tail record's seq is beyond the chain. Replay keeps its
// verify-or-intern dictionary handling anyway; it is what lets recovery
// diagnose a log that disagrees with its segments instead of corrupting ids.

// recovered is what recoverDir hands the engine: the store is loaded, the
// log tail is clean, and file is the wal file to keep appending to.
type recovered struct {
	lastSeq     uint64 // seq of the last record applied (0 = pristine directory)
	file        *os.File
	fileFirst   uint64         // first seq of file (its name)
	tiers       []segMeta      // the live segment chain, oldest→newest
	dictCovered store.SymbolID // dictionary ids covered by the chain
}

// ensureDir creates the data directory if it is missing.
func ensureDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: creating data directory: %w", err)
	}
	return nil
}

// removeFile deletes one file of the data directory.
func removeFile(dir, name string) error {
	if err := os.Remove(filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("durable: removing %s: %w", name, err)
	}
	return nil
}

// walFilesThrough lists the first-seqs of wal files that start at or before
// covered — the files a checkpoint at covered supersedes (rotation
// guarantees a file starting at or before the rotation point also ends
// there).
func walFilesThrough(dir string, covered uint64) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning data directory: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		if n, ok := parseSeqName(e.Name(), "wal-", ".wal"); ok && n <= covered {
			firsts = append(firsts, n)
		}
	}
	return firsts, nil
}

// parseSeq parses one fixed-width 16-digit sequence field.
func parseSeq(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("durable: sequence field %q is not 16 digits", s)
	}
	return strconv.ParseUint(s, 10, 64)
}

// parseSeqName extracts the sequence number from a "prefix-%016d.ext" name.
func parseSeqName(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	n, err := parseSeq(name[len(prefix) : len(name)-len(ext)])
	if err != nil {
		return 0, false
	}
	return n, true
}

// recoverDir rebuilds st (which must be empty) from dir and returns the open
// log tail. Any error leaves the directory as it was found, minus deleted
// leftovers.
func recoverDir(st *store.Store, dir string) (recovered, error) {
	var rec recovered
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rec, fmt.Errorf("durable: scanning data directory: %w", err)
	}
	type segWindow struct {
		start, end uint64
	}
	var segs []segWindow
	var walSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An unpublished checkpoint or a torn merge: a crash hit between
			// temp write and rename. The inputs (WAL window or merge inputs)
			// are intact, so the temp file is pure garbage.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return rec, fmt.Errorf("durable: removing leftover %s: %w", name, err)
			}
		case strings.HasSuffix(name, ".seg"):
			start, end, ok := parseSegmentName(name)
			if !ok {
				return rec, fmt.Errorf("durable: unrecognized segment file name %q in data directory", name)
			}
			segs = append(segs, segWindow{start, end})
		case strings.HasSuffix(name, ".wal"):
			n, ok := parseSeqName(name, "wal-", ".wal")
			if !ok {
				return rec, fmt.Errorf("durable: unrecognized log file name %q in data directory", name)
			}
			walSeqs = append(walSeqs, n)
		default:
			return rec, fmt.Errorf("durable: unexpected file %q in data directory; refusing to treat %s as a WAL directory", name, dir)
		}
	}
	// Chain the segments. Sorting by (start asc, end desc) puts the widest
	// segment at each position first, so a merged segment is preferred over
	// the narrower inputs it folded — those fall inside the chosen coverage
	// and are deleted as leftovers of the merge's interrupted cleanup. A
	// segment that straddles the chosen coverage boundary, or a hole between
	// windows, cannot be produced by any crash of this engine and is
	// reported as corruption.
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].start != segs[j].start {
			return segs[i].start < segs[j].start
		}
		return segs[i].end > segs[j].end
	})
	chain := segs[:0]
	covered := uint64(0)
	for _, sg := range segs {
		switch {
		case sg.end <= covered:
			if err := removeFile(dir, segmentName(sg.start, sg.end)); err != nil {
				return rec, fmt.Errorf("durable: removing merged-away segment: %w", err)
			}
		case sg.start == covered+1:
			chain = append(chain, sg)
			covered = sg.end
		case sg.start <= covered:
			return rec, fmt.Errorf("durable: segment %s overlaps the chain covering through seq %d; the segment set is corrupt", segmentName(sg.start, sg.end), covered)
		default:
			return rec, fmt.Errorf("durable: segment %s does not follow seq %d; a segment is missing", segmentName(sg.start, sg.end), covered)
		}
	}
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })

	// Fold the chain oldest→newest and bulk-restore the result in one shot.
	if len(chain) > 0 {
		// The fold and restore allocate the decoded segments, the folded
		// state, two shard-bucket families, and the index arenas in quick
		// succession while the live heap (the store being built) grows
		// underneath — any GC cycle in that window re-scans a near-final
		// heap just to reclaim the previous phase's scratch (~17% of boot
		// at 1e6 triples). Boot is single-purpose and every allocation here
		// is either the final store or scratch proportional to it, so the
		// peak is O(chain) regardless; suspend collection for the window
		// and restore it before the engine goes live.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var dict []string
		var state []store.IDTriple
		for _, sg := range chain {
			path := filepath.Join(dir, segmentName(sg.start, sg.end))
			seg, err := loadSegment(path)
			if err != nil {
				return rec, err
			}
			if seg.start != sg.start || seg.end != sg.end {
				return rec, fmt.Errorf("durable: segment %s claims internal window [%d, %d]", segmentName(sg.start, sg.end), seg.start, seg.end)
			}
			if seg.dictFirst != store.SymbolID(len(dict)) {
				return rec, fmt.Errorf("durable: segment %s starts its dictionary at id %d but the chain has minted %d ids", segmentName(sg.start, sg.end), seg.dictFirst, len(dict))
			}
			if dict == nil {
				dict = seg.dict // common single-base-segment case: no copy
			} else {
				dict = append(dict, seg.dict...)
			}
			state = applySegment(state, seg)
			rec.tiers = append(rec.tiers, metaOf(seg, seg.size))
		}
		if err := st.RestoreSorted(dict, state); err != nil {
			return rec, fmt.Errorf("durable: loading segment chain: %w", err)
		}
		rec.dictCovered = store.SymbolID(len(dict))
		rec.lastSeq = covered
	}

	// Log files wholly behind the chain are leftovers of an interrupted
	// checkpoint cleanup: their records are already folded into a segment.
	keep := walSeqs[:0]
	for _, n := range walSeqs {
		if n <= covered && covered != 0 {
			if err := os.Remove(filepath.Join(dir, walFileName(n))); err != nil {
				return rec, fmt.Errorf("durable: removing log file behind the checkpoint: %w", err)
			}
			continue
		}
		keep = append(keep, n)
	}
	walSeqs = keep

	// Replay the tail. Rotation boundaries and record seqs must chain
	// densely: file wal-F holds records F, F+1, … and the next file picks up
	// exactly where it ended.
	res := st.NewResolver()
	for i, first := range walSeqs {
		if first != rec.lastSeq+1 {
			return rec, fmt.Errorf("durable: log file %s does not follow record %d; the log has a gap", walFileName(first), rec.lastSeq)
		}
		last := i == len(walSeqs)-1
		path := filepath.Join(dir, walFileName(first))
		lastSeq, err := replayFile(st, res, path, rec.lastSeq, last)
		if err != nil {
			return rec, err
		}
		rec.lastSeq = lastSeq
	}

	// Reopen (or create) the tail file for appending.
	if len(walSeqs) > 0 {
		rec.fileFirst = walSeqs[len(walSeqs)-1]
		f, err := os.OpenFile(filepath.Join(dir, walFileName(rec.fileFirst)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rec, fmt.Errorf("durable: reopening log tail: %w", err)
		}
		rec.file = f
	} else {
		rec.fileFirst = rec.lastSeq + 1
		f, err := createWALFile(dir, rec.fileFirst)
		if err != nil {
			return rec, err
		}
		rec.file = f
	}
	return rec, nil
}

// walkWAL is the package's one frame loop: it walks the bytes of the wal file
// called name frame by frame — nextFrame, decodeRecord, seq check — handing
// each record to visit. Records at or below skip are passed over unseen (the
// checkpoint fold's leftovers; recovery skips nothing); every other record
// must be the successor of the one before it, the first of prev, or the log
// has a gap. It returns the seq of the last record visited and the offset the
// walk stopped at: len(data) after a clean walk, else the first byte that
// does not begin a whole, checksum-valid frame — whether that is a torn tail
// to cut or corruption to report is the caller's policy, as is everything
// about what a record means. An error from visit ends the walk.
func walkWAL(name string, data []byte, skip, prev uint64, visit func(record) error) (uint64, int, error) {
	off := 0
	for off < len(data) {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return prev, off, fmt.Errorf("durable: %s: offset %d: %w", name, off, err)
		}
		if r.seq > skip {
			if r.seq != prev+1 {
				return prev, off, fmt.Errorf("durable: %s: record at offset %d has seq %d, want %d; the log has a gap", name, off, r.seq, prev+1)
			}
			if err := visit(r); err != nil {
				return prev, off, fmt.Errorf("durable: %s: record %d: %w", name, r.seq, err)
			}
			prev = r.seq
		}
		off = next
	}
	return prev, off, nil
}

// replayFile applies every record of one wal file to the store, enforcing
// the dense seq chain from prevSeq. In the last file a frame that fails
// framing is a torn tail: the file is truncated at the last good offset and
// replay ends there. Anywhere else the same failure is corruption.
func replayFile(st *store.Store, res store.Resolver, path string, prevSeq uint64, last bool) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return prevSeq, fmt.Errorf("durable: reading log file: %w", err)
	}
	name := filepath.Base(path)
	lastSeq, off, err := walkWAL(name, data, 0, prevSeq, func(r record) error {
		return applyRecord(st, res, r)
	})
	if err != nil || off == len(data) {
		return lastSeq, err
	}
	// A length field beyond the cap is never a torn tail: the writer chunks
	// every record below maxFramePayload, so an over-cap claim means damage to
	// a frame header (or a log from a broken writer). Truncating here would
	// silently discard every record after it — report it instead, wherever it
	// sits.
	if len(data)-off >= 4 {
		if claim := binary.LittleEndian.Uint32(data[off:]); claim > maxFramePayload {
			return lastSeq, fmt.Errorf("durable: %s: frame at offset %d claims a %d-byte payload, beyond the %d-byte cap the writer enforces; the log is corrupt, not torn", name, off, claim, maxFramePayload)
		}
	}
	if !last {
		return lastSeq, fmt.Errorf("durable: %s: bad frame at offset %d in a sealed log file; the log is corrupt", name, off)
	}
	// Torn tail: everything from off on is a half-written frame (or damage to
	// one). Cut it so the writer appends after the last good record instead
	// of burying garbage mid-file.
	if err := os.Truncate(path, int64(off)); err != nil {
		return lastSeq, fmt.Errorf("durable: truncating torn log tail: %w", err)
	}
	return lastSeq, nil
}

// applyRecord applies one decoded record. Dictionary entries verify-or-intern
// — an id already minted (by the segment chain or an earlier record) must
// resolve to the same name, or the log and segments disagree about what the
// id means — and a mutation is set operations, adds then removes, so replay
// is idempotent.
func applyRecord(st *store.Store, res store.Resolver, r record) error {
	switch r.typ {
	case recDict:
		for i, name := range r.names {
			id := r.first + store.SymbolID(i)
			switch n := store.SymbolID(st.DictLen()); {
			case id < n:
				if got := res.Name(id); got != name {
					return fmt.Errorf("dictionary id %d is %q but the log says %q", id, got, name)
				}
			case id == n:
				got, err := st.Intern(name)
				if err != nil {
					return err
				}
				if got != id {
					return fmt.Errorf("name %q interned as id %d, but the log minted it as %d", name, got, id)
				}
			default:
				return fmt.Errorf("dictionary record skips from id %d to %d", n, id)
			}
		}
	case recMutation:
		tx := st.Begin()
		if _, err := tx.AddIDBatch(r.adds); err != nil {
			return err
		}
		for _, t := range r.removes {
			tx.RemoveID(t)
		}
		return tx.Commit()
	default:
		return fmt.Errorf("unknown record type %d", r.typ)
	}
	return nil
}
