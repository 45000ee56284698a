package durable

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
)

// This file is startup recovery. A data directory is a chain of patches over
// seq windows — segment files, then the wal files beyond them — and recovery
// folds the chain as one patch against the empty store and loads it:
//
//	scan      classify directory entries: seg-*-*.seg, wal-*.wal, leftovers
//	clean     delete *.tmp (unpublished checkpoints and torn merges — a torn
//	          merge is simply not-yet-merged, its inputs still present), every
//	          segment subsumed by a wider merged segment (leftover inputs of a
//	          merge that crashed between publish and cleanup) and every wal
//	          file behind the chain (leftovers of a checkpoint's cleanup)
//	chain     order segments by window; they must tile seqs 1..N contiguously
//	          — a gap or partial overlap is corruption, reported, never
//	          papered over
//	load segments
//	          foldHistory (tier.go): foldChain opens the chain, from
//	          seq 1 and id 0, oldest→newest onto one fold — the loop a
//	          merge runs — and reads the segments' names
//	fold tail foldWAL folds the wal files beyond the chain into one more
//	          patch, pushed onto the same fold — the fold a checkpoint
//	          runs: its first walk counts the tail's names, one
//	          store.RestoreSorted restores the chain's names into the store
//	          being booted with room for them, and its second walk, with
//	          the tail's policy, files each dictionary
//	          record's names in the booted store, refusing an empty name or
//	          one the store already holds at that record;
//	          a frame that fails its CRC in the LAST file is a torn tail, cut
//	          there; the same failure in any earlier file is corruption —
//	          earlier files were sealed by a rotation's fsync and have no
//	          business being torn — and so is a frame claiming a payload
//	          beyond maxFramePayload wherever it sits, because the writer
//	          never produces one and cutting there would throw away good
//	          records behind a damaged header
//	load      the fold runs once, into a run sized by its patches' adds,
//	          and one store.RestoreSorted builds both indexes directly
//	          from that run, against the dictionary the store now holds, on
//	          two goroutines: no per-triple locks, no dedup probing.
//	          Recovery never opens a transaction — the store is filled
//	          once, in bulk, or not at all
//	reopen    open the last wal file for appending (creating wal-<lastSeq+1>
//	          if the tail is empty), ready for the writer.

// recovered is what recoverDir hands the engine: the store is loaded, the
// log tail is clean, and file is the wal file to keep appending to.
type recovered struct {
	lastSeq     uint64 // seq of the last record loaded (0 = pristine directory)
	file        file
	wals        []uint64       // first seqs of the live wal files, ascending; file is the last
	tail        walTail        // the live log's writes, and file's size
	tiers       []segMeta      // the live segment chain, oldest→newest
	dictCovered store.SymbolID // dictionary ids covered by the chain
}

// removeFile deletes one file of the data directory.
func removeFile(d disk, name string) error {
	if err := d.remove(name); err != nil {
		return fmt.Errorf("durable: removing %s: %w", name, err)
	}
	return nil
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

// recoverDir rebuilds st (which must be empty) from the data directory and
// returns the open log tail. Any error leaves the directory as it was found,
// minus deleted leftovers and a torn tail.
func recoverDir(st *store.Store, d disk) (recovered, error) {
	var rec recovered
	names, err := d.list()
	if err != nil {
		return rec, fmt.Errorf("durable: scanning data directory: %w", err)
	}
	var segs []segMeta // windows only; foldChain fills the rest in
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An unpublished checkpoint or a torn merge: a crash hit between
			// temp write and rename. The inputs (WAL window or merge inputs)
			// are intact, so the temp file is pure garbage.
			if err := removeFile(d, name); err != nil {
				return rec, err
			}
		case strings.HasSuffix(name, ".seg"):
			start, end, ok := parseSegmentName(name)
			if !ok {
				return rec, fmt.Errorf("durable: unrecognized segment file name %q in data directory", name)
			}
			segs = append(segs, segMeta{start: start, end: end})
		case strings.HasSuffix(name, ".wal"):
			n, ok := parseSeqName(name, "wal-", ".wal")
			if !ok || n == 0 { // seqs start at 1, and a wal file is named after its first
				return rec, fmt.Errorf("durable: unrecognized log file name %q in data directory", name)
			}
			rec.wals = append(rec.wals, n)
		default:
			return rec, fmt.Errorf("durable: unexpected file %q in data directory; refusing to treat it as a WAL directory", name)
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
	covered := uint64(0)
	for _, sg := range segs {
		switch {
		case sg.end <= covered:
			if err := removeFile(d, segmentName(sg.start, sg.end)); err != nil {
				return rec, err
			}
		case sg.start == covered+1:
			rec.tiers = append(rec.tiers, sg)
			covered = sg.end
		case sg.start <= covered:
			return rec, fmt.Errorf("durable: segment %s overlaps the chain covering through seq %d; the segment set is corrupt", segmentName(sg.start, sg.end), covered)
		default:
			return rec, fmt.Errorf("durable: segment %s does not follow seq %d; a segment is missing", segmentName(sg.start, sg.end), covered)
		}
	}
	// Log files wholly behind the chain are leftovers of an interrupted
	// checkpoint cleanup: their records are already folded into a segment.
	slices.Sort(rec.wals)
	for len(rec.wals) > 0 && rec.wals[0] <= covered {
		if err := removeFile(d, walFileName(rec.wals[0])); err != nil {
			return rec, err
		}
		rec.wals = rec.wals[1:]
	}

	// Fold, fold, load. The folds and the load allocate the files, the
	// folded run, the rotated POS copy, and the index arenas in
	// quick succession while the live heap (the store being built) grows
	// underneath — any GC cycle in that window re-scans a near-final heap
	// just to reclaim the previous phase's scratch (~17% of boot at 1e6
	// triples). Boot is single-purpose and every allocation here is either
	// the final store or scratch proportional to it, so the peak is
	// O(directory) regardless; suspend collection for the window and restore
	// it before the engine goes live.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	state, tail, err := foldHistory(d, rec.tiers, rec.wals, -1, st)
	if err != nil {
		return rec, err
	}
	rec.tail, rec.dictCovered = tail, state.patches[len(state.patches)-1].dictFirst
	err = loadFold(st, state)
	state.close()
	if err != nil {
		return rec, fmt.Errorf("durable: loading the data directory: %w", err)
	}
	rec.lastSeq = state.end

	// Reopen (or create) the tail file for appending.
	if len(rec.wals) > 0 {
		rec.file, err = d.openAppend(walFileName(rec.wals[len(rec.wals)-1]))
		if err != nil {
			return rec, fmt.Errorf("durable: reopening log tail: %w", err)
		}
		return rec, nil
	}
	rec.wals = []uint64{rec.lastSeq + 1}
	rec.file, err = createWALFile(d, rec.lastSeq+1)
	return rec, err
}

// loadFold bulk-loads the store st, which holds the fold's dictionary and no
// triples, from the fold of a whole chain — recovery's directory, a
// replica's snapshot — at its stamp's generation, and checks the loaded
// triples' digest against the stamp's: a fold that lost or invented a
// triple, or a history that does not add up, is an error, never a state.
func loadFold(st *store.Store, f *fold) error {
	// The composed adds are at most the patches' adds together — all of
	// them, a snapshot's or a one-segment chain's — so one pass fills the
	// run.
	adds := 0
	for _, p := range f.patches {
		adds += p.adds
	}
	triples := make([]store.IDTriple, 0, adds)
	if err := f.each(func(t store.IDTriple, add bool) bool {
		if add {
			triples = append(triples, t)
		}
		return true
	}); err != nil {
		return err
	}
	if err := st.RestoreSorted(nil, triples, f.at.Gen); err != nil {
		return err
	}
	if got := st.Position(); got.Digest != f.at.Digest {
		return fmt.Errorf("durable: the %d triples loaded through seq %d have digest %v, but the history recorded %v at generation %d",
			len(triples), f.end, got.Digest, f.at.Digest, f.at.Gen)
	}
	return nil
}
