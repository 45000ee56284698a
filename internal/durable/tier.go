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
// then the wal files beyond them (record.go) — and everything the engine does
// with it is one of two folds into a segmentData, handed to one of three
// sinks:
//
//	sink        fold                  window ends at      a bad frame is
//	checkpoint  foldWAL, sealed files the rotation point  corruption
//	merge       foldChain, a suffix   the chain's end     n/a (segments are atomic)
//	recovery    foldChain ∘ foldWAL   the end of the log  cut, in the last file only
//
// A checkpoint and a merge publish their fold as a segment file; recovery
// composes the two with the same foldSegments and loads the result into the
// store. The size-ratio merge policy lives here too.
//
// The on-disk chain is a classic size-tiered LSM shape: checkpoints append
// small young segments on the right, the background merge folds a suffix of
// the chain whenever the generations stop being size-separated, and the
// oldest segment (start == 1) absorbs tombstones terminally — merging into it
// drops them, because a patch against the empty state has nothing to remove.

// segMeta is the engine's in-memory accounting for one live segment file.
type segMeta struct {
	start, end uint64
	adds       int
	removes    int
	bytes      int64
}

func metaOf(seg segmentData, size int64) segMeta {
	return segMeta{
		start:   seg.start,
		end:     seg.end,
		adds:    len(seg.adds),
		removes: len(seg.removes),
		bytes:   size,
	}
}

// foldSegments composes two adjacent patches (older, then newer) into one
// covering both windows. The composed adds are what survives both patches;
// the composed tombstones are every removal either patch makes, minus what
// the composition re-adds — so adds and removes stay disjoint. A fold that
// reaches the base of the chain (start == 1) drops its tombstones entirely:
// the patch now applies to the empty state. A patch over an empty window
// (end == start-1, no names, no triples) is the identity on either side, and
// costs nothing: recovery starts from one and an empty log tail is one.
func foldSegments(older, newer segmentData) (segmentData, error) {
	if newer.start != older.end+1 {
		return segmentData{}, fmt.Errorf("durable: merging segments [%d, %d] and [%d, %d]: windows not adjacent", older.start, older.end, newer.start, newer.end)
	}
	if newer.dictFirst != older.dictFirst+store.SymbolID(len(older.dict)) {
		return segmentData{}, fmt.Errorf("durable: merging segments [%d, %d] and [%d, %d]: dictionary windows not contiguous (%d+%d names, then first id %d)",
			older.start, older.end, newer.start, newer.end, older.dictFirst, len(older.dict), newer.dictFirst)
	}
	out := segmentData{
		start:     older.start,
		end:       newer.end,
		dictFirst: older.dictFirst,
		dict:      newer.dict,
	}
	if len(older.dict) > 0 {
		out.dict = append(older.dict[:len(older.dict):len(older.dict)], newer.dict...)
	}
	out.adds = store.UnionSorted(store.SubtractSorted(older.adds, newer.removes), newer.adds)
	if out.start > 1 {
		out.removes = store.SubtractSorted(store.UnionSorted(older.removes, newer.removes), out.adds)
	}
	return out, nil
}

// errStopped is foldChain's report that its stop channel closed mid-fold.
var errStopped = errors.New("durable: fold stopped")

// foldChain is the package's one loop over segment files: it loads the
// adjacent segments chain names, oldest first, checks each carries the window
// its name claims, composes them with foldSegments, and fills every chain
// entry's accounting in from its file. A merge runs it over a suffix of the
// chain and publishes the result; recovery runs it over all of it. stop is
// polled before each load — a closed one ends the fold with errStopped, so
// Close never waits out a long merge's reads; nil never stops.
func foldChain(d disk, chain []segMeta, stop <-chan struct{}) (segmentData, error) {
	var folded segmentData
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
		chain[k] = metaOf(seg, seg.size)
		if k == 0 {
			folded = seg
		} else if folded, err = foldSegments(folded, seg); err != nil {
			return folded, err
		}
	}
	return folded, nil
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

// walkWAL is the package's one frame loop: it walks the bytes of the wal file
// called name frame by frame — nextFrame, decodeRecord, seq check — handing
// each record to visit. Records at or below skip are passed over unseen (the
// leftovers of an interrupted cleanup); every other record must be the
// successor of the one before it, the first of prev, or the log has a gap. It
// returns the seq of the last record visited and the offset the walk stopped
// at: len(data) after a clean walk, else the first byte that does not begin a
// whole, checksum-valid frame — whether that is a torn tail to cut or
// corruption to report is foldWAL's policy, as is everything about what a
// record means. An error from visit ends the walk.
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

// foldWAL is the package's one reading of what log records mean: it folds the
// wal files named by firsts (their first seqs, ascending) into the patch over
// the window (after, end], where end is wherever the records stop. Dictionary
// records are concatenated and must continue the id sequence exactly from
// dictNext — one that restates or skips an id means the log and the chain
// disagree about what an id names; a mutation may only name ids minted by
// then; and per triple the LAST event in the window wins — an add followed by
// a remove folds to a tombstone, a remove followed by a re-add to an add, and
// inside one record the adds come before the removes. Records at or below
// after are skipped and a file that starts there is a leftover of an
// interrupted cleanup; every other file must begin with the successor of the
// record before it.
//
// A frame that fails its framing is corruption: sealed files were fsynced by
// the rotation that closed them. The one exception is the tail sink's — with
// tail set the last file is the one a crash may have torn, so it is cut at
// the last whole frame and the fold ends there, the writer appending after
// the last good record instead of burying garbage mid-file. A length field
// beyond maxFramePayload is never a torn tail, wherever it sits: the writer
// chunks every record below the cap, so the claim proves damage to a frame
// header, and cutting there would silently discard every record after it.
func foldWAL(d disk, firsts []uint64, after uint64, dictNext store.SymbolID, tail bool) (segmentData, error) {
	seg := segmentData{start: after + 1, end: after, dictFirst: dictNext}
	type walEvent struct {
		t   store.IDTriple
		ord int // position in the log: records in seq order, a record's adds before its removes
		add bool
	}
	var events []walEvent
	visit := func(r record) error {
		if r.typ == recDict {
			if want := dictNext + store.SymbolID(len(seg.dict)); r.first != want {
				return fmt.Errorf("dictionary record starts at id %d, want %d", r.first, want)
			}
			seg.dict = append(seg.dict, r.names...)
			return nil
		}
		minted := dictNext + store.SymbolID(len(seg.dict))
		for side, ts := range [2][]store.IDTriple{r.adds, r.removes} {
			for _, t := range ts {
				if t.S >= minted || t.P >= minted || t.O >= minted {
					return fmt.Errorf("triple %v names an id beyond the %d the dictionary had minted", t, minted)
				}
				events = append(events, walEvent{t: t, ord: len(events), add: side == 0})
			}
		}
		return nil
	}
	for i, first := range firsts {
		name := walFileName(first)
		if first > after && first != seg.end+1 {
			return seg, fmt.Errorf("durable: log file %s does not follow record %d; the log has a gap", name, seg.end)
		}
		data, err := d.readFile(name)
		if err != nil {
			return seg, fmt.Errorf("durable: reading log file: %w", err)
		}
		var off int
		if seg.end, off, err = walkWAL(name, data, after, seg.end, visit); err != nil {
			return seg, err
		}
		if off == len(data) {
			continue
		}
		if len(data)-off >= 4 {
			if claim := binary.LittleEndian.Uint32(data[off:]); claim > maxFramePayload {
				return seg, fmt.Errorf("durable: %s: frame at offset %d claims a %d-byte payload, beyond the %d-byte cap the writer enforces; the log is corrupt, not torn", name, off, claim, maxFramePayload)
			}
		}
		if !tail || i < len(firsts)-1 {
			return seg, fmt.Errorf("durable: %s: bad frame at offset %d in a sealed log file; the log is corrupt", name, off)
		}
		if err := d.truncate(name, int64(off)); err != nil {
			return seg, fmt.Errorf("durable: truncating torn log tail: %w", err)
		}
	}
	// Last event per triple wins. Sorting by (triple, log position) groups
	// each triple's history together in log order AND leaves the surviving
	// triples in (S, P, O) order — the segment runs fall out sorted for free.
	slices.SortFunc(events, func(a, b walEvent) int {
		switch {
		case a.t == b.t:
			return cmp.Compare(a.ord, b.ord)
		case a.t.Less(b.t):
			return -1
		}
		return 1
	})
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].t == events[i].t {
			j++
		}
		if events[j-1].add {
			seg.adds = append(seg.adds, events[i].t)
		} else if seg.start > 1 { // a patch against the empty state removes nothing
			seg.removes = append(seg.removes, events[i].t)
		}
		i = j
	}
	return seg, nil
}
