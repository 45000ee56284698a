package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/store"
)

// This file is the tiering machinery around the delta-segment format in
// segment.go: the patch algebra (fold two adjacent segments into one, apply a
// segment to a state), the size-ratio merge policy, and the WAL-window fold a
// checkpoint runs to turn one retired log window into a young segment.
//
// The on-disk chain is a classic size-tiered LSM shape: checkpoints append
// small young segments on the right, the background merge folds a suffix of
// the chain whenever the generations stop being size-separated, and the
// oldest segment (start == 1) absorbs tombstones terminally — merging into it
// drops them, because a patch against the empty state has nothing to remove.

// segMeta is the engine's in-memory accounting for one live segment file.
type segMeta struct {
	start, end uint64
	dictFirst  store.SymbolID
	dictCount  int
	adds       int
	removes    int
	bytes      int64
}

func metaOf(seg segmentData, size int64) segMeta {
	return segMeta{
		start:     seg.start,
		end:       seg.end,
		dictFirst: seg.dictFirst,
		dictCount: len(seg.dict),
		adds:      len(seg.adds),
		removes:   len(seg.removes),
		bytes:     size,
	}
}

// applySegment applies one segment patch to a sorted state: subtract its
// tombstones, union its adds.
func applySegment(state []store.IDTriple, seg segmentData) []store.IDTriple {
	return store.UnionSorted(store.SubtractSorted(state, seg.removes), seg.adds)
}

// foldSegments composes two adjacent patches (older, then newer) into one
// covering both windows. The composed adds are what survives both patches;
// the composed tombstones are every removal either patch makes, minus what
// the composition re-adds — so adds and removes stay disjoint. A fold that
// reaches the base of the chain (start == 1) drops its tombstones entirely:
// the patch now applies to the empty state.
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
		dict:      append(older.dict[:len(older.dict):len(older.dict)], newer.dict...),
	}
	out.adds = store.UnionSorted(store.SubtractSorted(older.adds, newer.removes), newer.adds)
	if out.start > 1 {
		out.removes = store.SubtractSorted(store.UnionSorted(older.removes, newer.removes), out.adds)
	}
	return out, nil
}

// DefaultMergeRatio and DefaultMaxSegments are the merge-policy defaults for
// the zero Options values.
const (
	// DefaultMergeRatio is the size-separation factor between generations:
	// a segment is folded into the suffix being merged while its size is at
	// most the ratio times the combined size of everything younger. 4 keeps
	// the chain logarithmic in corpus size while bounding merge write
	// amplification to ~1/ratio of ingested bytes per generation.
	DefaultMergeRatio = 4.0
	// DefaultMaxSegments force-merges the whole chain once it grows past
	// this many segments, whatever the sizes — a hard bound on how many
	// files recovery must open.
	DefaultMaxSegments = 8
)

// pickMergeRun decides which suffix of the chain to merge: it grows the run
// from the newest segment leftwards while the next-older segment is within
// ratio× of the run's combined size, and returns the index the run starts at.
// ok is false when no merge is warranted (the generations are size-separated
// and the chain is short enough). sizes is ordered oldest→newest.
func pickMergeRun(sizes []int64, ratio float64, maxSegs int) (int, bool) {
	n := len(sizes)
	if n < 2 {
		return 0, false
	}
	if maxSegs > 0 && n > maxSegs {
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

// walWindow is the folded content of one retired WAL window: the dictionary
// growth in id order, and the net adds/removes sorted by triple.
type walWindow struct {
	names   []string
	adds    []store.IDTriple
	removes []store.IDTriple
}

// readWALWindow reads the sealed wal files covering records (after, through]
// and folds them: dictionary records are concatenated (verified contiguous
// from dictNext), and per triple the LAST event in the window wins — an add
// followed by a remove folds to a tombstone, a remove followed by a re-add to
// an add; inside one record the adds come before the removes, as replay
// applies them. Records at or below after (leftovers of an interrupted
// cleanup) are skipped. Every frame must be whole: these files were sealed by
// a rotation's fsync, so a torn frame here is corruption, not a tail to
// truncate.
func readWALWindow(dir string, after, through uint64, dictNext store.SymbolID) (walWindow, error) {
	var win walWindow
	firsts, err := walFilesThrough(dir, through)
	if err != nil {
		return win, err
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	type walEvent struct {
		t   store.IDTriple
		seq uint64
		add bool
	}
	var events []walEvent
	prev := after
	for _, first := range firsts {
		name := walFileName(first)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return win, fmt.Errorf("durable: reading checkpoint window: %w", err)
		}
		var off int
		prev, off, err = walkWAL(name, data, after, prev, func(r record) error {
			if r.seq > through {
				return fmt.Errorf("checkpoint window record lies beyond the rotation point %d", through)
			}
			switch r.typ {
			case recDict:
				if want := dictNext + store.SymbolID(len(win.names)); r.first != want {
					return fmt.Errorf("checkpoint window dictionary record starts at id %d, want %d", r.first, want)
				}
				win.names = append(win.names, r.names...)
			case recMutation:
				for _, t := range r.adds {
					events = append(events, walEvent{t: t, seq: r.seq, add: true})
				}
				for _, t := range r.removes {
					events = append(events, walEvent{t: t, seq: r.seq})
				}
			default:
				return fmt.Errorf("checkpoint window record has unknown type %d", r.typ)
			}
			return nil
		})
		if err != nil {
			return win, err
		}
		if off < len(data) {
			return win, fmt.Errorf("durable: %s: bad frame at offset %d in a sealed log file; the log is corrupt", name, off)
		}
	}
	if prev != through {
		return win, fmt.Errorf("durable: checkpoint window ends at record %d, want %d; a log file is missing", prev, through)
	}
	// Last event per triple wins. Sorting by (triple, seq, add before remove)
	// groups each triple's history together in replay order AND leaves the
	// surviving triples in (S, P, O) order — the segment runs fall out sorted
	// for free.
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t.Less(events[j].t)
		}
		if events[i].seq != events[j].seq {
			return events[i].seq < events[j].seq
		}
		return events[i].add && !events[j].add
	})
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].t == events[i].t {
			j++
		}
		if events[j-1].add {
			win.adds = append(win.adds, events[i].t)
		} else {
			win.removes = append(win.removes, events[i].t)
		}
		i = j
	}
	return win, nil
}
