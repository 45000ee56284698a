package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/store"
)

// This file tests the folds themselves: that they publish the bytes they
// always did, that they agree with a naive replay on seeded schedules, and
// that a checkpoint and a merge allocate about what they publish.

// dictRun encodes names as the run a dictionary record or a segment
// carries.
func dictRun(names ...string) store.NameRun {
	var enc []byte
	for _, name := range names {
		enc = binary.AppendUvarint(enc, uint64(len(name)))
		enc = append(enc, name...)
	}
	return store.NameRun{N: len(names), Enc: enc}
}

// runNames decodes a run's names.
func runNames(run store.NameRun) []string {
	names := make([]string, 0, run.N)
	for off := 0; off < len(run.Enc); {
		n, w := binary.Uvarint(run.Enc[off:])
		names = append(names, string(run.Enc[off+w:off+w+int(n)]))
		off += w + int(n)
	}
	return names
}

// dictNames decodes the names of runs, in order.
func dictNames(runs []store.NameRun) []string {
	var names []string
	for _, run := range runs {
		names = append(names, runNames(run)...)
	}
	return names
}

// patchOf is the log window over [start, end] that mints names from id
// dictFirst on, adds adds and tombstones removes, each run sorted and the
// two disjoint: the patch foldWAL folds such a window to.
func patchOf(start, end uint64, dictFirst store.SymbolID, names []string, adds, removes []store.IDTriple) segmentData {
	p := segmentData{start: start, end: end, dictFirst: dictFirst, dict: dictRun(names...), adds: len(adds), removes: len(removes)}
	for len(adds)+len(removes) > 0 {
		ev := walEvent{key: uint32(len(p.events)) << 1}
		if len(removes) == 0 || len(adds) > 0 && adds[0].Less(removes[0]) {
			ev.t, ev.key, adds = adds[0], ev.key|1, adds[1:]
		} else {
			ev.t, removes = removes[0], removes[1:]
		}
		p.events = append(p.events, ev)
	}
	return p
}

// triples lists a log window's adds (add set) or tombstones.
func (p segmentData) triples(add bool) []store.IDTriple {
	var ts []store.IDTriple
	for _, ev := range p.events {
		if (ev.key&1 != 0) == add {
			ts = append(ts, ev.t)
		}
	}
	return ts
}

// decodeSegment opens a segment's bytes and reads them whole: the patch,
// its names, and its adds and tombstones.
func decodeSegment(name string, data []byte) (seg segmentData, names []string, adds, removes []store.IDTriple, err error) {
	if seg, err = openSegment(name, bytes.NewReader(data), int64(len(data))); err != nil {
		return seg, nil, nil, nil, err
	}
	f := foldOf(seg)
	runs, err := f.dictionary()
	if err != nil {
		return seg, nil, nil, nil, err
	}
	adds, removes, err = foldRuns(f)
	return seg, dictNames(runs), adds, removes, err
}

// count runs the fold once, counting the adds and tombstones it yields.
func (f *fold) count() (adds, removes int, err error) {
	a, r, err := foldRuns(f)
	return len(a), len(r), err
}

// sides decodes a recPart or recWrite record's adds and removes.
func (r record) sides() (adds, removes []store.IDTriple) {
	for i := 0; i < r.triples.len(); i++ {
		if i < r.nAdds {
			adds = append(adds, r.triples.at(i))
		} else {
			removes = append(removes, r.triples.at(i))
		}
	}
	return adds, removes
}

// publishedSegments runs a fixed schedule on the memory disk — nine
// scriptStep transactions with a checkpoint after every third, then a merge
// of the two young segments and a merge of the whole chain — and returns the
// bytes of every segment file it published, by name.
func publishedSegments(t *testing.T) map[string][]byte {
	t.Helper()
	return publishedOn(t, newMemDisk())
}

// publishedOn runs publishedSegments' schedule on d.
func publishedOn(t *testing.T, d *memDisk) map[string][]byte {
	t.Helper()
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	defer eng.Close()
	out := map[string][]byte{}
	keep := func() {
		for _, name := range d.names() {
			if strings.HasSuffix(name, ".seg") {
				out[name] = d.get(name)
			}
		}
	}
	for i := 0; i < 9; i++ {
		scriptStep(t, st, i)
		if i%3 == 2 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after step %d: %v", i, err)
			}
			keep()
		}
	}
	for _, from := range []int{1, 0} {
		mergeByHand(t, eng, from)
		keep()
	}
	return out
}

// TestSegmentFilesMatchFixture holds checkpoints and merges to the bytes
// they published before the folds were rewritten: testdata/segments holds
// every file publishedSegments' schedule wrote then — three checkpoints (the
// young two with tombstones and dictionary growth), a merge that keeps
// tombstones and one that reaches the base and drops them.
func TestSegmentFilesMatchFixture(t *testing.T) {
	matchFixture(t, publishedSegments(t))
}

// matchFixture holds the segment files a run of publishedSegments' schedule
// published to testdata/segments.
func matchFixture(t *testing.T, got map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "segments")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(got) || len(got) != 5 {
		t.Fatalf("the schedule published %d segment files, the fixture holds %d, want 5", len(got), len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if data, ok := got[e.Name()]; !ok {
			t.Errorf("the schedule did not publish %s", e.Name())
		} else if !bytes.Equal(data, want) {
			t.Errorf("%s: %d bytes differ from the fixture's %d", e.Name(), len(data), len(want))
		}
	}
}

// TestFoldsMatchNaiveReplay drives seeded schedules of small transactions
// over an alphabet of six triples — so a triple recurs inside one record,
// across the records of one window and across windows — with a rare fresh
// name for dictionary growth, and checkpoints at random steps. After every
// checkpoint and at the end it recovers a copy of the directory and holds
// its state to a naive map replay of the acknowledged writes, and holds
// every segment of the chain to the naive patch of its window: the triples
// its writes touched that are present at its end are its adds, the rest its
// tombstones (none in a segment starting at seq 1). It runs with background
// merges forced, with merges off, and with merges off but random suffixes of
// the chain merged by hand — the one shape in which a merged segment keeps
// tombstones.
func TestFoldsMatchNaiveReplay(t *testing.T) {
	alphabet := make([]store.Triple, 6)
	for i := range alphabet {
		alphabet[i] = store.Triple{Subject: fmt.Sprintf("s%d", i%3), Predicate: "p", Object: fmt.Sprintf("o%d", i/3)}
	}
	for _, mode := range []struct {
		name   string
		ratio  float64
		byHand bool
	}{
		{"merges-forced", 1e12, false},
		{"merges-off", -1, false},
		{"suffixes-by-hand", -1, true},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", mode.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d := newMemDisk()
				st := store.New()
				eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: mode.ratio}, d)
				defer eng.Close()
				model := map[store.Triple]bool{}
				var seqs []uint64                  // per write with a record, the seq of its mutation record
				var writes []map[store.Triple]bool // per such write, each triple it inserted or deleted, and its presence after
				check := func() {
					t.Helper()
					if mode.ratio > 0 {
						waitForChain(t, eng, 1)
					}
					checkNaiveChain(t, d, eng, st, model, seqs, writes)
				}
				fresh := 0
				for step := 0; step < 200; step++ {
					tx := st.Begin()
					changed := map[store.Triple]bool{}
					st.Write(func() bool {
						for n := rng.Intn(4); n > 0; n-- {
							tr := alphabet[rng.Intn(len(alphabet))]
							if rng.Intn(10) == 0 {
								tr = store.Triple{Subject: "fresh", Predicate: "p", Object: fmt.Sprintf("n%d", fresh)}
								fresh++
							}
							if ok, err := tx.Add(tr); err != nil {
								t.Fatal(err)
							} else if ok != !model[tr] {
								t.Fatalf("step %d: Add(%v) = %v against the model's %v", step, tr, ok, model[tr])
							} else if ok {
								model[tr], changed[tr] = true, true
							}
						}
						for n := rng.Intn(3); n > 0; n-- {
							tr := alphabet[rng.Intn(len(alphabet))]
							if ok := tx.Remove(tr); ok != model[tr] {
								t.Fatalf("step %d: Remove(%v) = %v against the model's %v", step, tr, ok, model[tr])
							} else if ok {
								delete(model, tr)
								changed[tr] = false
							}
						}
						return false
					})
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					if len(changed) > 0 {
						seqs = append(seqs, eng.w.currentSeq())
						writes = append(writes, changed)
					}
					if rng.Intn(12) == 0 {
						if err := eng.Checkpoint(); err != nil {
							t.Fatalf("checkpoint at step %d: %v", step, err)
						}
						if mode.byHand && rng.Intn(2) == 0 {
							mergeSuffixByHand(t, eng, rng)
						}
						check()
					}
				}
				check()
			})
		}
	}
}

// mergeSuffixByHand merges a random suffix of at least two segments of the
// chain, if it has that many.
func mergeSuffixByHand(t *testing.T, eng *Engine, rng *rand.Rand) {
	t.Helper()
	eng.mu.Lock()
	n := len(eng.tiers)
	eng.mu.Unlock()
	if n >= 2 {
		mergeByHand(t, eng, rng.Intn(n-1))
	}
}

// mergeByHand merges the chain from tier index from to its end, as the
// background merge would (Engine.Merge).
func mergeByHand(t *testing.T, eng *Engine, from int) {
	t.Helper()
	if err := eng.Merge(from); err != nil {
		t.Fatalf("merging the chain from tier %d: %v", from, err)
	}
}

// checkNaiveChain recovers a copy of d and compares it with the model, and
// each segment of the engine's chain with the naive patch of its window:
// writes[k] maps each triple the k-th recorded write touched to its presence
// after that write, and seqs[k] is the seq of that write's mutation record.
func checkNaiveChain(t *testing.T, d *memDisk, eng *Engine, st *store.Store, model map[store.Triple]bool, seqs []uint64, writes []map[store.Triple]bool) {
	t.Helper()
	got := store.New()
	rec, err := recoverDir(got, d.clone())
	if err != nil {
		t.Fatalf("recovering a copy: %v", err)
	}
	rec.file.Close()
	if want := sortedTriples(model, true); !slices.Equal(sortedTriples(storeSet(got), true), want) {
		t.Fatalf("recovered %d triples that differ from the naive replay's %d", got.Len(), len(want))
	}
	eng.mu.Lock()
	tiers := slices.Clone(eng.tiers)
	eng.mu.Unlock()
	res := st.NewResolver()
	named := func(run []store.IDTriple) []string {
		out := []string{}
		for _, tr := range run {
			out = append(out, res.Name(tr.S)+" "+res.Name(tr.P)+" "+res.Name(tr.O))
		}
		slices.Sort(out)
		return out
	}
	for _, m := range tiers {
		file := segmentName(m.start, m.end)
		_, _, segAdds, segRemoves, err := decodeSegment(file, d.get(file))
		if err != nil {
			t.Fatal(err)
		}
		patch := map[store.Triple]bool{}
		for k, seq := range seqs {
			if seq >= m.start && seq <= m.end {
				for tr, present := range writes[k] {
					patch[tr] = present
				}
			}
		}
		wantRemoves := []string{}
		if m.start > 1 { // a patch against the empty state removes nothing
			wantRemoves = sortedTriples(patch, false)
		}
		if adds := named(segAdds); !slices.Equal(adds, sortedTriples(patch, true)) {
			t.Fatalf("segment %s adds %v, the naive patch %v", file, adds, sortedTriples(patch, true))
		}
		if removes := named(segRemoves); !slices.Equal(removes, wantRemoves) {
			t.Fatalf("segment %s tombstones %v, the naive patch %v", file, removes, wantRemoves)
		}
	}
}

// sortedTriples lists the triples of set whose value is present, as sorted
// "s p o" strings.
func sortedTriples(set map[store.Triple]bool, present bool) []string {
	out := []string{}
	for tr, p := range set {
		if p == present {
			out = append(out, tr.Subject+" "+tr.Predicate+" "+tr.Object)
		}
	}
	slices.Sort(out)
	return out
}

// storeSet is the triples of st, as a set.
func storeSet(st *store.Store) map[store.Triple]bool {
	set := map[store.Triple]bool{}
	for _, tr := range st.Query(store.Pattern{}) {
		set[tr] = true
	}
	return set
}

// TestFoldEventsLimit pins checkFoldEvents at its boundary: a window of
// 2^31 triple events is the most a fold can number, and one more is refused
// with an error naming the limit.
func TestFoldEventsLimit(t *testing.T) {
	if err := checkFoldEvents(maxFoldEvents); err != nil {
		t.Fatalf("a window of exactly %d events refused: %v", maxFoldEvents, err)
	}
	err := checkFoldEvents(maxFoldEvents + 1)
	if err == nil || !strings.Contains(err.Error(), "2147483648") {
		t.Fatalf("a window of %d events: err = %v, want a refusal naming the limit", maxFoldEvents+1, err)
	}
	if last := uint32(maxFoldEvents-1)<<1 | 1; last != 1<<32-1 {
		t.Fatalf("the last position's add key is %#x, want the top of the uint32 range", last)
	}
}

// TestCheckpointAndMergeAllocateWhatTheyPublish bounds what one checkpoint
// and one merge allocate, by runtime.MemStats.TotalAlloc, on a quiet engine
// over a real directory. The checkpoint folds a window of about 1 MiB of
// 64-triple batches, every batch minting names; it may allocate at most
// 1.5 times the window's log bytes: its triple events (16 bytes per 12 on
// disk) and its dictionary window, each counted by a first walk and
// allocated once, and a few fixed buffers — the window is read through one
// frame buffer, never whole, and the segment is written from the events. The
// merge folds that segment into an older one; it may allocate at most 0.15
// times the bytes of its two inputs: the fixed buffers its cursors read the
// inputs through and the writer's — the fold streams its inputs and its
// output, so nothing is read whole, decoded or composed in memory.
func TestCheckpointAndMergeAllocateWhatTheyPublish(t *testing.T) {
	const checkpointBound, mergeBound = 1.5, 0.15
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: t.TempDir(), Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1})
	defer eng.Close()
	batch := 0
	fill := func() int64 {
		for eng.w.bytesSinceRotation() < 1<<20 {
			ts := make([]store.Triple, 64)
			for j := range ts {
				ts[j] = store.Triple{
					Subject:   fmt.Sprintf("subject-%d", batch*8+j%8),
					Predicate: fmt.Sprintf("predicate-%d", j%4),
					Object:    fmt.Sprintf("object-%d", batch*64+j),
				}
			}
			if _, err := st.AddBatch(ts); err != nil {
				t.Fatal(err)
			}
			batch++
		}
		return eng.w.bytesSinceRotation()
	}
	allocated := func(f func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fill()
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	window := fill()
	ckpt := allocated(eng.Checkpoint)
	ratio := float64(ckpt) / float64(window)
	t.Logf("checkpoint: %d B allocated over a %d B window (%.2f×, bound %.1f×)", ckpt, window, ratio, checkpointBound)
	if ratio > checkpointBound {
		t.Errorf("a checkpoint allocated %.2f× its window's log bytes, bound %.1f×", ratio, checkpointBound)
	}

	eng.mu.Lock()
	inputs := eng.tiers[0].bytes + eng.tiers[1].bytes
	eng.mu.Unlock()
	merge := allocated(func() error { mergeByHand(t, eng, 0); return nil })
	ratio = float64(merge) / float64(inputs)
	t.Logf("merge: %d B allocated over %d B of inputs (%.2f×, bound %.2f×)", merge, inputs, ratio, mergeBound)
	if ratio > mergeBound {
		t.Errorf("a merge allocated %.2f× its inputs' bytes, bound %.2f×", ratio, mergeBound)
	}
}

// TestMergeReadsEachInputOnce counts the bytes a merge reads of each input
// file (memDisk.readOf): opening the inputs (foldChain) reads no more of each
// than its magic, its trailer and its last frame, and the whole merge — the
// opens, the one pass over the names and the triples that writes the merged
// segment — reads at most 1.1 times each input's bytes. It merges a chain of
// three checkpoints both ways: its young two, a merge that keeps their
// tombstones, and the whole chain, a merge into the base that drops them.
func TestMergeReadsEachInputOnce(t *testing.T) {
	const bound = 1.1
	d := newMemDisk()
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	defer eng.Close()
	triple := func(i int) store.Triple {
		return store.Triple{Subject: fmt.Sprintf("s-%d", i/4), Predicate: fmt.Sprintf("p-%d", i%4), Object: fmt.Sprintf("o-%d", i)}
	}
	for w := 0; w < 3; w++ { // each window adds 3 000 triples and removes 500 of the one before
		for i := 3000 * w; i < 3000*(w+1); i++ {
			if _, err := st.Add(triple(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 3000 * (w - 1); w > 0 && i < 3000*(w-1)+500; i++ {
			st.Remove(triple(i))
		}
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	chain := eng.Stats().Tiers
	for _, tc := range []struct {
		name string
		from int
	}{{"keeping tombstones", 1}, {"into the base", 0}} {
		var metas []segMeta
		for _, tier := range chain[tc.from:] {
			metas = append(metas, segMeta{start: tier.Start, end: tier.End})
		}
		d.resetReads()
		merged, err := foldChain(d, metas, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metas {
			name := segmentName(m.start, m.end)
			if opened := d.readOf(name); opened > int64(len(segMagic)+tailSize) {
				t.Errorf("%s: opening %s read %d bytes, more than its magic, trailer and last frame (%d)", tc.name, name, opened, len(segMagic)+tailSize)
			}
		}
		out, err := writeSegment(d, merged, nil)
		merged.close()
		if err != nil {
			t.Fatal(err)
		}
		if tombstones := out.removes > 0; tombstones != (tc.from > 0) {
			t.Fatalf("%s: the merged segment holds %d tombstones", tc.name, out.removes)
		}
		for _, m := range metas {
			name := segmentName(m.start, m.end)
			size := int64(len(d.get(name)))
			ratio := float64(d.readOf(name)) / float64(size)
			t.Logf("%s: %s: %d of its %d bytes read (%.3f×)", tc.name, name, d.readOf(name), size, ratio)
			if ratio > bound {
				t.Errorf("%s: the merge read %.2f× the bytes of %s, bound %.1f×", tc.name, ratio, name, bound)
			}
		}
	}
}

// TestMergeRefusesInputsChangedMidMerge flips one byte of the oldest input
// once the merge has opened it — when it creates its output — inside a name,
// inside a triple, and inside the last frame's totals, which the cursor
// reads again at its end. Each merge is refused before its rename, leaves no
// .tmp and keeps the chain, which recovers as it was once the byte is mended.
func TestMergeRefusesInputsChangedMidMerge(t *testing.T) {
	for _, at := range []string{"name", "triple", "last frame"} {
		t.Run(at, func(t *testing.T) {
			d := newMemDisk()
			st := store.New()
			eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
			defer eng.Close()
			for i := 0; i < 6; i++ {
				scriptStep(t, st, i)
				if i%3 == 2 {
					if err := eng.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			tiers := eng.Stats().Tiers
			oldest := segmentName(tiers[0].Start, tiers[0].End)
			data := d.get(oldest)
			seg, err := openSegment(oldest, bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			off, names := len(segMagic), 0 // past the name frames: the first triple frame
			for names < seg.dict.N {
				payload, next, ok := nextFrame(data, off)
				if !ok {
					t.Fatalf("no name frame at %d", off)
				}
				_, run, err := decodeNames(payload)
				if err != nil {
					t.Fatal(err)
				}
				off, names = next, names+run.N
			}
			flip := map[string]int{
				"name":       len(segMagic) + frameHeader + 8 + 1, // past the first name's length byte
				"triple":     off + frameHeader + 8,
				"last frame": len(data) - tailSize + frameHeader + 48,
			}[at]
			live := snapshotString(t, st)
			d.setInject(func(op, name string) error {
				if op == "create" && fileKind(name) == "tmp" {
					d.flip(oldest, flip)
				}
				return nil
			})
			err = eng.Merge(0)
			d.setInject(nil)
			if err == nil {
				t.Fatal("the merge published an input that changed after it was opened")
			}
			t.Logf("the merge refused: %v", err)
			d.flip(oldest, flip)
			for _, name := range d.names() {
				if fileKind(name) == "tmp" {
					t.Fatalf("the refused merge left %s", name)
				}
			}
			if got := eng.Stats().Tiers; !slices.Equal(got, tiers) {
				t.Fatalf("the refused merge changed the chain to %+v", got)
			}
			rec := store.New()
			r, err := recoverDir(rec, d.clone())
			if err != nil {
				t.Fatalf("recovering the unmerged chain: %v", err)
			}
			r.file.Close()
			if snapshotString(t, rec) != live {
				t.Fatal("the unmerged chain recovers to another state")
			}
		})
	}
}

// TestReadsAtBufferEdges runs the schedule of TestSegmentFilesMatchFixture,
// recovery, Engine.Snapshot and LoadSnapshot with readers of 13-byte
// buffers, so every frame, name and triple straddles a buffer's edge: the
// checkpoints and merges publish the fixture's bytes, and every reader ends
// in the state, and the snapshot bytes, the default buffer gives.
func TestReadsAtBufferEdges(t *testing.T) {
	var states, snaps []string
	for _, size := range []int{13, readBufSize} {
		d := newMemDisk()
		d.bufSize = size
		matchFixture(t, publishedOn(t, d))
		opts := Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}
		st := store.New()
		eng := mustOpenDisk(t, st, opts, d)
		for i := 9; i < 12; i++ { // a log tail over the chain
			scriptStep(t, st, i)
		}
		snap, at, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("buffer %d: Snapshot: %v", size, err)
		}
		loaded := store.New()
		f, err := loadSnapshot(loaded, snap, size)
		if err != nil || f.Position() != at || at != st.Position() {
			t.Fatalf("buffer %d: loading the snapshot: %v; at %v, snapshot %v, store %v", size, err, f.Position(), at, st.Position())
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		recovered := store.New()
		rec, err := recoverDir(recovered, d.clone())
		if err != nil {
			t.Fatalf("buffer %d: recovery: %v", size, err)
		}
		rec.file.Close()
		live := snapshotString(t, st)
		if got := snapshotString(t, recovered); got != live {
			t.Fatalf("buffer %d: recovery diverges from the live store", size)
		}
		if got := snapshotString(t, loaded); got != live {
			t.Fatalf("buffer %d: the loaded snapshot diverges from the live store", size)
		}
		states, snaps = append(states, live), append(snaps, string(snap))
	}
	if states[0] != states[1] || snaps[0] != snaps[1] {
		t.Fatal("a 13-byte buffer and the default one end in different states or snapshots")
	}
}

// TestRecoveryMintsTailNamesIntoASmallPage pins what recovery's log tail
// costs in names: the chain's names are restored as the regions it read,
// capped, so the tail's names are minted into a page of the table's own,
// and the first such page is 256 B, not the 64 KiB the table's pages grow
// to. Recovering a chain of about 5 000 names with a 10-name tail allocates
// at most 4 KiB more than recovering it with an empty tail.
func TestRecoveryMintsTailNamesIntoASmallPage(t *testing.T) {
	d := newMemDisk()
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	var ts []store.Triple
	for i := 0; i < 2500; i++ {
		ts = append(ts, store.Triple{Subject: fmt.Sprintf("s-%d", i), Predicate: "p", Object: fmt.Sprintf("o-%d", i)})
	}
	if _, err := st.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	chain := d.clone()
	for i := 0; i < 5; i++ {
		if _, err := st.Add(store.Triple{Subject: fmt.Sprintf("tail-s-%d", i), Predicate: "p", Object: fmt.Sprintf("tail-o-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The least of three recoveries each: about once a process the runtime
	// starts an OS thread inside one — runtime.allocm, the m with its g0 and
	// signal goroutine, about 5.3 KB in two objects — when the parallel index
	// build of store.LoadSorted or the collector wants one more thread than
	// it has (the memory profiles of two test processes, one that took it
	// and one that did not, differ by it inside recovery).
	least := func(d *memDisk) (least uint64, st *store.Store) {
		least = math.MaxUint64
		for range 3 {
			var b uint64
			b, _, st = recovering(t, d.clone())
			least = min(least, b)
		}
		return least, st
	}
	base, _ := least(chain)
	tail, rec := least(d)
	t.Logf("recovering %d names: %d B with an empty tail, %d B with a 10-name tail", rec.DictLen(), base, tail)
	if tail > base+4<<10 {
		t.Errorf("the 10-name tail costs %d B more than an empty one, budget 4 KiB", tail-base)
	}
}

// TestRecoveryAllocatesNoObjectPerName: booting a checkpointed dictionary of
// 10⁵ names restores the regions the fold read as the name pages, so it
// allocates no object a name — no string, no string header.
func TestRecoveryAllocatesNoObjectPerName(t *testing.T) {
	const subjects = 50_000
	d := newMemDisk()
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	var ts []store.Triple
	for i := 0; i < subjects; i++ {
		ts = append(ts, store.Triple{Subject: fmt.Sprintf("inst-%d", i), Predicate: "p", Object: fmt.Sprintf("class-%d", i)})
	}
	if _, err := st.AddBatch(ts); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	bytes, objects, rec := recovering(t, d)
	names := rec.DictLen()
	t.Logf("recovering %d names and %d triples: %d objects, %d B", names, rec.Len(), objects, bytes)
	if names < 2*subjects || objects > uint64(names)/50 {
		t.Errorf("recovering %d names allocates %d objects: one a name or more", names, objects)
	}
}

// recovering recovers a store from d, reporting the bytes and objects the
// recovery allocated.
func recovering(t *testing.T, d *memDisk) (bytes, objects uint64, st *store.Store) {
	t.Helper()
	var before, after runtime.MemStats
	st = store.New()
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec, err := recoverDir(st, d)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rec.file.Close()
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, st
}

// foldedRuns runs the fold into the two runs it yields.
func foldedRuns(f *fold) (adds, removes []store.IDTriple) {
	adds, removes, _ = foldRuns(f)
	return adds, removes
}

// foldRuns runs the fold into the two runs it yields, and the error it ends
// with.
func foldRuns(f *fold) (adds, removes []store.IDTriple, err error) {
	err = f.each(func(t store.IDTriple, add bool) bool {
		if add {
			adds = append(adds, t)
		} else {
			removes = append(removes, t)
		}
		return true
	})
	return adds, removes, err
}

// TestFoldMatchesPairwiseAlgebra holds the k-way fold to the pairwise
// composition of patches, written here with store.UnionSorted and
// store.SubtractSorted: folding a newer patch onto an older one, the adds
// are (older adds − newer tombstones) ∪ newer adds and the tombstones
// (older ∪ newer tombstones) − adds, and a window that starts at seq 1 keeps
// no tombstones. It folds 2–9 random adjacent patches over a universe of
// twelve triples, so that every overlap occurs, with windows that start at
// seq 1 and windows that do not, and checks the count pass, the dictionary
// and the windows' adjacency checks too.
func TestFoldMatchesPairwiseAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	run := func() []store.IDTriple {
		var ts []store.IDTriple
		for s := uint32(0); s < 12; s++ {
			if rng.Intn(3) == 0 {
				ts = append(ts, store.IDTriple{S: s / 4, P: 1, O: s % 4})
			}
		}
		return ts
	}
	for i := 0; i < 4000; i++ {
		k, start := 2+rng.Intn(8), uint64(1)
		if i%2 == 1 {
			start += uint64(1 + rng.Intn(50))
		}
		f := &fold{}
		var wantAdds, wantTombs []store.IDTriple
		var wantNames []string
		end, dictNext := start-1, store.SymbolID(rng.Intn(5))
		for p := 0; p < k; p++ {
			adds := run()
			var removes []store.IDTriple
			if p > 0 || start > 1 { // a patch against the empty state removes nothing
				removes = store.SubtractSorted(run(), adds)
			}
			var names []string
			for n := rng.Intn(3); n > 0; n-- {
				names = append(names, fmt.Sprintf("name-%d", len(wantNames)+len(names)))
			}
			seg := patchOf(end+1, end+uint64(rng.Intn(4)), dictNext, names, adds, removes)
			if err := f.push(seg); err != nil {
				t.Fatalf("pushing patch %d: %v", p, err)
			}
			end, dictNext = seg.end, dictNext+store.SymbolID(len(names))
			wantNames = append(wantNames, names...)
			if p == 0 {
				wantAdds, wantTombs = adds, removes
				continue
			}
			wantAdds = store.UnionSorted(store.SubtractSorted(wantAdds, removes), adds)
			wantTombs = store.SubtractSorted(store.UnionSorted(wantTombs, removes), wantAdds)
		}
		if start == 1 {
			wantTombs = nil
		}
		adds, tombs := foldedRuns(f)
		if !slices.Equal(adds, wantAdds) || !slices.Equal(tombs, wantTombs) {
			t.Fatalf("case %d: %d patches from seq %d fold to adds %v tombstones %v, the pairwise algebra to %v and %v", i, k, start, adds, tombs, wantAdds, wantTombs)
		}
		if na, nr, err := f.count(); err != nil || na != len(adds) || nr != len(tombs) {
			t.Fatalf("case %d: count() = %d, %d, %v; each yields %d, %d", i, na, nr, err, len(adds), len(tombs))
		}
		if runs, err := f.dictionary(); err != nil || !slices.Equal(dictNames(runs), wantNames) || f.names != len(wantNames) {
			got := dictNames(runs)
			t.Fatalf("case %d: dictionary %v (%d names), want %v", i, got, f.names, wantNames)
		}
		if f.start != start || f.end != end {
			t.Fatalf("case %d: fold window [%d, %d], want [%d, %d]", i, f.start, f.end, start, end)
		}
		for _, bad := range []struct {
			next segmentData
			want string
		}{
			{segmentData{start: end + 2, end: end + 2, dictFirst: dictNext}, "windows not adjacent"},
			{segmentData{start: end + 1, end: end + 1, dictFirst: dictNext + 1}, "dictionary windows not contiguous"},
		} {
			if err := f.push(bad.next); err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("case %d: pushing [%d, %d] with first id %d: %v, want %q", i, bad.next.start, bad.next.end, bad.next.dictFirst, err, bad.want)
			}
		}
	}
}
