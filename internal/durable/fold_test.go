package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// namesOf encodes names as the run a dictionary record or a segment carries.
func namesOf(names ...string) nameRun {
	run := nameRun{n: len(names)}
	for _, name := range names {
		run.enc = binary.AppendUvarint(run.enc, uint64(len(name)))
		run.enc = append(run.enc, name...)
	}
	return run
}

// runOf encodes triples as the run a segment carries.
func runOf(ts ...store.IDTriple) tripleRun {
	var run tripleRun
	for _, t := range ts {
		run = appendTriple(run, t)
	}
	return run
}

// triples decodes a run.
func (r tripleRun) triples() []store.IDTriple {
	ts := make([]store.IDTriple, r.len())
	for i := range ts {
		ts[i] = r.at(i)
	}
	return ts
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
	d := newMemDisk()
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
	got := publishedSegments(t)
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
		seg, err := decodeSegment(file, d.get(file))
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
		if adds := named(seg.adds.triples()); !slices.Equal(adds, sortedTriples(patch, true)) {
			t.Fatalf("segment %s adds %v, the naive patch %v", file, adds, sortedTriples(patch, true))
		}
		if removes := named(seg.removes.triples()); !slices.Equal(removes, wantRemoves) {
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
// 3.5 times the window's log bytes: reading the window (1×), its triple
// events (16 bytes per 12 on disk), the survivors and the writer's buffer.
// The merge folds that segment into an older one; it may allocate at most
// 1.3 times the bytes of its two inputs: reading them once (1×) and the
// writer's buffer — the fold reads the runs where they lie and streams its
// output into the file, so nothing is decoded or composed in memory.
func TestCheckpointAndMergeAllocateWhatTheyPublish(t *testing.T) {
	const checkpointBound, mergeBound = 3.5, 1.3
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
	t.Logf("merge: %d B allocated over %d B of inputs (%.2f×, bound %.1f×)", merge, inputs, ratio, mergeBound)
	if ratio > mergeBound {
		t.Errorf("a merge allocated %.2f× its inputs' bytes, bound %.1f×", ratio, mergeBound)
	}
}

// foldedRuns runs the fold into the two runs it yields.
func foldedRuns(f *fold) (adds, removes []store.IDTriple) {
	f.each(func(t store.IDTriple, add bool) bool {
		if add {
			adds = append(adds, t)
		} else {
			removes = append(removes, t)
		}
		return true
	})
	return adds, removes
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
			seg := segmentData{start: end + 1, end: end + uint64(rng.Intn(4)), dictFirst: dictNext, dict: namesOf(names...), adds: runOf(adds...), removes: runOf(removes...)}
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
		if na, nr := f.count(); na != len(adds) || nr != len(tombs) {
			t.Fatalf("case %d: count() = %d, %d; each yields %d, %d", i, na, nr, len(adds), len(tombs))
		}
		if got := f.dictionary(); !slices.Equal(got, wantNames) || f.names != len(wantNames) {
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
