package durable

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// This file tests the tiering machinery end to end: the patch algebra under
// merge compaction, tombstones crossing segment boundaries, recovery over
// merged-plus-leftover and damaged chains, the one-fold-over-three-directory-
// shapes equivalence property, the two WAL sinks' agreement on what a record
// means, a failed segment publish, and the Close-during-merge contract.

// scriptStep applies the deterministic i-th mutation step as one transaction:
// a 40-triple batch, and with it
//
//   - every step i%3 == 1: one removal reaching back into step i-1 (a
//     two-sided record), which step i+1 re-adds — remove-then-re-add inside
//     one checkpoint window when the caller checkpoints every third step;
//   - every step i%3 == 2: three removals — two reaching back into step i-1
//     and one, scriptOwnVictim, retracting a triple the same step added, so
//     one log record carries a triple on both sides;
//   - every step i%3 == 0 after the first: a re-add of step i-1's first
//     back-reference — remove-then-re-add across a checkpoint boundary.
func scriptStep(t *testing.T, st *store.Store, i int) {
	t.Helper()
	var batch []store.Triple
	for j := 0; j < 40; j++ {
		batch = append(batch, testTriple(i*40+j))
	}
	var removes []int
	switch {
	case i%3 == 1:
		removes = []int{i*40 - 5}
	case i%3 == 2:
		batch = append(batch, testTriple((i-1)*40-5))
		removes = []int{i*40 - 1, i*40 - 17, scriptOwnVictim(i)}
	case i > 0:
		batch = append(batch, testTriple((i-1)*40-1))
	}
	tx := st.Begin()
	st.Write(func() bool {
		if fresh, err := tx.AddBatch(batch); err != nil || len(fresh) != len(batch) {
			t.Fatalf("script step %d: AddBatch inserted %d of %d: %v", i, len(fresh), len(batch), err)
		}
		for _, back := range removes {
			if !tx.Remove(testTriple(back)) {
				t.Fatalf("script step %d: Remove(%d) found nothing", i, back)
			}
		}
		return false
	})
	if err := tx.Commit(); err != nil {
		t.Fatalf("script step %d: %v", i, err)
	}
}

// scriptOwnVictim is the index of the triple step i (i%3 == 2) both adds and
// removes.
func scriptOwnVictim(i int) int { return i*40 + 7 }

// waitForChain polls until the engine's chain settles at want segments (the
// background merge is asynchronous) or the deadline passes.
func waitForChain(t *testing.T, eng *Engine, want int) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := eng.Stats()
		if stats.Err != "" {
			t.Fatalf("engine error while waiting for the merge: %s", stats.Err)
		}
		if stats.Segments == want {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain stuck at %d segments, want %d: %+v", stats.Segments, want, stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMergeCompaction(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1})
	for i := 0; i < 4; i++ {
		scriptStep(t, st, i)
		if err := eng.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	// Four similar-sized young segments violate the default 4× separation, so
	// the background merge must fold them into one base segment.
	stats := waitForChain(t, eng, 1)
	if stats.Merges == 0 || stats.LastMergeDuration <= 0 {
		t.Fatalf("chain merged but Merges = %d, LastMergeDuration = %v", stats.Merges, stats.LastMergeDuration)
	}
	base := stats.Tiers[0]
	if base.Start != 1 || base.End != stats.SegmentSeq {
		t.Fatalf("base tier covers [%d, %d], want [1, %d]", base.Start, base.End, stats.SegmentSeq)
	}
	if base.Tombstones != 0 {
		t.Fatalf("base tier carries %d tombstones; a patch against the empty state removes nothing", base.Tombstones)
	}
	if base.Triples != st.Len() {
		t.Fatalf("base tier holds %d triples, store holds %d", base.Triples, st.Len())
	}
	if stats.MergeBytes == 0 || stats.WriteAmplification <= 1 {
		t.Fatalf("merge accounting missing: %+v", stats)
	}
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := store.New()
	eng2 := mustOpen(t, st2, Options{Dir: dir, Fsync: FsyncOff})
	defer eng2.Close()
	if snapshotString(t, st2) != want {
		t.Fatal("recovery over the merged chain diverges from the pre-close state")
	}
}

// TestTombstoneOverOldAdd pins the cross-segment removal contract both ways:
// a younger segment's tombstone must suppress an older segment's add during
// chain recovery, and a merge folding the two must drop the pair entirely.
func TestTombstoneOverOldAdd(t *testing.T) {
	dir := t.TempDir()
	victim := testTriple(5)
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1})
	scriptStep(t, st, 0)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !st.Remove(victim) {
		t.Fatalf("Remove(%v) found nothing", victim)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotString(t, st)
	if got := eng.Stats(); got.Segments != 2 || got.Tiers[1].Tombstones != 1 {
		t.Fatalf("chain %+v, want 2 tiers with 1 young tombstone", got)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Unmerged: recovery must apply the young tombstone over the old add.
	st2 := store.New()
	eng2 := mustOpen(t, st2, Options{Dir: dir, Fsync: FsyncOff, mergeRatio: -1})
	if st2.Contains(victim) {
		t.Fatal("chain recovery resurrected a tombstoned triple")
	}
	if snapshotString(t, st2) != want {
		t.Fatal("chain recovery diverges from the pre-close state")
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	// Merged: an enormous ratio makes the tiny tombstone segment mergeable
	// into the big one; Open schedules the merge itself. The fold must erase
	// the add/tombstone pair.
	st3 := store.New()
	eng3 := mustOpen(t, st3, Options{Dir: dir, Fsync: FsyncOff, mergeRatio: 1e12})
	defer eng3.Close()
	stats := waitForChain(t, eng3, 1)
	if st3.Contains(victim) {
		t.Fatal("merge resurrected a tombstoned triple")
	}
	if base := stats.Tiers[0]; base.Tombstones != 0 || base.Triples != st3.Len() {
		t.Fatalf("merged base tier %+v, want %d triples and no tombstones", base, st3.Len())
	}
	if snapshotString(t, st3) != want {
		t.Fatal("post-merge recovery diverges from the pre-close state")
	}
}

// TestRecoveryPrefersMergedSegment stages the directory a crash between a
// merge's publish and its input cleanup leaves behind: the merged segment AND
// its narrower inputs. Recovery must chain the merged one and delete the
// leftovers.
func TestRecoveryPrefersMergedSegment(t *testing.T) {
	d := newMemDisk()
	older := segmentData{
		start: 1, end: 5, dictFirst: 0,
		dict: namesOf("a", "b", "c"),
		adds: runOf(store.IDTriple{S: 0, P: 1, O: 2}),
	}
	newer := segmentData{
		start: 6, end: 10, dictFirst: 3,
		dict:    namesOf("d"),
		adds:    runOf(store.IDTriple{S: 0, P: 1, O: 3}),
		removes: runOf(store.IDTriple{S: 0, P: 1, O: 2}),
	}
	stamped := []segmentData{older, newer}
	stampChain(stamped)
	older, newer = stamped[0], stamped[1]
	merged := foldOf(older)
	if err := merged.push(newer); err != nil {
		t.Fatalf("folding [1, 5] and [6, 10]: %v", err)
	}
	if adds, removes := foldedRuns(merged); len(removes) != 0 || len(adds) != 1 || adds[0] != (store.IDTriple{S: 0, P: 1, O: 3}) {
		t.Fatalf("fold produced adds %v removes %v", adds, removes)
	}
	for _, f := range []*fold{foldOf(older), foldOf(newer), merged} {
		if _, err := writeSegment(d, f, nil); err != nil {
			t.Fatalf("writeSegment([%d, %d]): %v", f.start, f.end, err)
		}
	}
	st := store.New()
	rec, err := recoverDir(st, d)
	if err != nil {
		t.Fatalf("recoverDir: %v", err)
	}
	rec.file.Close()
	if len(rec.tiers) != 1 || rec.tiers[0].start != 1 || rec.tiers[0].end != 10 {
		t.Fatalf("recovered tiers %+v, want the single merged [1, 10] segment", rec.tiers)
	}
	if rec.lastSeq != 10 {
		t.Fatalf("lastSeq = %d, want 10", rec.lastSeq)
	}
	if st.Len() != 1 || !st.Contains(store.Triple{Subject: "a", Predicate: "b", Object: "d"}) {
		t.Fatalf("recovered store holds %d triples", st.Len())
	}
	for _, leftover := range []string{segmentName(1, 5), segmentName(6, 10)} {
		if slices.Contains(d.names(), leftover) {
			t.Fatalf("recovery kept the merged-away input %s", leftover)
		}
	}
}

func TestDamagedChainIsAnError(t *testing.T) {
	base := segmentData{
		start: 1, end: 5, dictFirst: 0,
		dict: namesOf("a", "b", "c"),
		adds: runOf(store.IDTriple{S: 0, P: 1, O: 2}),
	}
	for _, tc := range []struct {
		name string
		next segmentData
		want string
	}{
		{"gap", segmentData{start: 8, end: 10, dictFirst: 3, dict: namesOf("d"), adds: runOf(store.IDTriple{S: 0, P: 1, O: 3})}, "missing"},
		{"overlap", segmentData{start: 4, end: 10, dictFirst: 3, dict: namesOf("d"), adds: runOf(store.IDTriple{S: 0, P: 1, O: 3})}, "overlap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newMemDisk()
			for _, seg := range []segmentData{base, tc.next} {
				if _, err := writeSegment(d, foldOf(seg), nil); err != nil {
					t.Fatal(err)
				}
			}
			_, err := recoverDir(store.New(), d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("recoverDir over a %s chain: %v, want a %q error", tc.name, err, tc.want)
			}
		})
	}
}

// TestReplayAndChainRecoveryAgree is the equivalence property the whole tier
// design rests on: the same mutation script — add batches, two-sided
// records, a triple on both sides of one record, removes re-added within a
// window and across one — recovered from a WAL-only directory, from an
// unmerged segment chain plus tail, and from a fully merged chain must
// produce byte-identical stores (canonical Snapshot) — and identical
// dictionaries, since tombstone ids only mean anything if every shape mints
// the same ids. All three go through the one fold; they differ only in which
// files carry the patches.
func TestReplayAndChainRecoveryAgree(t *testing.T) {
	const steps = 9
	run := func(opts Options, ckptEvery int, mergedTo int) (string, string) {
		dir := t.TempDir()
		opts.Dir = dir
		opts.Fsync = FsyncOff
		opts.CheckpointBytes = -1
		st := store.New()
		eng := mustOpen(t, st, opts)
		for i := 0; i < steps; i++ {
			scriptStep(t, st, i)
			if ckptEvery > 0 && i%ckptEvery == ckptEvery-1 {
				if err := eng.Checkpoint(); err != nil {
					t.Fatalf("checkpoint at step %d: %v", i, err)
				}
			}
		}
		if mergedTo > 0 {
			waitForChain(t, eng, mergedTo)
		}
		live := snapshotString(t, st)
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		st2 := store.New()
		eng2 := mustOpen(t, st2, Options{Dir: dir, Fsync: FsyncOff, mergeRatio: -1})
		defer eng2.Close()
		if got := snapshotString(t, st2); got != live {
			t.Fatal("recovered snapshot differs from the live store it journaled")
		}
		// A triple added and removed inside one record ends absent on every
		// path, and in a young segment the pair folds to a tombstone (beside
		// the step's two back-references), not to an add.
		for i := 2; i < steps; i += 3 {
			if st2.Contains(testTriple(scriptOwnVictim(i))) {
				t.Fatalf("step %d's triple, added and removed by one record, was recovered as present", i)
			}
		}
		if ckptEvery > 0 && mergedTo == 0 {
			for k, tier := range eng2.Stats().Tiers {
				if k > 0 && tier.Tombstones != 3 {
					t.Fatalf("young segment %d folds to %d tombstones, want 3", k, tier.Tombstones)
				}
			}
		}
		res := st2.NewResolver()
		var dict strings.Builder
		for i := 0; i < st2.DictLen(); i++ {
			fmt.Fprintf(&dict, "%d=%s\n", i, res.Name(store.SymbolID(i)))
		}
		return snapshotString(t, st2), dict.String()
	}
	replaySnap, replayDict := run(Options{mergeRatio: -1}, 0, 0)   // WAL only
	chainSnap, chainDict := run(Options{mergeRatio: -1}, 3, 0)     // segments + tail, unmerged
	mergedSnap, mergedDict := run(Options{mergeRatio: 1e12}, 3, 1) // fully merged base
	if chainSnap != replaySnap || mergedSnap != replaySnap {
		t.Fatal("replay, chain and merged recoveries disagree on the store state")
	}
	if chainDict != replayDict || mergedDict != replayDict {
		t.Fatal("replay, chain and merged recoveries disagree on id assignment")
	}
}

// TestCloseWaitsForMerge pins the shutdown contract: Close must not return
// while a background merge is mid-flight — here parked on the memory disk's
// create of its .tmp — but waits for the merge to notice the shutdown and
// abort before its rename, and the abort leaves no .tmp and a chain recovery
// reproduces exactly.
func TestCloseWaitsForMerge(t *testing.T) {
	st := store.New()
	entered := make(chan struct{})
	release := make(chan struct{})
	var tmps atomic.Int32
	// The two checkpoints create the first two .tmp files; the merge creates
	// the third and parks there.
	park := func(op, name string) error {
		if op == "create" && strings.HasSuffix(name, ".tmp") && tmps.Add(1) == 3 {
			close(entered)
			<-release
		}
		return nil
	}
	d := &memDisk{inject: park}
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1}, d)
	for i := 0; i < 2; i++ {
		scriptStep(t, st, i)
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Two similar-sized segments put the chain out of separation; the second
	// checkpoint scheduled the merge, which is now parked creating its output.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("background merge never started")
	}
	want := snapshotString(t, st)
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the merge was still parked in its create", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the merge was released")
	}
	for _, name := range d.names() {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("shutdown left %s behind", name)
		}
	}
	st2 := store.New()
	eng2 := mustOpenDisk(t, st2, Options{Fsync: FsyncOff, mergeRatio: -1}, d)
	defer eng2.Close()
	if got := eng2.Stats().Segments; got != 2 {
		t.Fatalf("aborted merge left %d segments, want the 2 untouched inputs", got)
	}
	if snapshotString(t, st2) != want {
		t.Fatal("recovery after an aborted merge diverges from the pre-close state")
	}
}

// TestWALSinksAgreeOnBadLogs pins that the log has one reader: a window
// recovery refuses, a checkpoint refuses too, and with the same error —
// before this held by construction a log could exist that booted and could
// never checkpoint (recovery used to verify-and-skip a dictionary record
// that restated a minted id). Each image is the wal files of a directory,
// the last one open; the recovery sink is recoverDir over it, the checkpoint
// sink an engine that believes recovery accepted it.
func TestWALSinksAgreeOnBadLogs(t *testing.T) {
	names := encodeDict(nil, 1, 0, []string{"a", "b", "c"})
	abc := store.IDTriple{S: 0, P: 1, O: 2}
	type walImage struct {
		first   uint64
		records [][]byte
	}
	for _, tc := range []struct {
		name  string
		files []walImage
		last  uint64 // seq of the image's last record
		want  string
	}{
		{"restated id", []walImage{{1, [][]byte{
			names,
			encodeMutation(nil, 2, []store.IDTriple{abc}, nil, store.Position{}, true),
			encodeDict(nil, 3, 2, []string{"c"}),
		}}}, 3, "dictionary record starts at id 2, want 3"},
		{"skipped id", []walImage{{1, [][]byte{
			names,
			encodeDict(nil, 2, 4, []string{"e"}),
		}}}, 2, "dictionary record starts at id 4, want 3"},
		{"unminted id", []walImage{{1, [][]byte{
			names,
			encodeMutation(nil, 2, nil, []store.IDTriple{{S: 0, P: 1, O: 3}}, store.Position{}, true),
		}}}, 2, "beyond the 3 the dictionary had minted"},
		{"misnamed file", []walImage{
			{1, [][]byte{names, encodeMutation(nil, 2, []store.IDTriple{abc}, nil, store.Position{}, true)}},
			{4, [][]byte{encodeMutation(nil, 3, nil, []store.IDTriple{abc}, store.Position{}, true), encodeMutation(nil, 4, []store.IDTriple{abc}, nil, store.Position{}, true)}},
			{5, nil},
		}, 4, walFileName(4) + " does not follow record 2"},
		{"first record is not the file's name", []walImage{
			{1, [][]byte{names}},
			{2, [][]byte{encodeMutation(nil, 3, []store.IDTriple{abc}, nil, store.Position{}, true)}},
			{4, nil},
		}, 3, "has seq 3, want 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*memDisk, []uint64) {
				d := newMemDisk()
				var firsts []uint64
				for _, f := range tc.files {
					var data []byte
					for _, payload := range f.records {
						data = appendFrame(data, payload)
					}
					d.put(walFileName(f.first), data)
					firsts = append(firsts, f.first)
				}
				return d, firsts
			}
			d, _ := build()
			_, recErr := recoverDir(store.New(), d)
			if recErr == nil || !strings.Contains(recErr.Error(), tc.want) {
				t.Fatalf("recovery: %v, want an error naming %q", recErr, tc.want)
			}

			d, firsts := build()
			f, err := d.openAppend(walFileName(firsts[len(firsts)-1]))
			if err != nil {
				t.Fatal(err)
			}
			eng := &Engine{
				st:   store.New(),
				opts: Options{mergeRatio: -1},
				disk: d,
				w:    newWALWriter(d, FsyncOff, recovered{file: f, lastSeq: tc.last, wals: firsts}),
				wals: firsts,
			}
			defer eng.w.close()
			ckptErr := eng.Checkpoint()
			if ckptErr == nil || ckptErr.Error() != recErr.Error() {
				t.Fatalf("checkpoint: %v\nrecovery:   %v\nwant the same refusal from both sinks", ckptErr, recErr)
			}
			if got := eng.Stats().Segments; got != 0 {
				t.Fatalf("a refused window was published: %d segments", got)
			}
		})
	}
}

// TestCheckpointPublishFailureKeepsTheLog blocks a checkpoint's segment
// publish (the disk fails the create of its .tmp) and
// checks nothing is lost: the error is reported, every sealed wal file stays
// on disk and listed, a retry with nothing journaled since does not mistake
// the file rotation re-created for a sealed one, and once the obstacle is
// gone the next checkpoint covers both windows — after which a reopen
// recovers the full state.
func TestCheckpointPublishFailureKeepsTheLog(t *testing.T) {
	var blocked atomic.Bool
	var obstacle string
	d := &memDisk{inject: func(op, name string) error {
		if blocked.Load() && op == "create" && name == obstacle {
			return syscall.EEXIST
		}
		return nil
	}}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	scriptStep(t, st, 0)
	first := eng.LastSeq()
	obstacle = segmentName(1, first) + ".tmp"
	blocked.Store(true)
	wantFiles := func(when string, firsts ...uint64) {
		t.Helper()
		eng.ckptMu.Lock()
		listed := append([]uint64(nil), eng.wals...)
		eng.ckptMu.Unlock()
		if fmt.Sprint(listed) != fmt.Sprint(firsts) {
			t.Fatalf("%s: engine lists wal files %v, want %v", when, listed, firsts)
		}
		var onDisk []uint64
		for _, name := range d.names() {
			if n, ok := parseSeqName(name, "wal-", ".wal"); ok {
				onDisk = append(onDisk, n)
			}
		}
		if fmt.Sprint(onDisk) != fmt.Sprint(firsts) {
			t.Fatalf("%s: directory holds wal files %v, want %v", when, onDisk, firsts)
		}
	}
	for _, attempt := range []string{"blocked checkpoint", "blocked retry with nothing journaled since"} {
		if err := eng.Checkpoint(); err == nil || !strings.Contains(err.Error(), "creating segment") {
			t.Fatalf("%s: %v, want the publish failure", attempt, err)
		}
		if got := eng.Stats(); got.Segments != 0 || got.Checkpoints != 0 {
			t.Fatalf("%s counted as a checkpoint: %+v", attempt, got)
		}
		wantFiles(attempt, 1, first+1)
	}

	scriptStep(t, st, 1) // a second window, journaled into wal-<first+1>
	blocked.Store(false)
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the obstacle was removed: %v", err)
	}
	stats := eng.Stats()
	if stats.Segments != 1 || stats.Tiers[0].Start != 1 || stats.Tiers[0].End != eng.LastSeq() || stats.Tiers[0].Triples != st.Len() {
		t.Fatalf("chain %+v, want one segment covering both windows [1, %d] with %d triples", stats.Tiers, eng.LastSeq(), st.Len())
	}
	wantFiles("after the covering checkpoint", eng.LastSeq()+1)
	scriptStep(t, st, 2) // and a tail beyond it
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := store.New()
	eng2 := mustOpenDisk(t, st2, Options{Fsync: FsyncOff, mergeRatio: -1}, d)
	defer eng2.Close()
	if snapshotString(t, st2) != want {
		t.Fatal("recovery after a failed-then-retried checkpoint diverges from the pre-close state")
	}
}
