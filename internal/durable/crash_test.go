package durable

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// This file holds the crash tests. TestCrashStates is the acceptance test
// the subsystem exists for: it runs a scripted schedule over the memory disk
// and, before every disk operation, recovers every directory a crash there
// may leave (memDisk.crashImages), checking four denials against each.
// TestCrashMidMerge builds the directory a crash inside a merge's write
// leaves.

// crashLimit bounds the images recovered per boundary; past it a seeded
// sample is drawn.
const crashLimit = 64

// The crash schedule's transaction crashBulkTx adds crashBulk triples beside
// faultTx's three, so its frame and the segments carrying it span enough
// sectors that the boundaries around them have more than crashLimit images.
const crashBulkTx, crashBulk = 4, 1200

// crashTx applies the i-th transaction of the crash schedule.
func crashTx(st *store.Store, i int) error {
	var bulk []store.Triple
	for j := 0; i == crashBulkTx && j < crashBulk; j++ {
		bulk = append(bulk, testTriple(1000+j))
	}
	return faultTx(st, i, bulk...)
}

// crashRef is the state the first k transactions of the schedule leave: its
// triples, and the position the writing store reported.
type crashRef struct {
	triples []store.Triple
	at      store.Position
}

// crashRefs[k] is the state of the first k transactions of the schedule.
var crashRefs = sync.OnceValue(func() []crashRef {
	st := store.New()
	refs := []crashRef{{st.Triples(), st.Position()}}
	for i := 0; i < 10; i++ {
		if err := crashTx(st, i); err != nil {
			panic(err)
		}
		refs = append(refs, crashRef{st.Triples(), st.Position()})
	}
	return refs
})

// prefixHeld returns the k in [lo, hi] whose first k transactions leave
// exactly the triples st holds, or -1.
func prefixHeld(st *store.Store, lo, hi int) int {
	for k := lo; k <= hi; k++ {
		ref := crashRefs()[k].triples
		if st.Len() == len(ref) && !slices.ContainsFunc(ref, func(t store.Triple) bool { return !st.Contains(t) }) {
			return k
		}
	}
	return -1
}

// crashImageOpts recovers an image with no background work, so a recovery
// issues recovery's operations only.
var crashImageOpts = Options{Fsync: FsyncAlways, CheckpointBytes: -1, mergeRatio: -1}

// crashRun is one pass of the crash-state schedule: the tally of the
// transactions submitted to it, and what its checks saw.
type crashRun struct {
	t   *testing.T
	rng *rand.Rand // draws the sample at a boundary past crashLimit

	// mu serializes the checks — the merge's run on the background
	// goroutine — and the tally they read.
	mu                          sync.Mutex
	submitted, acked            int
	boundaries, images, sampled int
	failed                      bool
	// next is the first image of a crash during transaction crashLostTx whose
	// recovery both truncates and removes: the directory phase B boots.
	next *memDisk
}

// crashLostTx is the transaction phase B's crash loses.
const crashLostTx = 7

// txs submits the workload's next n transactions, each under FsyncAlways.
func (r *crashRun) txs(st *store.Store, n int) {
	r.t.Helper()
	for ; n > 0; n-- {
		r.mu.Lock()
		i := r.submitted
		r.submitted++
		r.mu.Unlock()
		if err := crashTx(st, i); err != nil {
			r.t.Fatalf("transaction %d: %v", i, err)
		}
		r.mu.Lock()
		r.acked++
		r.mu.Unlock()
	}
}

// check is the boundary before the operation at on d: it recovers every
// image a crash there may leave, or crashLimit of them, and reports the first
// that breaks a denial.
func (r *crashRun) check(d *memDisk, at string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed {
		return
	}
	images, total := d.crashImages(crashLimit, r.rng)
	r.boundaries++
	r.images += len(images)
	if total > crashLimit {
		r.sampled++
	}
	for i, img := range images {
		before := img.clone()
		ops, err := r.recoverImage(img)
		if err != nil {
			r.failed = true
			r.t.Errorf("crash before %q (%d acknowledged, %d submitted), image %d of %d %s: %v", at, r.acked, r.submitted, i, len(images), describe(before), err)
			return
		}
		inLost := r.acked == crashLostTx && r.submitted == crashLostTx+1
		if inLost && r.next == nil && slices.ContainsFunc(ops, isTruncate) && slices.ContainsFunc(ops, isRemove) {
			r.next = before
		}
	}
}

func isTruncate(op string) bool { return strings.HasPrefix(op, "truncate ") }
func isRemove(op string) bool   { return strings.HasPrefix(op, "remove ") }

// recoverImage boots img and checks the four denials, returning the
// operations the recovery issued:
//  1. it boots;
//  2. the recovered snapshot is that of the first k submitted transactions,
//     acked ≤ k ≤ submitted, at the position the writer recorded there —
//     the generation and the digest;
//  3. no .tmp is left, and the segments tile 1..N;
//  4. recovering the recovered directory again gives the same state and
//     issues no remove, truncate or create.
func (r *crashRun) recoverImage(img *memDisk) ([]string, error) {
	st := store.New()
	eng, err := open(st, crashImageOpts, img)
	if err != nil {
		return nil, fmt.Errorf("it does not boot: %w", err)
	}
	k := prefixHeld(st, r.acked, r.submitted)
	at := st.Position()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	ops := img.log()
	if k < 0 {
		return ops, fmt.Errorf("the recovered state is no prefix of the submitted transactions holding the acknowledged ones")
	}
	if want := crashRefs()[k].at; at != want {
		return ops, fmt.Errorf("the recovered state of transaction %d is at position %v, the writer recorded %v", k, at, want)
	}
	if err := tiles(img.names()); err != nil {
		return ops, err
	}
	st = store.New()
	if eng, err = open(st, crashImageOpts, img); err != nil {
		return ops, fmt.Errorf("the recovered directory does not boot: %w", err)
	}
	again := prefixHeld(st, k, k)
	if err := eng.Close(); err != nil {
		return ops, err
	}
	if again != k {
		return ops, fmt.Errorf("recovering the recovered directory gives another state")
	}
	for _, op := range img.log()[len(ops):] {
		if isRemove(op) || isTruncate(op) || strings.HasPrefix(op, "create ") {
			return ops, fmt.Errorf("recovering the recovered directory issues %q", op)
		}
	}
	return ops, nil
}

// tiles checks a recovered directory's names: no .tmp, and segments whose
// windows tile 1..N.
func tiles(names []string) error {
	type window struct{ start, end uint64 }
	var segs []window
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			return fmt.Errorf("recovery left %s", name)
		}
		if start, end, ok := parseSegmentName(name); ok {
			segs = append(segs, window{start, end})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	next := uint64(1)
	for _, w := range segs {
		if w.start != next {
			return fmt.Errorf("the segments %v do not tile 1..N", segs)
		}
		next = w.end + 1
	}
	return nil
}

// describe names the files of an image and their sizes.
func describe(img *memDisk) string {
	var files []string
	for _, name := range img.names() {
		files = append(files, fmt.Sprintf("%s (%d B)", name, len(img.get(name))))
	}
	return fmt.Sprint(files)
}

// runCrashStates runs the crash-state schedule under FsyncAlways, checking
// every boundary, with seed drawing the samples:
//
//	A  open a new directory; transactions 0–2 (two-sided, each growing the
//	   dictionary); checkpoint (rotation, publish, cleanup); 3–5; checkpoint,
//	   whose two segments a size-tiered merge folds; 6–7; close
//	B  boot the image a crash during transaction 7's fsync leaves, chosen so
//	   recovery both removes (the merge's inputs, whose removal was never
//	   synced) and truncates (transaction 7's torn frame); 7–9 again; close
func runCrashStates(t *testing.T, seed int64) *crashRun {
	r := &crashRun{t: t, rng: rand.New(rand.NewSource(seed))}
	opts := Options{Fsync: FsyncAlways, CheckpointBytes: -1}
	boot := func(d *memDisk) (*store.Store, *Engine) {
		d.setInject(func(op, name string) error {
			r.check(d, op+" "+name)
			return nil
		})
		st := store.New()
		return st, mustOpenDisk(t, st, opts, d)
	}
	end := func(d *memDisk, eng *Engine) {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		r.check(d, "the end")
	}

	d := &memDisk{}
	st, eng := boot(d)
	r.txs(st, 3)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.txs(st, 3)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	waitForChain(t, eng, 1)
	r.txs(st, 2)
	end(d, eng)

	if r.next == nil {
		t.Fatal("no image of a crash during transaction 7 makes recovery truncate and remove")
	}
	r.submitted, r.acked = crashLostTx, crashLostTx
	d = r.next
	st, eng = boot(d)
	if prefixHeld(st, crashLostTx, crashLostTx) != crashLostTx {
		t.Fatal("the booted image is not the state of transactions 0–6")
	}
	r.txs(st, 3)
	end(d, eng)
	return r
}

// TestCrashStates enumerates the crash states of the schedule. It checks
// every assertion a process kill could (a kill is the image that keeps every
// written byte) under a weaker survivor model: any un-synced write may be
// lost or torn, any un-synced entry change undone.
func TestCrashStates(t *testing.T) {
	start := time.Now()
	r := runCrashStates(t, 1)
	t.Logf("%d boundaries, %d images recovered (%d boundaries sampled) in %v",
		r.boundaries, r.images, r.sampled, time.Since(start).Round(time.Millisecond))
}

// FuzzCrashStates runs the schedule with the fuzzer choosing the seed the
// samples past crashLimit are drawn with.
func FuzzCrashStates(f *testing.F) {
	f.Add(int64(2))
	f.Fuzz(func(t *testing.T, seed int64) { runCrashStates(t, seed) })
}

// TestCrashMidMerge tears a background merge mid-write: a short write leaves
// half the merged .tmp on disk and the disk refuses its cleanup remove — the
// directory a crash inside the write leaves — while the inputs stay present.
// Recovery must treat the torn merge as simply not-yet-merged: delete the
// .tmp, chain the input segments, and reproduce the exact pre-crash state.
func TestCrashMidMerge(t *testing.T) {
	d := &memDisk{}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	for k := 0; k < 2; k++ {
		scriptStep(t, st, k)
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	d.setInject(func(op, name string) error {
		switch {
		case !strings.HasSuffix(name, ".tmp"):
		case op == "write":
			return io.ErrShortWrite
		case op == "remove":
			return syscall.EIO
		}
		return nil
	})
	// An enormous ratio makes the two inputs mergeable; Open schedules the
	// merge itself, and it fails on the torn write.
	eng2 := mustOpenDisk(t, store.New(), Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: 1e12}, d)
	deadline := time.Now().Add(10 * time.Second)
	for eng2.Stats().Err == "" {
		if time.Now().After(deadline) {
			t.Fatal("the torn merge never reported its failure")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	tmps := slices.DeleteFunc(d.names(), func(name string) bool { return !strings.HasSuffix(name, ".tmp") })
	if len(tmps) != 1 {
		t.Fatalf("the torn merge left %d .tmp files, want its one output", len(tmps))
	}

	d.setInject(nil)
	st3 := store.New()
	eng3 := mustOpenDisk(t, st3, Options{Fsync: FsyncOff, mergeRatio: -1}, d)
	defer eng3.Close()
	if slices.Contains(d.names(), tmps[0]) {
		t.Fatalf("recovery kept the torn merge output %s", tmps[0])
	}
	if got := eng3.Stats().Segments; got != 2 {
		t.Fatalf("recovered chain has %d segments, want the 2 merge inputs", got)
	}
	if snapshotString(t, st3) != want {
		t.Fatal("recovery after a torn merge diverges from the pre-crash state")
	}
}
