package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// This file tests the disk seam: the door test that keeps it the package's
// only way to the file system, the order Open makes a new directory durable
// in, and the fault table — every seam operation of every phase that issues
// it, failed every way it can fail, against the failure class of its phase.

// TestOnlyTheDiskSeamImportsOS is the door test: among the package's
// non-test files only disk.go may import os (or syscall, or io/ioutil), so
// the fault table below reaches every syscall the engine issues.
func TestOnlyTheDiskSeamImportsOS(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	seamImportsOS := false
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path != "os" && path != "syscall" && path != "io/ioutil":
			case name == "disk.go":
				seamImportsOS = seamImportsOS || path == "os"
			default:
				t.Errorf("%s imports %s; file system access goes through disk (disk.go)", name, path)
			}
		}
	}
	if !seamImportsOS {
		t.Fatal("disk.go does not import os; the door test is looking at the wrong file")
	}
}

// TestNewDirectoryIsDurableBeforeTheFirstAck pins the order Open and the
// first commit issue their operations in over a data directory that does not
// exist yet: the directory is created and synced into its parent before the
// log file is created, and both before the first acknowledged commit's
// fsync — an OS crash cannot take the directory, and the write acknowledged
// in it, away.
func TestNewDirectoryIsDurableBeforeTheFirstAck(t *testing.T) {
	d := &memDisk{}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncAlways, CheckpointBytes: -1}, d)
	defer eng.Close()
	if _, err := st.Add(testTriple(0)); err != nil {
		t.Fatal(err)
	}
	wal := walFileName(1)
	want := []string{"mkdir ", "syncdir ..", "list ", "create " + wal, "syncdir .", "write " + wal, "sync " + wal}
	if got := d.log(); !slices.Equal(got, want) {
		t.Fatalf("operations %q, want %q", got, want)
	}
}

// faultTx applies the i-th transaction of the fault table's workload: three
// adds, and extra with them, and, after the first, the retraction of the
// previous one's last add.
func faultTx(st *store.Store, i int, extra ...store.Triple) error {
	tx := st.Begin()
	var err error
	st.Write(func() bool {
		if _, err = tx.AddBatch(append([]store.Triple{testTriple(3 * i), testTriple(3*i + 1), testTriple(3*i + 2)}, extra...)); err == nil && i > 0 {
			tx.Remove(testTriple(3*i - 1))
		}
		return false
	})
	if err != nil {
		return err
	}
	return tx.Commit()
}

// faultRefs[k] is the snapshot of the first k transactions of the workload.
var faultRefs = sync.OnceValue(func() []string {
	st := store.New()
	var refs []string
	for i := 0; ; i++ {
		var b strings.Builder
		if _, err := st.Snapshot(&b); err != nil {
			panic(err)
		}
		if refs = append(refs, b.String()); i == 12 {
			return refs
		}
		if err := faultTx(st, i); err != nil {
			panic(err)
		}
	}
})

// fileKind names what a seam operation acts on: wal, seg or tmp for a file,
// "." or ".." for a directory sync, "" for mkdir and list.
func fileKind(name string) string {
	for _, ext := range []string{".tmp", ".wal", ".seg"} {
		if strings.HasSuffix(name, ext) {
			return ext[1:]
		}
	}
	return name
}

// faultArm is the fault table's injector: while armed it watches the
// operations go by, opens its phase at the operation from names ("" opens it
// at once), closes it at until, and fails the first operation inside the
// phase that matches its row, once. It records every operation the phase
// saw, for the coverage check.
type faultArm struct {
	mu          sync.Mutex
	armed, open bool
	from, until string
	op          string // "op kind" to fail; "" fails nothing
	err         error
	fired       int
	seen        map[string]bool
}

func (a *faultArm) arm(from, until, op string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.armed, a.open, a.from, a.until = true, false, from, until
	a.op, a.err, a.fired, a.seen = op, err, 0, map[string]bool{}
}

func (a *faultArm) inject(op, name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := op + " " + fileKind(name)
	if a.armed && !a.open && (a.from == "" || k == a.from) {
		a.open = true
	}
	if a.open && k == a.until {
		a.armed, a.open = false, false
	}
	if !a.open {
		return nil
	}
	a.seen[k] = true
	if k == a.op && a.fired == 0 {
		a.fired++
		return a.err
	}
	return nil
}

// disarm ends the phase: later operations are neither seen nor failed.
func (a *faultArm) disarm() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.armed, a.open = false, false
}

// result reports what the armed phase saw and whether its fault fired.
func (a *faultArm) result() (map[string]bool, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seen, a.fired
}

// A failure class: what a fault in a phase must leave behind.
const (
	// classWriter: the log writer failed. The write in flight (if any) and
	// every later content-changing write get store.ErrJournal, reads keep
	// working, and a healthy reopen recovers a prefix of the submitted
	// transactions containing every acknowledged one.
	classWriter = "writer"
	// classBackground: a checkpoint or merge failed. Writes keep committing,
	// Stats.Err is set until the next success clears it, and no
	// acknowledged write is lost.
	classBackground = "background"
	// classRecovery: Open failed, and a healthy reopen recovers the state
	// the directory held.
	classRecovery = "recovery"
)

// faultPhase is one phase of the engine's life: the action that issues it,
// and where inside that action it starts and ends (from and until are
// "op kind" operations; "" starts it with the action and ends it with the
// action).
type faultPhase struct {
	name, class string
	from, until string
	// mergeRatio configures the engine the phase runs on, under FsyncAlways.
	mergeRatio float64
	// prepare brings the engine to the phase; act performs the action and
	// returns its error. Neither applies to recovery phases, whose image is.
	prepare, act func(h *faultHarness) error
	image        func(t *testing.T) *memDisk
}

// faultPhases are the phases of the fault table, in the engine's order.
var faultPhases = []faultPhase{
	{name: "writer drain", class: classWriter, mergeRatio: -1,
		prepare: func(h *faultHarness) error { return h.txs(2) },
		act:     func(h *faultHarness) error { return h.txs(1) }},
	{name: "rotation", class: classWriter, until: "read wal", mergeRatio: -1,
		prepare: func(h *faultHarness) error { return h.txs(2) },
		act:     func(h *faultHarness) error { return h.eng.Checkpoint() }},
	{name: "checkpoint publish", class: classBackground, from: "read wal", until: "remove wal", mergeRatio: -1,
		prepare: func(h *faultHarness) error { return h.txs(2) },
		act:     func(h *faultHarness) error { return h.eng.Checkpoint() }},
	{name: "checkpoint cleanup", class: classBackground, from: "remove wal", mergeRatio: -1,
		prepare: func(h *faultHarness) error { return h.txs(2) },
		act:     func(h *faultHarness) error { return h.eng.Checkpoint() }},
	{name: "merge publish", class: classBackground, from: "read seg", until: "remove seg", mergeRatio: 1e12,
		prepare: prepareMerge, act: actMerge},
	{name: "merge cleanup", class: classBackground, from: "remove seg", mergeRatio: 1e12,
		prepare: prepareMerge, act: actMerge},
	{name: "recovery", class: classRecovery, image: recoveryImage},
	{name: "recovery of a new directory", class: classRecovery,
		image: func(*testing.T) *memDisk { return &memDisk{} }},
}

// prepareMerge leaves a one-segment chain and a journaled window: the act's
// checkpoint then makes the two segments a background merge folds.
func prepareMerge(h *faultHarness) error {
	if err := h.txs(1); err != nil {
		return err
	}
	if err := h.eng.Checkpoint(); err != nil {
		return err
	}
	return h.txs(1)
}

// actMerge checkpoints and waits for the merge it schedules to finish or
// fail, returning the failure.
func actMerge(h *faultHarness) error {
	if err := h.eng.Checkpoint(); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := h.eng.Stats()
		switch {
		case st.Err != "":
			return errors.New(st.Err)
		case st.Merges > 0:
			return nil
		case time.Now().After(deadline):
			return errors.New("the merge never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// faultTable lists every operation each phase issues, as "op kind" (see
// fileKind); TestFaultTable checks it against what the phases issue, then
// fails each one every way its operation can fail.
var faultTable = map[string][]string{
	"writer drain":       {"write wal", "sync wal"},
	"rotation":           {"sync wal", "close wal", "create wal", "syncdir ."},
	"checkpoint publish": {"read wal", "create tmp", "write tmp", "sync tmp", "close tmp", "rename tmp", "syncdir ."},
	"checkpoint cleanup": {"remove wal"},
	"merge publish":      {"read seg", "create tmp", "write tmp", "sync tmp", "close tmp", "rename tmp", "syncdir ."},
	"merge cleanup":      {"remove seg"},
	"recovery": {"mkdir ", "syncdir ..", "list ", "remove tmp", "remove seg", "remove wal", "read seg", "read wal",
		"truncate wal", "append wal"},
	"recovery of a new directory": {"mkdir ", "syncdir ..", "list ", "create wal", "syncdir ."},
}

// fault is one way an operation can fail.
type fault struct {
	name string
	err  error
}

// faultsFor is every way the operation op can fail.
func faultsFor(op string) []fault {
	eio, enospc := fault{"EIO", syscall.EIO}, fault{"ENOSPC", syscall.ENOSPC}
	switch op {
	case "write":
		return []fault{eio, enospc, {"short write", io.ErrShortWrite}}
	case "sync", "syncdir":
		return []fault{{"fsync error", syscall.EIO}}
	case "rename":
		return []fault{{"rename error", syscall.EXDEV}}
	case "create", "append", "mkdir":
		return []fault{eio, enospc}
	}
	return []fault{eio}
}

// faultHarness is one engine over a memory disk and the tally of the
// transactions submitted to it.
type faultHarness struct {
	t         *testing.T
	disk      *memDisk
	st        *store.Store
	eng       *Engine
	submitted int // transactions submitted
	acked     int // of them, the prefix committed without error
}

// txs submits the workload's next n transactions, stopping at the first
// failure.
func (h *faultHarness) txs(n int) error {
	for ; n > 0; n-- {
		h.submitted++
		if err := faultTx(h.st, h.submitted-1); err != nil {
			return err
		}
		if h.acked == h.submitted-1 {
			h.acked++
		}
	}
	return nil
}

// reopen closes the engine and recovers a copy of its directory on a healthy
// disk, returning the recovered snapshot.
func (h *faultHarness) reopen() string {
	h.t.Helper()
	h.eng.Close() // a failed log reports its error again here
	st := store.New()
	eng := mustOpenDisk(h.t, st, Options{Fsync: FsyncOff, mergeRatio: -1}, h.disk.clone())
	defer eng.Close()
	return snapshotString(h.t, st)
}

// TestFaultTable runs the fault table over the memory disk. For each phase it
// first runs the phase healthy and checks the table lists exactly the operations
// the phase issued; then, for every listed operation and every way it can
// fail, it runs the phase again with that one fault and checks the phase's
// failure class.
func TestFaultTable(t *testing.T) {
	cases := 0
	start := time.Now()
	for _, ph := range faultPhases {
		t.Run(ph.name, func(t *testing.T) {
			seen, _ := runPhase(t, ph, "", nil)
			var issued []string
			for k := range seen {
				issued = append(issued, k)
			}
			want := slices.Clone(faultTable[ph.name])
			slices.Sort(issued)
			slices.Sort(want)
			if !slices.Equal(issued, want) {
				t.Fatalf("the phase issued %q, the table lists %q", issued, want)
			}
			for _, op := range faultTable[ph.name] {
				for _, f := range faultsFor(strings.Fields(op)[0]) {
					cases++
					t.Run(op+"/"+f.name, func(t *testing.T) {
						if _, fired := runPhase(t, ph, op, f.err); fired != 1 {
							t.Fatalf("the fault fired %d times, want once", fired)
						}
					})
				}
			}
		})
	}
	t.Run("streamed reads", func(t *testing.T) { cases += streamedReadCases(t) })
	t.Logf("%d fault cases in %v", cases, time.Since(start).Round(time.Millisecond))
}

// streamedReadCases are the fault table's cases for the reads the folds
// stream their inputs through, which one row per phase cannot reach: a
// merge whose k-th read fails, and a checkpoint whose k-th read fails, for
// every read of a healthy one, and a merge input with a byte flipped after
// its verifying pass. It returns how many cases it ran.
func streamedReadCases(t *testing.T) int {
	cases := 0
	opts := Options{Fsync: FsyncAlways, CheckpointBytes: -1, mergeRatio: -1}
	// merging returns an engine whose chain is two segments.
	merging := func(t *testing.T) *faultHarness {
		h := &faultHarness{t: t, disk: newMemDisk(), st: store.New()}
		h.eng = mustOpenDisk(t, h.st, opts, h.disk)
		for i := 0; i < 2; i++ {
			if err := h.txs(1); err != nil {
				t.Fatal(err)
			}
			if err := h.eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	// failing fails the k-th "read kind" operation with EIO; k 0 fails none.
	// It reports how many such reads there were.
	failing := func(d *memDisk, kind string, k int) *int {
		n := new(int)
		d.setInject(func(op, name string) error {
			if op != "read" || fileKind(name) != kind {
				return nil
			}
			if *n++; *n == k {
				return syscall.EIO
			}
			return nil
		})
		return n
	}
	// unmerged checks that a failed merge published nothing, left no .tmp
	// and kept its inputs, and that the merge then succeeds.
	unmerged := func(t *testing.T, h *faultHarness, inputs []string) {
		t.Helper()
		h.disk.setInject(nil)
		names := h.disk.names()
		for _, name := range names {
			if fileKind(name) == "tmp" {
				t.Fatalf("the failed merge left %s", name)
			}
		}
		for _, input := range inputs {
			if !slices.Contains(names, input) {
				t.Fatalf("the failed merge lost its input %s", input)
			}
		}
		if n := h.eng.Stats().Segments; n != len(inputs) {
			t.Fatalf("the chain is %d segments after the failed merge, want its %d inputs", n, len(inputs))
		}
		if err := h.eng.Merge(0); err != nil {
			t.Fatalf("the merge after the failure: %v", err)
		}
		if got := h.reopen(); got != faultRefs()[h.acked] {
			t.Fatal("recovery after the retried merge diverges from the acknowledged writes")
		}
	}
	chainNames := func(h *faultHarness) []string {
		var names []string
		for _, tier := range h.eng.Stats().Tiers {
			names = append(names, segmentName(tier.Start, tier.End))
		}
		return names
	}

	h := merging(t)
	reads := failing(h.disk, "seg", 0)
	if err := h.eng.Merge(0); err != nil {
		t.Fatal(err)
	}
	h.eng.Close()
	for k := 1; k <= *reads; k++ {
		cases++
		t.Run(fmt.Sprintf("merge read %d of %d", k, *reads), func(t *testing.T) {
			h := merging(t)
			inputs := chainNames(h)
			failing(h.disk, "seg", k)
			if err := h.eng.Merge(0); !errors.Is(err, syscall.EIO) {
				t.Fatalf("the merge returned %v, want its read's EIO", err)
			}
			unmerged(t, h, inputs)
		})
	}

	// checkpointing returns an engine with a journaled window.
	checkpointing := func(t *testing.T) *faultHarness {
		h := &faultHarness{t: t, disk: newMemDisk(), st: store.New()}
		h.eng = mustOpenDisk(t, h.st, opts, h.disk)
		if err := h.txs(2); err != nil {
			t.Fatal(err)
		}
		return h
	}
	h = checkpointing(t)
	reads = failing(h.disk, "wal", 0)
	if err := h.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h.eng.Close()
	for k := 1; k <= *reads; k++ {
		cases++
		t.Run(fmt.Sprintf("checkpoint read %d of %d", k, *reads), func(t *testing.T) {
			h := checkpointing(t)
			failing(h.disk, "wal", k)
			if err := h.eng.Checkpoint(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("the checkpoint returned %v, want its read's EIO", err)
			}
			h.disk.setInject(nil)
			h.eng.ckptMu.Lock()
			wals := slices.Clone(h.eng.wals)
			h.eng.ckptMu.Unlock()
			names := h.disk.names()
			if len(wals) != 2 || !slices.Contains(names, walFileName(wals[0])) || h.eng.Stats().Segments != 0 {
				t.Fatalf("after the failed checkpoint the engine lists wal files %v over %v and %d segments, want the sealed file and its successor",
					wals, names, h.eng.Stats().Segments)
			}
			checkBackground(t, h, faultPhase{}, errors.New(h.eng.Stats().Err))
		})
	}

	// A byte of the oldest input flipped once the merge has opened it — when
	// the merge creates its output — in its first name, which only its name
	// frame's CRC covers, or in the last triple of its adds, the last bytes
	// of its last triple frame: the input starts at seq 1, so its frames
	// hold no tombstones. The offsets come from the input's frames
	// (segFrames), and each case checks the kind of frame it flips.
	for _, at := range []struct {
		what string
		kind frameKind
		off  func(frames []segFrame) int
	}{
		{"a name", frameName, func(frames []segFrame) int { return frames[0].body + 8 + 1 }},
		{"a triple", frameTriple, func(frames []segFrame) int { return frames[len(frames)-2].end - 1 }},
	} {
		cases++
		t.Run("merge input flipped in "+at.what, func(t *testing.T) {
			h := merging(t)
			inputs := chainNames(h)
			data := h.disk.get(inputs[0])
			frames, err := segFrames(data)
			if err != nil {
				t.Fatal(err)
			}
			off := at.off(frames)
			f := frameOf(frames, off)
			switch {
			case f.kind != at.kind:
				t.Fatalf("offset %d of %s lies in a %v frame, want a %v one", off, inputs[0], f.kind, at.kind)
			case f.kind == frameName && (data[f.body+8] >= 0x80 || int(data[f.body+8]) < 1):
				t.Fatalf("the first name of %s is not a short one: its length byte is %#x", inputs[0], data[f.body+8])
			case f.kind == frameTriple && binary.LittleEndian.Uint32(data[f.body+4:]) != 0:
				t.Fatalf("the last triple frame of %s holds tombstones", inputs[0])
			}
			h.disk.setInject(func(op, name string) error {
				if op == "create" && fileKind(name) == "tmp" {
					h.disk.flip(inputs[0], off)
				}
				return nil
			})
			if err = h.eng.Merge(0); err == nil {
				t.Fatal("the merge published an input that changed after it was opened")
			}
			t.Logf("the merge refused: %v", err)
			h.disk.flip(inputs[0], off) // mended, as a reread would find it
			unmerged(t, h, inputs)
		})
	}
	return cases
}

// runPhase runs one phase with op failing with err ("" runs it healthy),
// checks the phase's failure class, and returns what the phase issued and
// how often the fault fired.
func runPhase(t *testing.T, ph faultPhase, op string, err error) (map[string]bool, int) {
	t.Helper()
	arm := &faultArm{}
	if ph.class == classRecovery {
		checkRecovery(t, ph, arm, op, err)
		return arm.result()
	}
	h := &faultHarness{t: t, disk: &memDisk{inject: arm.inject}, st: store.New()}
	h.eng = mustOpenDisk(t, h.st, Options{Fsync: FsyncAlways, CheckpointBytes: -1, mergeRatio: ph.mergeRatio}, h.disk)
	if err := ph.prepare(h); err != nil {
		t.Fatalf("preparing the phase: %v", err)
	}
	arm.arm(ph.from, ph.until, op, err)
	actErr := ph.act(h)
	arm.disarm()
	seen, fired := arm.result()
	switch {
	case op == "":
		if actErr != nil {
			t.Fatalf("the healthy phase failed: %v", actErr)
		}
		live := snapshotString(t, h.st)
		if got := h.reopen(); got != live {
			t.Fatal("recovery after the healthy phase diverges from the live store")
		}
	case ph.class == classWriter:
		checkWriter(t, h, ph, actErr)
	default:
		checkBackground(t, h, ph, actErr)
	}
	return seen, fired
}

// checkWriter asserts classWriter.
func checkWriter(t *testing.T, h *faultHarness, ph faultPhase, actErr error) {
	t.Helper()
	inFlight := ph.name == "writer drain"
	if actErr == nil || inFlight && !errors.Is(actErr, store.ErrJournal) {
		t.Fatalf("the action returned %v, want a failure (store.ErrJournal for a write)", actErr)
	}
	if h.eng.Err() == nil || h.eng.Stats().Err == "" {
		t.Fatal("the writer's error is not reported by Err and Stats.Err")
	}
	if err := h.txs(1); !errors.Is(err, store.ErrJournal) {
		t.Fatalf("a later write returned %v, want store.ErrJournal (the error is sticky)", err)
	}
	if !h.st.Contains(testTriple(0)) || h.st.Len() == 0 {
		t.Fatal("reads stopped working after the writer failed")
	}
	got, refs := h.reopen(), faultRefs()
	for k := h.acked; k <= h.submitted; k++ {
		if got == refs[k] {
			return
		}
	}
	t.Fatalf("recovery is no prefix of the %d submitted transactions holding the %d acknowledged ones", h.submitted, h.acked)
}

// checkBackground asserts classBackground.
func checkBackground(t *testing.T, h *faultHarness, ph faultPhase, actErr error) {
	t.Helper()
	if actErr == nil {
		t.Fatal("the failed checkpoint or merge reported success")
	}
	if h.eng.Stats().Err == "" {
		t.Fatal("Stats.Err is empty after a failed checkpoint or merge")
	}
	if h.eng.Err() != nil {
		t.Fatalf("a background failure became the writer's sticky error: %v", h.eng.Err())
	}
	if err := h.txs(1); err != nil {
		t.Fatalf("a write after the failure: %v, want it committed", err)
	}
	if err := h.eng.Checkpoint(); err != nil {
		t.Fatalf("the next checkpoint: %v", err)
	}
	if ph.mergeRatio > 0 {
		waitForChain(t, h.eng, 1) // the retried merge; fails the test on a new error
	}
	if e := h.eng.Stats().Err; e != "" {
		t.Fatalf("Stats.Err %q survived the next success", e)
	}
	if got := h.reopen(); got != faultRefs()[h.acked] || h.acked != h.submitted {
		t.Fatalf("recovery lost acknowledged writes (%d of %d acknowledged)", h.acked, h.submitted)
	}
}

// checkRecovery asserts classRecovery: Open over the phase's image fails
// under the fault, and a healthy Open then recovers what a healthy Open of a
// copy of the image does.
func checkRecovery(t *testing.T, ph faultPhase, arm *faultArm, op string, err error) {
	t.Helper()
	image := ph.image(t)
	opts := Options{Fsync: FsyncOff, mergeRatio: -1}
	healthy := func(d *memDisk) string {
		st := store.New()
		eng := mustOpenDisk(t, st, opts, d)
		defer eng.Close()
		return snapshotString(t, st)
	}
	want := healthy(image.clone())
	image.setInject(arm.inject)
	arm.arm(ph.from, ph.until, op, err)
	eng, oerr := open(store.New(), opts, image)
	arm.disarm()
	switch {
	case op == "" && oerr != nil:
		t.Fatalf("healthy recovery: %v", oerr)
	case op == "":
		eng.Close()
	case oerr == nil:
		eng.Close()
		t.Fatal("Open succeeded under the fault")
	}
	if got := healthy(image); got != want {
		t.Fatal("a healthy reopen after the failed one recovers a different state")
	}
}

// recoveryImage is a directory that makes recovery issue every operation it
// can on an existing directory: a merged segment beside a leftover input it
// subsumes, a wal file behind the chain, an unpublished .tmp, and a log tail
// with a torn frame.
func recoveryImage(t *testing.T) *memDisk {
	d := &memDisk{}
	// Two checkpoints and a tail, the first window's wal file and segment
	// saved before they are superseded...
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	leftovers := map[string][]byte{}
	for i := 0; i < 6; i++ {
		if err := faultTx(st, i); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			leftovers[walFileName(1)] = d.get(walFileName(1))
		}
		if i == 1 || i == 3 {
			if err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			input := segmentName(1, eng.Stats().SegmentSeq)
			leftovers[input] = d.get(input)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// ...then the two segments merged, and the leftovers put back beside the
	// merged one, with a .tmp and a torn frame.
	eng = mustOpenDisk(t, store.New(), Options{Fsync: FsyncOff, mergeRatio: 1e12}, d)
	waitForChain(t, eng, 1)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	names := d.names() // wal- sorts after seg-: the last is the log tail
	tail := names[len(names)-1]
	leftovers[tail] = append(d.get(tail), 9, 0, 0, 0, 1, 2) // half a frame header
	leftovers[segmentName(1, 99)+".tmp"] = []byte("half a checkpoint")
	for name, data := range leftovers {
		d.put(name, data)
	}
	return d
}
