package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// This file holds the crash tests. TestCrashRecovery is the acceptance test
// the subsystem exists for: a child process ingests batches under
// FsyncAlways, acknowledging each one on stdout only after its group commit
// returns; the parent SIGKILLs it mid-ingest and then recovers the
// directory. The recovered store must be byte-identical (via the canonical
// Snapshot) to a reference store holding exactly the first K' batches for
// some K' — no partial batch ever surfaces — and K' must be at least the
// number of batches the child acknowledged before dying, because an
// acknowledged commit may never be lost. TestCrashMidMerge builds the
// directory a crash inside a merge's write leaves, over the fault disk.

const (
	crashChildEnv    = "DURABLE_CRASH_CHILD_DIR"
	crashBatchSize   = 2000
	crashMaxBatches  = 200
	crashKillAtAcked = 5
)

// crashBatch returns the deterministic k-th ingest batch. Components recur
// across batches so dictionary records and known-id adds both occur.
func crashBatch(k int) []store.Triple {
	batch := make([]store.Triple, 0, crashBatchSize)
	for i := 0; i < crashBatchSize; i++ {
		n := k*crashBatchSize + i
		batch = append(batch, store.Triple{
			Subject:   fmt.Sprintf("subject-%d", n%700),
			Predicate: fmt.Sprintf("predicate-%d", n%13),
			Object:    fmt.Sprintf("object-%d", n),
		})
	}
	return batch
}

// crashChild is the re-exec'd ingest loop: it runs until killed (or the
// batch cap, if the kill loses the race that badly).
func crashChild(dir string) {
	st := store.New()
	// A small checkpoint budget so the kill also lands around rotations and
	// segment writes, not only mid-append.
	eng, err := Open(st, Options{Dir: dir, Fsync: FsyncAlways, CheckpointBytes: 64 << 10})
	if err != nil {
		fmt.Println("child open error:", err)
		os.Exit(1)
	}
	for k := 0; k < crashMaxBatches; k++ {
		if _, err := st.AddBatch(crashBatch(k)); err != nil {
			fmt.Println("child ingest error:", err)
			os.Exit(1)
		}
		// The commit above returned: batch k is on stable storage. Only now
		// may it be acknowledged.
		fmt.Println("acked", k+1)
	}
	eng.Close()
	os.Exit(0)
}

func TestCrashRecovery(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChild(dir)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run", "^TestCrashRecovery$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting crash child: %v", err)
	}
	// Read acknowledgements until the kill threshold, then SIGKILL — no
	// shutdown path runs, so the directory is whatever the group commits
	// made durable plus, likely, a torn tail.
	acked := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "acked ") {
			t.Fatalf("child said %q", line)
		}
		n, err := strconv.Atoi(strings.TrimPrefix(line, "acked "))
		if err != nil {
			t.Fatalf("child said %q", line)
		}
		acked = n
		if acked >= crashKillAtAcked {
			break
		}
	}
	if acked < crashKillAtAcked {
		cmd.Wait()
		t.Fatalf("child exited after acknowledging only %d batches", acked)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("killing child: %v", err)
	}
	cmd.Wait() // reap; the kill makes the error uninteresting

	// Recover. The engine must come up without help...
	st := store.New()
	eng, err := Open(st, Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer eng.Close()
	got := snapshotString(t, st)

	// ...and its state must be EXACTLY the first K' batches for some K' ≥
	// acked: group commit may have made batches durable that were never
	// acknowledged (the kill raced the ack), but may never lose an
	// acknowledged one, and a batch is all-or-nothing.
	ref := store.New()
	matched := -1
	for k := 0; k <= crashMaxBatches; k++ {
		if snapshotString(t, ref) == got {
			matched = k
			break
		}
		if k < crashMaxBatches {
			if _, err := ref.AddBatch(crashBatch(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if matched < 0 {
		t.Fatalf("recovered state (%d triples) matches no committed batch prefix", st.Len())
	}
	if matched < acked {
		t.Fatalf("recovered state is the %d-batch prefix, but the child had %d batches acknowledged", matched, acked)
	}
	t.Logf("killed after %d acked batches; recovered exactly %d batches (seq %d, %d triples)",
		acked, matched, eng.LastSeq(), st.Len())
}

// TestCrashMidMerge tears a background merge mid-write, in process: a short
// write leaves half the merged .tmp on disk and the fake refuses its cleanup
// remove — the directory a crash inside the write leaves — while the inputs
// stay present. Recovery must treat the torn merge as simply not-yet-merged:
// delete the .tmp, chain the input segments, and reproduce the exact
// pre-crash state.
func TestCrashMidMerge(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1, MergeRatio: -1})
	for k := 0; k < 2; k++ {
		if _, err := st.AddBatch(crashBatch(k)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	tear := func(op, name string) error {
		switch {
		case !strings.HasSuffix(name, ".tmp"):
		case op == "write":
			return io.ErrShortWrite
		case op == "remove":
			return syscall.EIO
		}
		return nil
	}
	// An enormous ratio makes the two inputs mergeable; Open schedules the
	// merge itself, and it fails on the torn write.
	eng2, err := open(store.New(), Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1, MergeRatio: 1e12}, newFaultDisk(dir, tear))
	if err != nil {
		t.Fatal(err)
	}
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
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 1 {
		t.Fatalf("the torn merge left %d .tmp files, want its one output", len(tmps))
	}

	st3 := store.New()
	eng3, err := Open(st3, Options{Dir: dir, Fsync: FsyncOff, MergeRatio: -1})
	if err != nil {
		t.Fatalf("recovery after a torn merge: %v", err)
	}
	defer eng3.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("recovery kept the torn merge output %s", e.Name())
		}
	}
	if got := eng3.Stats().Segments; got != 2 {
		t.Fatalf("recovered chain has %d segments, want the 2 merge inputs", got)
	}
	ref := store.New()
	for k := 0; k < 2; k++ {
		if _, err := ref.AddBatch(crashBatch(k)); err != nil {
			t.Fatal(err)
		}
	}
	if snapshotString(t, st3) != snapshotString(t, ref) {
		t.Fatal("recovery after a torn merge diverges from the pre-crash state")
	}
}
