package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// testTriple returns the i-th triple of a deterministic corpus whose
// components recur across triples, so the dictionary grows slower than the
// triple count and batches mix fresh and known ids.
func testTriple(i int) store.Triple {
	return store.Triple{
		Subject:   fmt.Sprintf("s%d", i%37),
		Predicate: fmt.Sprintf("p%d", i%11),
		Object:    fmt.Sprintf("o%d", i),
	}
}

// snapshotString returns the store's canonical snapshot as a string.
func snapshotString(t testing.TB, st *store.Store) string {
	t.Helper()
	var b strings.Builder
	if _, err := st.Snapshot(&b); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return b.String()
}

// mustOpen opens an engine over dir or fails the test.
func mustOpen(t testing.TB, st *store.Store, opts Options) *Engine {
	t.Helper()
	eng, err := Open(st, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return eng
}

func TestOpenPristineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff})
	var triples []store.Triple
	for i := 0; i < 500; i++ {
		triples = append(triples, testTriple(i))
	}
	if _, err := st.AddBatch(triples[:300]); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if _, err := st.Add(triples[300]); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if _, err := st.AddBatch(triples[301:]); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if removed := st.Remove(triples[7]); !removed {
		t.Fatalf("Remove(%v) found nothing", triples[7])
	}
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := store.New()
	eng2 := mustOpen(t, st2, Options{Dir: dir, Fsync: FsyncOff})
	defer eng2.Close()
	if got := snapshotString(t, st2); got != want {
		t.Fatalf("recovered snapshot differs from the one before close:\ngot  %d bytes\nwant %d bytes", len(got), len(want))
	}
	if got, wantSeq := eng2.LastSeq(), eng.LastSeq(); got != wantSeq {
		t.Fatalf("recovered LastSeq = %d, want %d", got, wantSeq)
	}
}

func TestOpenRejectsNonEmptyStore(t *testing.T) {
	st := store.New()
	if _, err := st.Add(testTriple(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st, Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open accepted a non-empty store")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(store.New(), Options{}); err == nil {
		t.Fatal("Open accepted empty Options.Dir")
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	d := &memDisk{}
	st := store.New()
	// mergeRatio -1: no background merges, so the tier layout is exactly what
	// the checkpoints produced.
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1}, d)
	var first, second []store.Triple
	for i := 0; i < 400; i++ {
		first = append(first, testTriple(i))
	}
	for i := 400; i < 700; i++ {
		second = append(second, testTriple(i))
	}
	if _, err := st.AddBatch(first); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	stats := eng.Stats()
	if stats.Segments != 1 || stats.SegmentSeq == 0 || stats.Checkpoints != 1 {
		t.Fatalf("after checkpoint: %+v", stats)
	}
	if stats.WALBytes != 0 {
		t.Fatalf("WALBytes = %d after checkpoint, want 0", stats.WALBytes)
	}
	// The log behind the checkpoint is gone; one fresh tail file remains.
	var segs, wals int
	for _, name := range d.names() {
		if strings.HasSuffix(name, ".seg") {
			segs++
		}
		if strings.HasSuffix(name, ".wal") {
			wals++
		}
	}
	if segs != 1 || wals != 1 {
		t.Fatalf("after checkpoint the directory holds %d segments and %d log files, want 1 and 1", segs, wals)
	}

	// Mutate past the checkpoint, checkpoint again (a second, young delta
	// segment joins the chain), mutate more, and verify recovery sees
	// chain + tail.
	if _, err := st.AddBatch(second[:200]); err != nil {
		t.Fatal(err)
	}
	st.Remove(first[3])
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	stats = eng.Stats()
	if stats.Segments != 2 || len(stats.Tiers) != 2 {
		t.Fatalf("Segments = %d (tiers %d) after second checkpoint, want a 2-segment chain", stats.Segments, len(stats.Tiers))
	}
	// The second segment is a delta: it carries only the window's net changes,
	// including the tombstone for the removed triple.
	if y := stats.Tiers[1]; y.Start != stats.Tiers[0].End+1 || y.Triples != 200 || y.Tombstones != 1 {
		t.Fatalf("young tier %+v, want 200 adds and 1 tombstone starting at seq %d", y, stats.Tiers[0].End+1)
	}
	if _, err := st.AddBatch(second[200:]); err != nil {
		t.Fatal(err)
	}
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := store.New()
	eng2 := mustOpenDisk(t, st2, Options{Fsync: FsyncOff}, d)
	defer eng2.Close()
	if got := snapshotString(t, st2); got != want {
		t.Fatal("snapshot after segment+tail recovery differs from the pre-close snapshot")
	}
}

func TestCheckpointEmptyWindowIsNoop(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff})
	defer eng.Close()
	if err := eng.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on an empty log: %v", err)
	}
	if got := eng.Stats().Checkpoints; got != 0 {
		t.Fatalf("empty-window checkpoint ran (%d), want no-op", got)
	}
	if _, err := st.Add(testTriple(1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil { // window empty again
		t.Fatal(err)
	}
	if got := eng.Stats().Checkpoints; got != 1 {
		t.Fatalf("Checkpoints = %d, want 1", got)
	}
}

func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	// A tiny budget so the first real batch crosses it.
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: 512})
	defer eng.Close()
	var triples []store.Triple
	for i := 0; i < 2000; i++ {
		triples = append(triples, testTriple(i))
	}
	if _, err := st.AddBatch(triples); err != nil {
		t.Fatal(err)
	}
	// The trigger is asynchronous; poll until the background goroutine has
	// run the checkpoint.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint after far exceeding CheckpointBytes")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncAlways, CheckpointBytes: -1})
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				if _, err := st.AddBatch([]store.Triple{testTriple(n), testTriple(n + 10000)}); err != nil {
					t.Errorf("worker %d: AddBatch: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := eng.Stats()
	if stats.Seq == 0 || stats.DurableSeq != stats.Seq {
		t.Fatalf("after concurrent committed batches: %+v", stats)
	}
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := store.New()
	eng2 := mustOpen(t, st2, Options{Dir: dir, Fsync: FsyncOff})
	defer eng2.Close()
	if snapshotString(t, st2) != want {
		t.Fatal("recovery after concurrent group-committed batches lost triples")
	}
}

// TestCloseDuringMutations races Close against live mutators (run it under
// -race): the journal detach is an atomic pointer swap, so closing mid-flight
// is not a data race. The durability contract it pins: an Add that completed
// with a nil error BEFORE Close began must survive recovery — its journal
// commit succeeded while the log was open, and Close's final drain fsyncs
// everything written. Mutations overlapping Close itself may instead get
// ErrJournal (the log closed under them) or, if they start after the
// detach, apply in memory only — both legal, so the test records a triple
// as must-survive only when the closing flag is still down AFTER its Add
// returns, proving the whole mutation preceded Close.
func TestCloseDuringMutations(t *testing.T) {
	dir := t.TempDir()
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: dir, Fsync: FsyncOff})

	var mu sync.Mutex
	committed := map[store.Triple]bool{}
	var closing atomic.Bool
	var wg, warm sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		warm.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				tr := store.Triple{
					Subject:   fmt.Sprintf("close-s%d", w),
					Predicate: "p",
					Object:    fmt.Sprintf("o%d", i),
				}
				added, err := st.Add(tr)
				if err == nil && added && !closing.Load() {
					mu.Lock()
					committed[tr] = true
					mu.Unlock()
				} // ErrJournal, or a nil-error Add racing Close, is legal
				if i == 49 {
					warm.Done() // enough pre-Close commits to make recovery meaningful
				}
			}
		}(w)
	}
	close(start)
	warm.Wait()
	closing.Store(true)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close during mutations: %v", err)
	}
	wg.Wait()

	st2 := store.New()
	eng2 := mustOpen(t, st2, Options{Dir: dir, Fsync: FsyncOff})
	defer eng2.Close()
	for tr := range committed {
		if !st2.Contains(tr) {
			t.Fatalf("recovery lost %v, whose Add completed before Close began", tr)
		}
	}
}

// TestWALChunksOversizedMutations shrinks the writer's payload cap and
// pushes one batch (and its dictionary growth) far past it: every frame on
// disk must stay under the cap, and recovery over the chunked log must
// reproduce the store byte-exactly. This is the write-side half of the
// maxFramePayload contract — a mutation of any size journals as records
// replay can always read back.
func TestWALChunksOversizedMutations(t *testing.T) {
	d := &memDisk{}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1}, d)
	const cap = 256
	eng.w.maxPayload = cap // before any mutation; the writer is idle

	var batch []store.Triple
	for i := 0; i < 400; i++ {
		batch = append(batch, testTriple(i))
	}
	if _, err := st.AddBatch(batch); err != nil {
		t.Fatalf("AddBatch over the shrunken cap: %v", err)
	}
	// A second mutation whose adds and removes each overflow a record, so one
	// chunk straddles the two sides; it retracts two of its own adds.
	tx := st.Begin()
	st.Write(func() bool {
		if _, err := tx.AddBatch([]store.Triple{testTriple(400), testTriple(401)}); err != nil {
			t.Fatal(err)
		}
		for i := 402; i < 430; i++ {
			if _, err := tx.Add(testTriple(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 360; i < 402; i++ {
			if !tx.Remove(testTriple(i)) {
				t.Fatalf("Remove(%v) found nothing", testTriple(i))
			}
		}
		return false
	})
	if err := tx.Commit(); err != nil {
		t.Fatalf("two-sided mutation over the shrunken cap: %v", err)
	}
	want := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	data := d.get(walFileName(1))
	frames, prevSeq := 0, uint64(0)
	straddling, removesSeen := 0, false
	for off := 0; off < len(data); {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			t.Fatalf("chunked log has a bad frame at offset %d", off)
		}
		if len(payload) > cap {
			t.Fatalf("frame at offset %d carries %d bytes, beyond the %d-byte cap the writer promised", off, len(payload), cap)
		}
		r, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("frame at offset %d: %v", off, err)
		}
		if r.seq != prevSeq+1 {
			t.Fatalf("chunking broke the seq chain: record at offset %d has seq %d, want %d", off, r.seq, prevSeq+1)
		}
		prevSeq = r.seq
		frames++
		off = next
		// Only the second mutation removes: from its first removal on, no
		// chunk may carry an add, or replay would re-assert a retracted
		// triple.
		adds, removes := r.sides()
		if removesSeen && len(adds) > 0 {
			t.Fatalf("record %d adds after an earlier chunk of the mutation removed", r.seq)
		}
		removesSeen = removesSeen || len(removes) > 0
		if len(adds) > 0 && len(removes) > 0 {
			straddling++
		}
	}
	if frames < 3 {
		t.Fatalf("a 400-triple batch under a %d-byte cap produced only %d frames; chunking did not happen", cap, frames)
	}
	if straddling != 1 {
		t.Fatalf("%d records carry both sides of the two-sided mutation, want exactly the one chunk where its adds end", straddling)
	}

	st2 := store.New()
	eng2 := mustOpenDisk(t, st2, Options{Fsync: FsyncOff}, d)
	defer eng2.Close()
	if got := snapshotString(t, st2); got != want {
		t.Fatal("recovery over the chunked log lost triples")
	}
}

// TestChunkedWriteSurvivesWholeOrNotAtAll cuts the log at every frame
// boundary of one chunked write — its dictionary growth, its leading parts,
// its last chunk — and recovers each prefix: the state must be the one
// before the write or the one after it, never the chunks that happened to
// reach the disk. A write counts once its last chunk, the record carrying its
// position, is there; a tail of parts without it is torn.
func TestChunkedWriteSurvivesWholeOrNotAtAll(t *testing.T) {
	d := &memDisk{}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1}, d)
	eng.w.maxPayload = 256 // before any mutation; the writer is idle
	if _, err := st.AddBatch([]store.Triple{testTriple(0), testTriple(1)}); err != nil {
		t.Fatal(err)
	}
	before, start := snapshotString(t, st), int(eng.Stats().WALBytes)
	var batch []store.Triple
	for i := 2; i < 120; i++ {
		batch = append(batch, testTriple(i))
	}
	tx := st.Begin()
	st.Write(func() bool {
		if _, err := tx.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		tx.Remove(testTriple(0))
		return true
	})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := snapshotString(t, st)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	data := d.get(walFileName(1))
	chunks := 0
	for off := start; ; {
		want := before
		if off == len(data) {
			want = after
		}
		if got := recoverPrefix(t, data[:off]); got != want {
			t.Fatalf("the log cut at byte %d of %d (%d chunks in) recovers neither the state before the chunked write nor the one after it", off, len(data), chunks)
		}
		if off == len(data) {
			break
		}
		payload, next, ok := nextFrame(data, off)
		if !ok {
			t.Fatalf("bad frame at %d", off)
		}
		if payload[0] != recDict {
			chunks++
		}
		off = next
	}
	if chunks < 3 {
		t.Fatalf("the write was chunked into %d records; the cap did not split it", chunks)
	}
}

// TestOversizedDictNameKillsLog covers the one mutation chunking cannot
// split: a single dictionary name bigger than a whole frame. The log must
// go sticky-dead — the commit fails with ErrJournal and Err reports it —
// rather than write a frame recovery would reject (or silently drop a
// record and desynchronize id assignment).
func TestOversizedDictNameKillsLog(t *testing.T) {
	st := store.New()
	eng := mustOpen(t, st, Options{Dir: t.TempDir(), Fsync: FsyncOff})
	defer eng.Close()
	eng.w.maxPayload = 64

	_, err := st.Add(store.Triple{Subject: strings.Repeat("x", 100), Predicate: "p", Object: "o"})
	if err == nil {
		t.Fatal("Add with an un-journalable name was acknowledged durable")
	}
	if !errors.Is(err, store.ErrJournal) {
		t.Fatalf("Add error %v does not wrap ErrJournal", err)
	}
	if eng.Err() == nil {
		t.Fatal("Err() is nil after the log went dead")
	}
	// Sticky: a later, perfectly journalable mutation must fail too.
	if _, err := st.Add(testTriple(1)); err == nil {
		t.Fatal("a later Add committed on a dead log")
	}
}

// TestOverCapSealedFrameIsAnError crafts a log whose (only, therefore last)
// file opens with a frame claiming a payload beyond maxFramePayload.
// Pre-fix recovery treated it as a torn tail and TRUNCATED — silently
// discarding everything in the file; it must instead refuse with a
// corruption error, because the writer chunks every record below the cap
// and can never have produced such a frame.
func TestOverCapSealedFrameIsAnError(t *testing.T) {
	d := newMemDisk()
	frame := make([]byte, 64)
	binary.LittleEndian.PutUint32(frame, maxFramePayload+1)
	d.put(walFileName(1), frame)
	_, err := recoverDir(store.New(), d)
	if err == nil {
		t.Fatal("recovery accepted (and would have truncated) an over-cap frame")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("error %q does not name the payload cap", err)
	}
	if data := d.get(walFileName(1)); len(data) != len(frame) {
		t.Fatalf("recovery truncated the file it refused (now %d bytes, want %d)", len(data), len(frame))
	}
}

// TestLoadSegmentRejectsOverflowedTripleCount rewrites a valid segment's
// last frame, checksum and all, so that its totals disagree with its frames:
// more names, adds or tombstones than the frames hold, fewer, and counts near
// 2⁶⁴ — one whose 12× product wraps uint64 back to the true byte length,
// which a multiplication-based check would pass through to a make() that
// panics. Loaded as a snapshot, each is refused cleanly, without a panic and
// without allocating past the file's bytes.
func TestLoadSegmentRejectsOverflowedTripleCount(t *testing.T) {
	d := newMemDisk()
	seg := []segmentData{patchOf(1, 7, 0, []string{"s", "p", "o"}, []store.IDTriple{{S: 0, P: 1, O: 2}, {S: 2, P: 1, O: 0}}, nil)}
	stampChain(seg)
	if _, err := writeSegment(d, foldOf(seg[0]), nil); err != nil {
		t.Fatal(err)
	}
	data := d.get(segmentName(1, 7))
	// loading allocates what a snapshot load allocates for data, and the
	// load's error.
	loading := func(data []byte) (uint64, error) {
		st := store.New()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := LoadSnapshot(st, data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	intact, err := loading(data)
	if err != nil {
		t.Fatalf("the segment as written: %v", err)
	}
	const namesAt, addsAt, removesAt = 44, 48, 56 // in the last frame's payload
	for _, tc := range []struct {
		name  string
		at    int
		claim uint64
		want  string // in the refusal; a triple frame read as names fails as it may
	}{
		{"more names", namesAt, 4, ""},
		{"fewer names", namesAt, 2, "its frames hold more than the 2 names"},
		{"more adds", addsAt, 3, "its frames hold fewer than the 3 names, 3 adds"},
		{"fewer adds", addsAt, 1, "its frames hold more than the 3 names, 1 adds"},
		{"a tombstone at seq 1", removesAt, 1, "starts at seq 1 but claims 1 tombstones"},
		{"adds wrapping 12×", addsAt, 2 + 1<<62, "claims 4611686018427387906 add triples"},
		{"adds near 2^64", addsAt, 1<<64 - 1, "claims 18446744073709551615 add triples"},
		{"tombstones near 2^64", removesAt, 1<<64 - 1, "claims 18446744073709551615 remove triples"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(data)
			frame := bad[len(bad)-tailSize:]
			payload := frame[frameHeader : frameHeader+lastSize]
			if tc.at == namesAt {
				binary.LittleEndian.PutUint32(payload[tc.at:], uint32(tc.claim))
			} else {
				binary.LittleEndian.PutUint64(payload[tc.at:], tc.claim)
			}
			binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
			allocated, err := loading(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("a segment whose last frame disagrees with its frames: %v, want a refusal saying %q", err, tc.want)
			}
			t.Logf("refused, allocating %d B: %v", allocated, err)
			if allocated > intact+uint64(2*len(bad)) {
				t.Errorf("refusing the %d-byte segment allocated %d B, past the %d B loading it intact does and twice its bytes", len(bad), allocated, intact)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncOff} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted nonsense")
	}
}

// buildLog runs a deterministic script of transactions — add batches, single
// and multiple removes, two-sided ones, one that adds and removes the same
// triple — through an FsyncOff engine and returns the resulting single wal
// file's bytes, together with the log offset and canonical snapshot recorded
// after every transaction (index 0 is the empty store at offset 0).
func buildLog(t testing.TB) (data []byte, offsets []int64, snaps []string) {
	t.Helper()
	d := &memDisk{}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1}, d)
	record := func() {
		offsets = append(offsets, eng.Stats().WALBytes)
		snaps = append(snaps, snapshotString(t, st))
	}
	record()
	batch := func(i int) []store.Triple {
		var ts []store.Triple
		for j := 0; j < 5; j++ {
			ts = append(ts, testTriple(i*5+j))
		}
		return ts
	}
	for i := 0; i < 10; i++ {
		var adds, removes []store.Triple
		switch i {
		case 3, 7:
			removes = []store.Triple{testTriple(i - 2)}
		case 4:
			adds, removes = batch(i), []store.Triple{testTriple(0)}
		case 6:
			removes = []store.Triple{testTriple(10), testTriple(11), testTriple(21)}
		case 8:
			adds, removes = batch(i)[:2], []store.Triple{testTriple(i * 5), testTriple(12)}
		default:
			adds = batch(i)
		}
		tx := st.Begin()
		st.Write(func() bool {
			if _, err := tx.AddBatch(adds); err != nil {
				t.Fatalf("script step %d: %v", i, err)
			}
			for _, r := range removes {
				if !tx.Remove(r) {
					t.Fatalf("script step %d: Remove(%v) found nothing", i, r)
				}
			}
			return false
		})
		if err := tx.Commit(); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
		record()
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	data = d.get(walFileName(1))
	if int64(len(data)) != offsets[len(offsets)-1] {
		t.Fatalf("log file is %d bytes but the last commit offset is %d", len(data), offsets[len(offsets)-1])
	}
	return data, offsets, snaps
}

// recoverPrefix lays data down as the only wal file of a directory,
// recovers a fresh store from it, and returns the recovered snapshot.
func recoverPrefix(t *testing.T, data []byte) string {
	t.Helper()
	snap, err := recoverPrefixErr(t, data)
	if err != nil {
		t.Fatalf("recoverDir: %v", err)
	}
	return snap
}

// recoverPrefixErr is recoverPrefix for inputs recovery may legitimately
// refuse: it hands back recoverDir's error instead of failing the test.
func recoverPrefixErr(t *testing.T, data []byte) (string, error) {
	t.Helper()
	d := newMemDisk()
	d.put(walFileName(1), data)
	st := store.New()
	rec, err := recoverDir(st, d)
	if err != nil {
		return "", err
	}
	rec.file.Close()
	return snapshotString(t, st), nil
}

// TestPrefixReplayProperty cuts the recorded log at EVERY byte offset and
// checks the property the durability contract promises: replaying any
// prefix yields exactly the store state at the last commit boundary the
// prefix wholly contains — a whole number of transactions, never the adds of
// one without its removes, never a lost earlier record.
func TestPrefixReplayProperty(t *testing.T) {
	data, offsets, snaps := buildLog(t)
	// One record per transaction, whatever its shape: that is what makes a
	// torn tail unable to keep half of one.
	mutations := 0
	for off := 0; off < len(data); {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			t.Fatalf("pristine log has a bad frame at %d", off)
		}
		if r, err := decodeRecord(payload); err != nil {
			t.Fatal(err)
		} else if r.typ == recWrite {
			mutations++
		}
		off = next
	}
	if mutations != len(offsets)-1 {
		t.Fatalf("%d transactions were journaled as %d mutation records", len(offsets)-1, mutations)
	}
	for cut := 0; cut <= len(data); cut++ {
		j := 0
		for k, off := range offsets {
			if off <= int64(cut) {
				j = k
			}
		}
		got := recoverPrefix(t, data[:cut])
		if got != snaps[j] {
			t.Fatalf("cut at byte %d: recovered state is not the boundary-%d state (offset %d)", cut, j, offsets[j])
		}
	}
}

// TestBitFlipRecovery flips single bits across the whole log and checks the
// CRC framing turns the flip into a clean torn-tail truncation at the
// damaged frame — recovery succeeds and lands exactly on the last commit
// boundary before it — with one deliberate exception: a flip that drives a
// length field beyond maxFramePayload is refused as corruption, because the
// writer chunks every record below the cap and a torn write never scrambles
// the bytes it did write, so an over-cap claim proves damage; truncating
// there would silently discard every record behind the damaged header.
func TestBitFlipRecovery(t *testing.T) {
	data, offsets, snaps := buildLog(t)
	var frameStarts []int
	for off := 0; off < len(data); {
		_, next, ok := nextFrame(data, off)
		if !ok {
			t.Fatalf("pristine log has a bad frame at %d", off)
		}
		frameStarts = append(frameStarts, off)
		off = next
	}
	for p := 0; p < len(data); p++ {
		for _, bit := range []uint{0, 7} {
			start := 0
			for _, fs := range frameStarts {
				if fs <= p {
					start = fs
				}
			}
			j := 0
			for k, off := range offsets {
				if off <= int64(start) {
					j = k
				}
			}
			mut := append([]byte(nil), data...)
			mut[p] ^= 1 << bit
			if p-start < 4 && binary.LittleEndian.Uint32(mut[start:]) > maxFramePayload {
				if _, err := recoverPrefixErr(t, mut); err == nil {
					t.Fatalf("flip byte %d bit %d: over-cap length claim was recovered silently, want a corruption error", p, bit)
				}
				continue
			}
			got := recoverPrefix(t, mut)
			if got != snaps[j] {
				t.Fatalf("flip byte %d bit %d: recovered state is not the boundary-%d state (frame at %d)", p, bit, j, start)
			}
		}
	}
}

// TestZeroFilledTailIsTorn lays down the tail a crash leaves when a write's
// size reached the disk without its data: the log cut at a commit boundary,
// then zeros. Eight zero bytes frame an empty payload whose CRC-32C is 0, a
// frame no writer produces, so the zeros are a torn tail like any other and
// recovery lands on the boundary. The same bytes in a sealed file stay
// corruption.
func TestZeroFilledTailIsTorn(t *testing.T) {
	data, offsets, snaps := buildLog(t)
	for j, off := range offsets {
		frames := 0 // the records before the boundary, hence its last seq
		for next := 0; next < int(off); frames++ {
			_, next, _ = nextFrame(data, next)
		}
		for _, zeros := range []int{8, 9, 64, 512, 4096} {
			tail := append(slices.Clone(data[:off]), make([]byte, zeros)...)
			if got, err := recoverPrefixErr(t, tail); err != nil || got != snaps[j] {
				t.Fatalf("boundary %d and %d zero bytes: %v, want the boundary's state", j, zeros, err)
			}
			if j == 0 {
				continue // no record to seal
			}
			d := newMemDisk()
			d.put(walFileName(1), tail)
			d.put(walFileName(uint64(frames)+1), nil)
			if _, err := recoverDir(store.New(), d); err == nil || !strings.Contains(err.Error(), "sealed") {
				t.Fatalf("boundary %d and %d zero bytes in a sealed file: %v, want a corruption error", j, zeros, err)
			}
		}
	}
}

func TestCorruptSealedFileIsAnError(t *testing.T) {
	data, _, _ := buildLog(t)
	d := newMemDisk()
	// Pretend the log rotated: the corrupted bytes become a SEALED file
	// (wal-1) because a later file exists. Its seq chain ends early, so the
	// follow-on file no longer chains — recovery must refuse, not truncate.
	tail := append([]byte(nil), data...)
	tail[len(tail)/2] ^= 0x40
	d.put(walFileName(1), tail)
	d.put(walFileName(1_000_000), nil)
	if _, err := recoverDir(store.New(), d); err == nil {
		t.Fatal("recoverDir tolerated a bad frame in a sealed log file")
	}
}

func TestLogGapIsAnError(t *testing.T) {
	data, _, _ := buildLog(t)
	d := newMemDisk()
	d.put(walFileName(1), data)
	// A tail file whose name skips ahead of the chain.
	d.put(walFileName(1_000_000), nil)
	if _, err := recoverDir(store.New(), d); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("recoverDir over a gapped log: %v, want a gap error", err)
	}
}

func TestForeignFileIsAnError(t *testing.T) {
	d := newMemDisk()
	d.put("notes.txt", []byte("hi"))
	if _, err := recoverDir(store.New(), d); err == nil {
		t.Fatal("recoverDir accepted a directory holding foreign files")
	}
}

func TestLeftoverTmpIsDeleted(t *testing.T) {
	d := newMemDisk()
	tmp := segmentName(1, 9) + ".tmp"
	d.put(tmp, []byte("half a checkpoint"))
	st := store.New()
	rec, err := recoverDir(st, d)
	if err != nil {
		t.Fatalf("recoverDir: %v", err)
	}
	rec.file.Close()
	if slices.Contains(d.names(), tmp) {
		t.Fatal("recovery kept the unpublished checkpoint temp file")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	d := newMemDisk()
	seg := patchOf(8, 42, 2, []string{"s0", "p0", "o0", "o1"},
		[]store.IDTriple{{S: 2, P: 3, O: 4}, {S: 2, P: 3, O: 5}}, []store.IDTriple{{S: 0, P: 1, O: 2}})
	meta, err := writeSegment(d, foldOf(seg), nil)
	if err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	name := segmentName(8, 42)
	data := d.get(name)
	got, names, adds, removes, err := decodeSegment(name, data)
	if err != nil {
		t.Fatalf("decodeSegment: %v", err)
	}
	if got.start != 8 || got.end != 42 || got.dictFirst != 2 {
		t.Fatalf("window = [%d, %d] dictFirst %d, want [8, 42] dictFirst 2", got.start, got.end, got.dictFirst)
	}
	if got.size != meta.bytes {
		t.Fatalf("loaded size %d, written size %d", got.size, meta.bytes)
	}
	if len(names) != 4 || names[3] != "o1" {
		t.Fatalf("dict = %v", names)
	}
	if len(adds) != 2 || adds[1] != (store.IDTriple{S: 2, P: 3, O: 5}) {
		t.Fatalf("adds = %v", adds)
	}
	if len(removes) != 1 || removes[0] != (store.IDTriple{S: 0, P: 1, O: 2}) {
		t.Fatalf("removes = %v", removes)
	}

	for _, corrupt := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
	} {
		bad := corrupt.mut(append([]byte(nil), data...))
		if _, _, _, _, err := decodeSegment(name, bad); err == nil {
			t.Fatalf("decodeSegment accepted a %s segment", corrupt.name)
		}
	}
}

// TestSegmentStreamIsHeldToOrderAndBound rewrites the triple frame of a
// valid segment, checksum and all, so that only the cursor's own checks can
// find the fault: two adds out of order, a triple both added and
// tombstoned, and an id past the names of the chain through the segment.
// Each is refused in the words a segment's load has always used.
func TestSegmentStreamIsHeldToOrderAndBound(t *testing.T) {
	d := newMemDisk()
	seg := patchOf(8, 42, 2, []string{"s0", "p0", "o0", "o1"},
		[]store.IDTriple{{S: 2, P: 3, O: 4}, {S: 2, P: 3, O: 5}}, []store.IDTriple{{S: 0, P: 1, O: 2}})
	if _, err := writeSegment(d, foldOf(seg), nil); err != nil {
		t.Fatal(err)
	}
	name := segmentName(8, 42)
	data := d.get(name)
	_, next, ok := nextFrame(data, len(segMagic)) // the name frame; the triple frame follows
	if !ok {
		t.Fatal("no name frame after the magic")
	}
	for _, tc := range []struct {
		name string
		mut  func(run tripleRun)
		want string
	}{
		{"adds out of order", func(run tripleRun) {
			a, b := run.at(0), run.at(1)
			copy(run, appendTriple(appendTriple(nil, b), a))
		}, "add run not strictly sorted at triple 1"},
		{"a triple added and tombstoned", func(run tripleRun) {
			copy(run[24:], appendTriple(nil, run.at(0)))
		}, "add run not strictly sorted at triple 0"},
		{"an id past the bound", func(run tripleRun) {
			copy(run[12:], appendTriple(nil, store.IDTriple{S: 2, P: 3, O: 6}))
		}, "add triple 1 references id beyond the 6-id dictionary prefix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := slices.Clone(data)
			payload := bad[next+frameHeader : len(bad)-tailSize]
			tc.mut(tripleRun(payload[8:]))
			binary.LittleEndian.PutUint32(bad[next+4:], crc32.Checksum(payload, castagnoli))
			if _, _, _, _, err := decodeSegment(name, bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v, want an error saying %q", err, tc.want)
			}
		})
	}
}
