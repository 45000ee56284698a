package durable

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestFollowerAppliesChunkedWritesWhole is the replica's half of the chunked
// write's contract: a log body cut at every frame boundary of one chunked
// write — after its dictionary growth, after each of its leading parts —
// hands the follower nothing of the write, a cut among the parts reads as
// torn, and only the body holding its last chunk applies it, whole, at the
// position the primary recorded.
func TestFollowerAppliesChunkedWritesWhole(t *testing.T) {
	d := &memDisk{}
	st := store.New()
	eng := mustOpenDisk(t, st, Options{Fsync: FsyncOff, CheckpointBytes: -1}, d)
	defer eng.Close()
	eng.w.maxPayload = 256 // before any mutation; the writer is idle
	if _, err := st.AddBatch([]store.Triple{testTriple(0), testTriple(1)}); err != nil {
		t.Fatal(err)
	}
	snap, at0, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
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
	body, latest, err := eng.ReadLog(at0, 8)
	if err != nil || latest != st.Position() {
		t.Fatalf("ReadLog from the snapshot: latest %v, %v; the store is at %v", latest, err, st.Position())
	}
	parts := 0
	for off := 0; ; {
		f, err := LoadSnapshot(store.New(), snap)
		if err != nil {
			t.Fatal(err)
		}
		var adds, removes int
		n, err := f.Read(body[:off], func(a, r []store.Triple, at store.Position) error {
			adds, removes = len(a), len(r)
			return nil
		})
		switch {
		case off == len(body):
			if n != 1 || err != nil || adds != len(batch) || removes != 1 || f.Position() != latest {
				t.Fatalf("the whole body: %d writes (+%d −%d), %v, follower at %v", n, adds, removes, err, f.Position())
			}
		case n != 0 || f.Position() != at0:
			t.Fatalf("cut at byte %d of %d: %d writes applied", off, len(body), n)
		case (parts > 0) != errors.Is(err, ErrTorn) || (parts == 0 && err != nil):
			t.Fatalf("cut at byte %d of %d, %d parts in: %v", off, len(body), parts, err)
		}
		if off == len(body) {
			break
		}
		payload, next, ok := nextFrame(body, off)
		if !ok {
			t.Fatalf("bad frame at %d", off)
		}
		if payload[0] == recPart {
			parts++
		}
		off = next
	}
	if parts < 2 {
		t.Fatalf("the write was chunked into %d parts and its last chunk; the cap did not split it", parts)
	}
}

// TestOlderBuildsDirectoryIsRefused: a data directory written before
// records and segments carried positions — a log holding the position-less
// mutation record, a segment in the unstamped format — does not boot, and
// the error says an older build wrote it.
func TestOlderBuildsDirectoryIsRefused(t *testing.T) {
	old := newMemDisk()
	var data []byte
	data = appendFrame(data, encodeDict(nil, 1, 0, []string{"s", "p", "o"}))
	data = appendFrame(data, []byte{4, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	old.put(walFileName(1), data)
	if _, err := recoverDir(store.New(), old); err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("a log with a position-less mutation record: %v, want an error naming an older build", err)
	}

	segs, _ := fuzzChainSegments()
	d := newMemDisk()
	if _, err := writeSegment(d, foldOf(segs[0]), nil); err != nil {
		t.Fatal(err)
	}
	name := segmentName(segs[0].start, segs[0].end)
	seg := d.get(name)
	copy(seg, "ONTOSEG2")
	d.put(name, seg)
	if _, err := recoverDir(store.New(), d); err == nil || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("an unstamped segment: %v, want an error naming an older build", err)
	}
}
