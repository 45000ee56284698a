package durable

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the write-ahead log writer: an append-only, group-committing
// front for the record format in record.go. Appenders (the store's mutation
// goroutines, calling through the Journal hook) stage encoded frames in an
// in-memory buffer under a mutex; commit drains the buffer to the file and —
// under the always policy — fsyncs, with one goroutine doing the I/O while
// every other committer waits on a condition variable. That is the group
// commit: when ten handlers commit concurrently, the first one into the
// syncer role writes and fsyncs everyone's frames, and the other nine return
// without touching the disk.
//
// The single invariant that keeps the concurrency sound: ALL file I/O —
// write, fsync, close, rotate — happens with the syncing flag held, and the
// flag is only taken and released under mu. Appenders never touch the file;
// the flag holder drops mu around each syscall, so staging new frames never
// blocks on the disk.
//
// Errors are sticky: the first I/O failure is kept and returned by every
// later commit. A log that failed once cannot promise anything about its
// tail, so there is no retry path — the operator restarts and recovery
// truncates at the torn frame.

// walWriter is the append/commit side of the log. One per Engine.
type walWriter struct {
	disk   disk
	policy FsyncPolicy
	// maxPayload caps one record's payload; appenders chunk mutations that
	// would exceed it into consecutive records, so every frame stays below
	// the cap the reader enforces. Always maxFramePayload outside tests.
	maxPayload int

	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever syncing is released or seqs advance
	f    file       // current wal file; I/O only with syncing held
	// syncing marks the one goroutine allowed to touch f. Taken and released
	// only under mu; the holder drops mu around syscalls.
	syncing bool
	err     error // sticky: first I/O failure, returned by every later commit

	buf     []byte // staged frames not yet written to f
	spare   []byte // recycled staging buffer (swapped with buf at each drain)
	scratch []byte // payload encode scratch, reused under mu

	seq        uint64 // seq of the last staged record
	writtenSeq uint64 // every record ≤ this has reached the OS
	durableSeq uint64 // every record ≤ this has been fsynced

	// file is the first seq of the current wal file and fileOff its size
	// with everything staged: where the next frame will end up.
	file    uint64
	fileOff int64
	// writes is the position of every write in the live log — the files the
	// chain does not cover — in log order: what a replica's position is
	// looked up in (serve.go). A checkpoint drops the ones it folds.
	writes []logPos
	// wake, when non-nil, is closed by the next drain that advances the
	// seqs, waking whoever waits for a commit (commitWakeLocked).
	wake chan struct{}

	totalBytes int64 // bytes appended since the last rotation (checkpoint trigger)
	appended   int64 // bytes appended over the writer's lifetime (write-amplification denominator)

	lastFsync time.Time
	fsyncs    int64

	// pendingFrames counts frames staged since the last drain — the size of
	// the next group commit, observed into mCommitFrames when it drains.
	pendingFrames int64

	// Metric handles, nil until the engine registers them (observations are
	// nil-safe): fsync syscall latency, group-commit batch sizes, and the
	// cumulative frame/byte append counters.
	mFsyncSeconds *obs.Histogram
	mCommitFrames *obs.Histogram
	mFrames       *obs.Counter
	mBytes        *obs.Counter
}

// walFileName names the log file whose first record is seq. Fixed-width
// decimal so lexical directory order is log order.
func walFileName(first uint64) string {
	return fmt.Sprintf("wal-%016d.wal", first)
}

// createWALFile creates (or truncates) the log file for records starting at
// first and syncs the directory so the entry itself survives a crash.
func createWALFile(d disk, first uint64) (file, error) {
	f, err := d.create(walFileName(first))
	if err != nil {
		return nil, fmt.Errorf("durable: creating log file: %w", err)
	}
	if err := d.syncDir("."); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: fsyncing directory: %w", err)
	}
	return f, nil
}

// newWALWriter wraps an already-open log file positioned at its end: rec's
// last file, of rec.tail.size bytes. rec.lastSeq is the seq of the last
// record recovery accepted (everything ≤ lastSeq is on disk and fsync-clean
// after recovery's truncate), and rec.tail.writes the live log's writes.
func newWALWriter(d disk, policy FsyncPolicy, rec recovered) *walWriter {
	w := &walWriter{
		disk:       d,
		policy:     policy,
		maxPayload: maxFramePayload,
		f:          rec.file,
		seq:        rec.lastSeq,
		writtenSeq: rec.lastSeq,
		durableSeq: rec.lastSeq,
		file:       rec.wals[len(rec.wals)-1],
		fileOff:    rec.tail.size,
		writes:     rec.tail.writes,
		lastFsync:  time.Now(),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// stageLocked frames the payload in scratch and stages it. Callers hold mu
// and have already advanced w.seq.
func (w *walWriter) stageLocked() {
	w.buf = appendFrame(w.buf, w.scratch)
	w.fileOff += int64(frameHeader + len(w.scratch))
	w.totalBytes += int64(frameHeader + len(w.scratch))
	w.appended += int64(frameHeader + len(w.scratch))
	w.pendingFrames++
	w.mFrames.Inc()
	w.mBytes.Add(int64(frameHeader + len(w.scratch)))
}

// appendDict stages dictionary-growth records. Called under the store's
// symbol-table lock (see store.Journal), which is what orders it ahead of
// every triple record using the new ids; it must therefore stay
// syscall-free, and it does — staging only appends to the in-memory buffer.
//
// Growth too large for one frame is chunked into consecutive records, each
// under the payload cap; the fold concatenates the chunks back into one run
// of ids, so the split is invisible to recovery. A single name that
// cannot fit even alone kills the log (sticky error): dropping it would
// desynchronize the log's id assignment from the store's, so every later
// commit must report the loss instead of acknowledging it.
func (w *walWriter) appendDict(first store.SymbolID, names []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(names) > 0 {
		size := dictPayloadHeader + dictNameSize(names[0])
		if size > w.maxPayload {
			w.seq++
			if w.err == nil {
				w.err = fmt.Errorf("durable: dictionary name of %d bytes exceeds the %d-byte record cap; the log cannot represent this mutation", len(names[0]), w.maxPayload)
			}
			first++
			names = names[1:]
			continue
		}
		n := 1
		for n < len(names) {
			c := dictNameSize(names[n])
			if size+c > w.maxPayload {
				break
			}
			size += c
			n++
		}
		w.seq++
		if w.err == nil { // a dead log stays dead; keep seq accounting only
			w.scratch = encodeDict(w.scratch[:0], w.seq, first, names[:n])
			w.stageLocked()
		}
		first += store.SymbolID(n)
		names = names[n:]
	}
}

// appendMutation stages one write section as one recWrite stamped with the
// position the section left, and files the position among the live log's
// writes. A mutation too large for one frame is chunked into consecutive
// records, adds before removes throughout: recParts and a closing recWrite
// carrying the position — each chunk folds as ordinary set operations, and
// recovery and replicas count the write only once its last chunk is there.
// All chunks are staged under one hold of mu, so no rotation splits them.
func (w *walWriter) appendMutation(adds, removes []store.IDTriple, at store.Position) {
	room := (w.maxPayload - mutationPayloadHeader) / 12 // triples per record
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(adds)+len(removes) > 0 {
		a := adds[:min(len(adds), room)]
		r := removes[:min(len(removes), room-len(a))]
		adds, removes = adds[len(a):], removes[len(r):]
		w.seq++
		if w.err != nil {
			continue // the log is dead; don't grow the buffer for records that can never commit
		}
		last := len(adds)+len(removes) == 0
		w.scratch = encodeMutation(w.scratch[:0], w.seq, a, r, at, last)
		w.stageLocked()
		if last {
			w.writes = append(w.writes, logPos{at: at, seq: w.seq, file: w.file, end: w.fileOff})
		}
	}
}

// committedLocked is the seq every record through which a replica may be
// served: fsynced under FsyncAlways, written under the other policies.
// Callers hold mu.
func (w *walWriter) committedLocked() uint64 {
	if w.policy == FsyncAlways {
		return w.durableSeq
	}
	return w.writtenSeq
}

// commitWakeLocked returns a channel the next drain that advances the seqs
// closes. Callers hold mu.
func (w *walWriter) commitWakeLocked() <-chan struct{} {
	if w.wake == nil {
		w.wake = make(chan struct{})
	}
	return w.wake
}

// dropWrites forgets the live log's writes through seq end, which a
// checkpoint has folded into the chain.
func (w *walWriter) dropWrites(end uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := 0
	for k < len(w.writes) && w.writes[k].seq <= end {
		k++
	}
	w.writes = append(w.writes[:0], w.writes[k:]...)
}

// commit makes every record through target durable to the degree the policy
// promises: written and fsynced for FsyncAlways, written to the OS for
// FsyncBatch (the background ticker supplies the fsync) and FsyncOff.
func (w *walWriter) commit(target uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitLocked(target, w.policy == FsyncAlways)
}

// waitLocked blocks until every record ≤ target has reached the OS — and,
// with sync, is fsynced — or the log has failed, and returns the log's error.
// It is the group-commit loop: the first waiter to find the syncer role free
// takes it, drains everything staged (its own frames and everyone else's),
// and wakes the rest; waiters whose target was covered return without any
// I/O of their own. Callers hold mu.
func (w *walWriter) waitLocked(target uint64, sync bool) error {
	reached := &w.writtenSeq
	if sync {
		reached = &w.durableSeq
	}
	for *reached < target && w.err == nil {
		if w.syncing {
			w.cond.Wait() // another goroutine is on the disk; it advances seqs for us too
			continue
		}
		w.drainLocked(sync)
	}
	return w.err
}

// drainLocked takes the syncer role, writes the staged buffer (and fsyncs,
// when asked) with mu released, then publishes the advanced seqs. Callers
// hold mu with syncing free; on return mu is held again. The buffer swap
// means appenders staged into spare while we were on the disk, and the next
// drain picks those up.
func (w *walWriter) drainLocked(sync bool) {
	buf := w.buf
	w.buf = w.spare[:0]
	w.spare = nil
	covered := w.seq
	frames := w.pendingFrames
	w.pendingFrames = 0
	f := w.f
	w.syncing = true
	w.mu.Unlock()

	if frames > 0 {
		w.mCommitFrames.Observe(float64(frames))
	}
	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	if err == nil && sync {
		fsStart := time.Now()
		err = f.Sync()
		w.mFsyncSeconds.Since(fsStart)
	}
	now := time.Now()

	w.mu.Lock() //ontolint:ignore lockcheck reacquisition after the unlocked I/O window; drainLocked's caller entered with the lock held and releases it, so this Lock is deliberately unbalanced here
	w.syncing = false
	w.spare = buf[:0]
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("durable: log write: %w", err)
		}
	} else {
		w.writtenSeq = covered
		if sync {
			w.durableSeq = covered
			w.lastFsync = now
			w.fsyncs++
		}
		if w.wake != nil {
			close(w.wake)
			w.wake = nil
		}
	}
	w.cond.Broadcast()
}

// rotate finishes the current file — final write, fsync, close — and opens
// the successor wal file. It returns the seq the finished file covers
// through: the checkpoint that triggered the rotation will fold the window
// ending there and name its segment after it. The final write and fsync are
// an ordinary drain; the syncer role is then re-taken under the same hold of
// mu, so no committer can drain into the closing file. Frames staged by
// appenders while the rotation is on the disk carry seqs beyond the returned
// one and land in the new file, where they belong.
func (w *walWriter) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if w.err == nil {
		w.drainLocked(true)
	}
	if w.err != nil {
		return 0, w.err
	}
	covered := w.durableSeq
	f := w.f
	w.syncing = true
	w.mu.Unlock()

	err := f.Close()
	var next file
	if err == nil {
		next, err = createWALFile(w.disk, covered+1)
	}

	w.mu.Lock()
	w.syncing = false
	defer w.cond.Broadcast()
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("durable: log rotation: %w", err)
		}
		return 0, w.err
	}
	w.f = next
	// The frames staged while the rotation was on the disk are still in buf
	// and go to the new file: refile the writes among them there.
	sealed := w.fileOff - int64(len(w.buf))
	for i := len(w.writes) - 1; i >= 0 && w.writes[i].file == w.file && w.writes[i].end > sealed; i-- {
		w.writes[i].file, w.writes[i].end = covered+1, w.writes[i].end-sealed
	}
	w.file, w.fileOff = covered+1, w.fileOff-sealed
	w.totalBytes = 0
	return covered, nil
}

// close drains and fsyncs whatever is staged (whatever the policy — a clean
// shutdown should never lose acknowledged work) and closes the file.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.waitLocked(w.seq, true)
	for w.syncing {
		w.cond.Wait()
	}
	w.syncing = true
	f := w.f
	w.mu.Unlock()
	cerr := f.Close()
	w.mu.Lock()
	w.syncing = false
	if w.err == nil && cerr != nil {
		w.err = fmt.Errorf("durable: closing log: %w", cerr)
	}
	w.cond.Broadcast()
	if err == nil {
		err = w.err
	}
	return err
}

// stickyErr returns the writer's sticky error — nil while every write and
// fsync has succeeded.
func (w *walWriter) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// currentSeq returns the seq of the last staged record.
func (w *walWriter) currentSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// bytesSinceRotation returns how much log the current checkpoint window has
// accumulated — the auto-checkpoint trigger reads it after every commit.
func (w *walWriter) bytesSinceRotation() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.totalBytes
}

// snapshotStats copies the writer's counters into st under the lock.
func (w *walWriter) snapshotStats(st *Stats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st.Seq = w.seq
	st.DurableSeq = w.durableSeq
	st.WALBytes = w.totalBytes
	st.WALAppendedBytes = w.appended
	st.LastFsyncAgoMS = time.Since(w.lastFsync).Milliseconds()
	st.Fsyncs = w.fsyncs
	if w.err != nil {
		st.Err = w.err.Error()
	}
}
