// Package durable is the store's crash-safe persistence engine: a write-ahead
// log in front of the in-memory triple store, compacted into generational
// (tiered) delta segment files.
//
// The engine journals every acknowledged mutation — at dictionary-id level,
// through the store's Journal hook — before reporting it committed, batching
// concurrent committers behind one fsync (group commit). A checkpoint retires
// one window of the log by folding it into a young delta segment (cost
// proportional to what changed, not to the corpus), and a size-ratio-triggered
// background merge folds young segments into older generations, applying
// tombstoned removes, so the chain stays short. Recovery is the same two
// folds with a different sink: it composes the segment chain and the log tail
// beyond it into one patch against the empty store and loads that through
// the store's RestoreSorted bulk path, once — startup cost is sequential file
// I/O and one index build, never per-record index mutation.
//
// Typical use:
//
//	st := store.New()
//	eng, err := durable.Open(st, durable.Options{Dir: dataDir})
//	if err != nil { ... }
//	defer eng.Close()
//	// st now persists: every Add/AddBatch/Remove is journaled, and the next
//	// Open over the same directory rebuilds exactly the committed state.
//
// The store handed to Open must be empty — the directory is the single
// source of truth, and recovery rebuilds the store from it. Load corpora
// AFTER opening, through the store's ordinary mutation methods, so the loads
// are journaled like any other write.
//
// Every write record carries the store.Position its write section left —
// the generation and the store's digest — and every segment the position it
// covers through, so recovery checks what it loaded against the history, and
// the log doubles as the replication feed: Engine.ReadLog serves a replica
// the committed records after its position as they lie on disk,
// Engine.Snapshot the whole chain folded into one segment, and Follower
// reads both on the replica's side with recovery's own checks.
package durable

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// FsyncPolicy says when the log is fsynced relative to commit
// acknowledgement — the durability/latency trade every WAL exposes.
type FsyncPolicy int

// Policies, from safest to fastest.
const (
	// FsyncAlways fsyncs before every commit acknowledgement (group
	// committed: concurrent committers share one fsync). An acknowledged
	// mutation survives both process and OS crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch acknowledges after the write syscall and fsyncs on a
	// background interval. An acknowledged mutation survives a process
	// crash; an OS crash may lose the last interval's worth.
	FsyncBatch
	// FsyncOff acknowledges after the write syscall and fsyncs only at
	// rotation and close. For tests and bulk loads.
	FsyncOff
)

// String names the policy the way the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag forms: always, batch, off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, batch or off)", s)
}

// DefaultCheckpointBytes is the log growth that triggers a checkpoint when
// Options.CheckpointBytes is zero.
const DefaultCheckpointBytes = 64 << 20

// batchInterval is the background fsync cadence under FsyncBatch.
const batchInterval = 10 * time.Millisecond

// Options configures Open. The zero value of every field but Dir is usable.
// The fsync cadence under FsyncBatch (batchInterval) and the merge policy
// (mergeRatio, maxSegments) are the engine's constants, not options.
type Options struct {
	// Dir is the data directory — segments and log files live there. It is
	// created if missing. Required.
	Dir string
	// Fsync is the durability policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// CheckpointBytes triggers an automatic checkpoint once the log has
	// grown past it; DefaultCheckpointBytes if zero, negative disables
	// automatic checkpoints (Checkpoint can still be called directly).
	CheckpointBytes int64
	// Metrics, when non-nil, registers the engine's instruments on the given
	// registry: fsync latency and group-commit size distributions, WAL
	// frame/byte counters, checkpoint/merge durations, compaction ratio,
	// segment-chain gauges, write amplification, and recovery time. Nil
	// disables all observation.
	Metrics *obs.Registry

	// mergeRatio is the merge policy's size ratio (see pickMergeRun), set
	// only by package tests: the constant mergeRatio if zero; negative
	// disables background merges, so the chain only grows and tier layouts
	// are deterministic.
	mergeRatio float64
}

// TierStats describes one live segment of the chain, oldest first in
// Stats.Tiers.
type TierStats struct {
	// Start and End are the WAL seq window the segment folds.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Triples is the segment's net adds, Tombstones its net removes; the
	// base tier (start 1) never carries tombstones.
	Triples    int `json:"triples"`
	Tombstones int `json:"tombstones"`
	// Bytes is the segment file size.
	Bytes int64 `json:"bytes"`
}

// Stats is a point-in-time report of the engine's durability state. Its JSON
// form is the durability block of GET /stats and POST /checkpoint (API.md),
// so field order and tags are wire contract.
type Stats struct {
	// Seq is the sequence number of the last journaled record.
	Seq uint64 `json:"seq"`
	// DurableSeq is the highest seq known fsynced; Seq - DurableSeq records
	// are exposed to an OS crash right now (none under fsync=always).
	DurableSeq uint64 `json:"durable_seq"`
	// LastFsyncAgoMS is how many milliseconds ago the log last reached
	// stable storage.
	LastFsyncAgoMS int64 `json:"last_fsync_ago_ms"`
	// Fsyncs counts fsync syscalls on the log.
	Fsyncs int64 `json:"fsyncs"`
	// WALBytes is the log growth since the last checkpoint.
	WALBytes int64 `json:"wal_bytes"`
	// Segments is the number of live segment files — the tiers of the chain
	// (0 before the first checkpoint).
	Segments int `json:"segments"`
	// SegmentSeq is the seq the newest segment covers through.
	SegmentSeq uint64 `json:"segment_seq"`
	// Tiers describes each live segment, oldest first.
	Tiers []TierStats `json:"segment_tiers,omitempty"`
	// Checkpoints counts completed checkpoints this process.
	Checkpoints int64 `json:"checkpoints"`
	// Merges counts completed background merges this process;
	// LastMergeDuration is the wall time of the most recent one and
	// LastMergeMS the same in milliseconds, for the wire.
	Merges            int64         `json:"merges"`
	LastMergeDuration time.Duration `json:"-"`
	LastMergeMS       int64         `json:"last_merge_ms"`
	// WALAppendedBytes, CheckpointBytes and MergeBytes are this process's
	// cumulative physical writes: log appends, checkpoint segment dumps,
	// and merge rewrites. WriteAmplification is their sum over
	// WALAppendedBytes — how many bytes hit disk per logical log byte
	// (1.0 = no segment overhead yet; 0 while nothing has been appended).
	WALAppendedBytes   int64   `json:"-"`
	CheckpointBytes    int64   `json:"-"`
	MergeBytes         int64   `json:"-"`
	WriteAmplification float64 `json:"write_amplification"`
	// RecoverySeconds is how long Open spent rebuilding the store from the
	// directory (segment fold + tail fold + bulk load).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// Err is "" while healthy, else one of two errors, the first that
	// applies: the log writer's sticky error — commits fail (mutations
	// answer 500) until a restart recovers the directory — or the last
	// checkpoint or merge failure — commits go on, the log keeps the data
	// safe, and the next successful checkpoint or merge clears it.
	Err string `json:"error,omitempty"`
}

// Engine is the durability engine: it implements store.Journal, owns the
// log writer and the checkpoint/merge lifecycle, and is what Open installs
// on the store. Safe for concurrent use.
type Engine struct {
	st   *store.Store
	opts Options
	disk disk // the data directory
	w    *walWriter

	// ckptMu serializes the segment-chain writers: checkpoints (manual and
	// automatic) and background merges. Always taken before mu. It also
	// guards wals, the first seqs of the live wal files in ascending order —
	// seeded by recovery, appended by a checkpoint's rotation, trimmed by its
	// cleanup; the last is the file the writer has open. A file stays listed
	// until it is actually deleted, so whatever a failed checkpoint leaves
	// behind, the next one folds or re-deletes.
	ckptMu sync.Mutex
	wals   []uint64

	// mu guards the segment chain and the counters below.
	mu           sync.Mutex
	tiers        []segMeta
	dictCovered  store.SymbolID // dictionary ids folded into the chain
	checkpoints  int64
	merges       int64
	lastMergeDur time.Duration
	ckptBytes    int64 // cumulative segment bytes written by checkpoints
	mergeBytes   int64 // cumulative segment bytes written by merges
	ckptErr      error // last checkpoint/merge failure, cleared by a later success

	recoveryDur time.Duration // set once in Open, read-only afterwards

	ckptC  chan struct{} // pokes the background goroutine; capacity 1
	mergeC chan struct{} // merge-needed poke; capacity 1
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once

	// Metric handles, nil without Options.Metrics (observations are
	// nil-safe).
	mCkptSeconds  *obs.Histogram
	mMergeSeconds *obs.Histogram
	mCompaction   *obs.Gauge
}

// Open recovers the data directory into st (which must be a fresh, empty
// store — recovery rebuilds both its dictionary and its triples, and the ids
// in the directory's files are only meaningful from an empty dictionary),
// installs the engine as the store's journal, and starts the background
// fsync/checkpoint/merge goroutine. On a pristine directory it simply starts
// a new log. The caller must Close the engine to release the log file and
// flush the tail.
func Open(st *store.Store, opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Options.Dir is required")
	}
	return open(st, opts, osDisk{opts.Dir})
}

// open is Open over the disk d, which is bound to opts.Dir.
func open(st *store.Store, opts Options, d disk) (*Engine, error) {
	if st.Len() != 0 || st.DictLen() != 0 {
		return nil, fmt.Errorf("durable: Open needs an empty store (it holds %d triples, %d dictionary entries); recovery is the only writer allowed before the journal is attached", st.Len(), st.DictLen())
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if opts.mergeRatio == 0 {
		opts.mergeRatio = mergeRatio
	}
	// The directory's entry is synced into its parent on every Open, not
	// only when mkdir creates it: one made by hand, or by an earlier Open
	// that failed before its sync, must not vanish in an OS crash either,
	// taking the writes acknowledged inside it along.
	if err := d.mkdir(); err != nil {
		return nil, fmt.Errorf("durable: creating data directory: %w", err)
	}
	if err := d.syncDir(".."); err != nil {
		return nil, fmt.Errorf("durable: fsyncing the data directory's parent: %w", err)
	}
	recStart := time.Now()
	rec, err := recoverDir(st, d)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		st:          st,
		opts:        opts,
		disk:        d,
		w:           newWALWriter(d, opts.Fsync, rec),
		wals:        rec.wals,
		tiers:       rec.tiers,
		dictCovered: rec.dictCovered,
		recoveryDur: time.Since(recStart),
		ckptC:       make(chan struct{}, 1),
		mergeC:      make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	if opts.Metrics != nil {
		// Before the journal attaches and the background goroutine starts:
		// nothing else can touch the handles yet, so plain assignment is safe
		// and the hot paths read them without synchronization.
		e.registerMetrics(opts.Metrics)
	}
	st.SetJournal(e)
	e.wg.Add(1)
	go e.background()
	// Recovery may have left an unbalanced chain (many young segments from
	// a crash-happy run); let the background goroutine even it out.
	e.mu.Lock()
	_, needMerge := e.pickMergeLocked()
	e.mu.Unlock()
	if needMerge {
		e.pokeMerge()
	}
	return e, nil
}

// registerMetrics registers the engine's instruments on reg. Called from
// Open only, before any journal traffic or background goroutine exists.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	e.w.mFsyncSeconds = reg.Histogram("onto_wal_fsync_seconds", "Log fsync syscall latency.", obs.LatencyBuckets())
	e.w.mCommitFrames = reg.Histogram("onto_wal_commit_frames", "Frames drained per group commit.", obs.SizeBuckets())
	e.w.mFrames = reg.Counter("onto_wal_frames_total", "Frames appended to the write-ahead log.")
	e.w.mBytes = reg.Counter("onto_wal_bytes_total", "Bytes appended to the write-ahead log.")
	e.mCkptSeconds = reg.Histogram("onto_checkpoint_seconds", "Checkpoint wall time (rotate, fold, dump, cleanup).", obs.LatencyBuckets())
	e.mMergeSeconds = reg.Histogram("onto_durable_merge_seconds", "Background segment-merge wall time.", obs.LatencyBuckets())
	e.mCompaction = reg.Gauge("onto_checkpoint_compaction_ratio", "Last checkpoint's segment bytes per superseded log byte.")
	reg.Gauge("onto_durable_recovery_seconds", "Wall time Open spent rebuilding the store from the data directory.").Set(e.recoveryDur.Seconds())
	reg.GaugeFunc("onto_wal_seq", "Sequence number of the last journaled record.", func() float64 {
		return float64(e.Stats().Seq)
	})
	reg.GaugeFunc("onto_wal_durable_seq", "Highest sequence number known fsynced.", func() float64 {
		return float64(e.Stats().DurableSeq)
	})
	reg.GaugeFunc("onto_wal_window_bytes", "Log growth since the last checkpoint.", func() float64 {
		return float64(e.Stats().WALBytes)
	})
	reg.GaugeFunc("onto_segments", "Live segment files (tiers of the chain).", func() float64 {
		return float64(e.Stats().Segments)
	})
	reg.GaugeFunc("onto_durable_segment_bytes", "Combined size of the live segment chain.", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		var n int64
		for _, t := range e.tiers {
			n += t.bytes
		}
		return float64(n)
	})
	reg.GaugeFunc("onto_durable_write_amplification", "Physical bytes written (log + segments) per logical log byte this process.", func() float64 {
		return e.Stats().WriteAmplification
	})
	reg.CounterFunc("onto_wal_fsyncs_total", "Fsync syscalls on the log.", func() float64 {
		return float64(e.Stats().Fsyncs)
	})
	reg.CounterFunc("onto_checkpoints_total", "Completed checkpoints this process.", func() float64 {
		return float64(e.Stats().Checkpoints)
	})
	reg.CounterFunc("onto_durable_merges_total", "Completed background segment merges this process.", func() float64 {
		return float64(e.Stats().Merges)
	})
}

// LastSeq returns the seq of the last journaled record — right after Open,
// the seq recovery loaded through.
func (e *Engine) LastSeq() uint64 { return e.w.currentSeq() }

// RecoveryDuration returns how long Open spent rebuilding the store from the
// data directory.
func (e *Engine) RecoveryDuration() time.Duration { return e.recoveryDur }

// Err returns the engine's sticky log error — nil while every commit has
// succeeded. Once non-nil it never clears: the log cannot vouch for its tail,
// so every later commit fails too and the process needs a restart (and
// recovery) to trust its data again. A write learns of the failure as its own
// error (store.Tx.Commit wraps it in store.ErrJournal); Err is the probe after
// the fact — for the one write without an error slot, store.Store.Remove, and
// for whoever wants the log's health without writing to it.
func (e *Engine) Err() error { return e.w.stickyErr() }

// JournalDict implements store.Journal. Called under the store's
// symbol-table lock; it only stages bytes (see walWriter.appendDict).
func (e *Engine) JournalDict(first store.SymbolID, names []string) {
	e.w.appendDict(first, names)
}

// JournalMutation implements store.Journal. Called at the end of the write
// section, under the store's lock; it only stages bytes (see
// walWriter.appendMutation).
func (e *Engine) JournalMutation(adds, removes []store.IDTriple, at store.Position) {
	e.w.appendMutation(adds, removes, at)
}

// JournalWait implements store.Journal: it group-commits the log through
// everything staged to the configured durability, and nudges the
// checkpointer if the log has outgrown its budget.
func (e *Engine) JournalWait() error {
	err := e.w.commit(e.w.currentSeq())
	if e.opts.CheckpointBytes > 0 && e.w.bytesSinceRotation() >= e.opts.CheckpointBytes {
		select {
		case e.ckptC <- struct{}{}:
		default: // a checkpoint poke is already pending
		}
	}
	return err
}

// pokeMerge schedules a background merge pass, coalescing with any pending
// poke.
func (e *Engine) pokeMerge() {
	select {
	case e.mergeC <- struct{}{}:
	default:
	}
}

// background is the engine's single service goroutine: interval fsync under
// FsyncBatch, checkpoints when the log outgrows its budget, and segment
// merges when the chain loses its size separation. Running merges here —
// not on their own goroutine — is what lets Close's wg.Wait promise that no
// merge is mid-flight when it returns.
func (e *Engine) background() {
	defer e.wg.Done()
	var tick <-chan time.Time
	if e.opts.Fsync == FsyncBatch {
		t := time.NewTicker(batchInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-e.done:
			return
		case <-tick:
			// Harmless when nothing is pending: waiting for an already-durable
			// seq returns without touching the file.
			e.w.mu.Lock()
			_ = e.w.waitLocked(e.w.seq, true)
			e.w.mu.Unlock()
		case <-e.ckptC:
			_ = e.Checkpoint() // its failure is Stats.Err's to report
		case <-e.mergeC:
			e.runMerges()
		}
	}
}

// Checkpoint retires the current log window: it rotates the WAL, folds the
// sealed files' records into a new young delta segment (foldWAL: last event
// per triple wins, so an add-then-remove folds to a tombstone), appends it to
// the chain, and deletes the log files the segment supersedes. Cost is
// proportional to the window — the live store is never read — and mutations
// proceed concurrently throughout. A checkpoint with an empty window is a
// no-op. If the new segment breaks the chain's size separation, a background
// merge is scheduled. Every checkpoint but a no-op records its outcome for
// Stats.Err: its failure, or nil once it succeeds.
func (e *Engine) Checkpoint() error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.Lock() //ontolint:ignore lockcheck fixed one-way order: ckptMu is always taken before mu and mu critical sections never take ckptMu, so the nesting cannot deadlock
	lastEnd, lastAt := e.coveredLocked()
	dictNext := e.dictCovered
	e.mu.Unlock()
	if e.w.currentSeq() == lastEnd {
		return nil // nothing journaled since the last checkpoint
	}
	var ckptStart time.Time
	if e.mCkptSeconds != nil {
		ckptStart = time.Now()
	}
	// The superseded log window, read before rotation resets it — the
	// denominator of the compaction ratio.
	walBytes := e.w.bytesSinceRotation()
	meta, names, err := e.publishWindow(lastEnd, dictNext, lastAt)
	var cleanupErr error
	if err == nil {
		e.w.dropWrites(meta.end)
		if e.mCompaction != nil && walBytes > 0 {
			e.mCompaction.Set(float64(meta.bytes) / float64(walBytes))
		}
		// The new segment supersedes every sealed file. A deletion failure is
		// reported but the checkpoint itself has succeeded: the file stays
		// listed, so the next checkpoint skips its folded records and deletes
		// it again — as recovery would.
		live, tail := e.wals[:0], e.wals[len(e.wals)-1]
		for _, first := range e.wals[:len(e.wals)-1] {
			if rerr := removeFile(e.disk, walFileName(first)); rerr != nil {
				live = append(live, first)
				cleanupErr = cmp.Or(cleanupErr, rerr)
			}
		}
		e.wals = append(live, tail)
	}
	published, needMerge := err == nil, false
	e.mu.Lock() //ontolint:ignore lockcheck fixed one-way order: ckptMu is always taken before mu and mu critical sections never take ckptMu, so the nesting cannot deadlock
	if published {
		e.tiers = append(e.tiers, meta)
		e.dictCovered += store.SymbolID(names)
		e.checkpoints++
		e.ckptBytes += meta.bytes
		_, needMerge = e.pickMergeLocked()
		err = cleanupErr
	}
	e.ckptErr = err
	e.mu.Unlock()
	if published && e.mCkptSeconds != nil {
		e.mCkptSeconds.Since(ckptStart)
	}
	if needMerge {
		e.pokeMerge()
	}
	return err
}

// publishWindow rotates the log and publishes the window the rotation
// sealed, (lastEnd, rotation point], as a segment, returning its accounting
// and how many names it minted. On failure nothing is published and the
// sealed files stay on disk and listed, so recovery still sees an intact log
// and the next checkpoint folds them again. Callers hold ckptMu.
func (e *Engine) publishWindow(lastEnd uint64, dictNext store.SymbolID, lastAt store.Position) (segMeta, int, error) {
	covered, err := e.w.rotate()
	if err != nil {
		return segMeta{}, 0, err
	}
	// Rotation opened wal-<covered+1>; every file listed before it is sealed.
	// After a checkpoint that failed with nothing journaled since, that name
	// is already the last one listed (rotation re-created the empty file).
	if e.wals[len(e.wals)-1] <= covered {
		e.wals = append(e.wals, covered+1)
	}
	sealed := e.wals[:len(e.wals)-1]
	datas, err := readWAL(e.disk, sealed)
	if err != nil {
		return segMeta{}, 0, err
	}
	seg, _, err := foldWAL(e.disk, sealed, datas, lastEnd, dictNext, lastAt, false)
	if err == nil && seg.end != covered {
		err = fmt.Errorf("durable: checkpoint window ends at record %d, want the rotation point %d", seg.end, covered)
	}
	if err != nil {
		return segMeta{}, 0, err
	}
	meta, err := writeSegment(e.disk, foldOf(seg), nil)
	return meta, seg.dict.n, err
}

// coveredLocked returns the seq the chain covers through and the chain's
// stamp: the empty state's position before the first checkpoint. Callers
// hold mu.
func (e *Engine) coveredLocked() (uint64, store.Position) {
	if len(e.tiers) == 0 {
		return 0, store.Position{}
	}
	last := e.tiers[len(e.tiers)-1]
	return last.end, last.at
}

// pickMergeLocked runs the merge policy over the current chain, returning
// the index the merge run would start at. Callers hold mu.
func (e *Engine) pickMergeLocked() (int, bool) {
	if e.opts.mergeRatio < 0 {
		return 0, false
	}
	sizes := make([]int64, len(e.tiers))
	for i, t := range e.tiers {
		sizes[i] = t.bytes
	}
	return pickMergeRun(sizes, e.opts.mergeRatio)
}

// runMerges folds chain suffixes until the merge policy is satisfied or the
// engine is closing. It runs on the background goroutine, under ckptMu, so
// checkpoints and merges serialize and Close's wg.Wait covers any merge in
// flight.
func (e *Engine) runMerges() {
	for {
		select {
		case <-e.done:
			return
		default:
		}
		e.ckptMu.Lock()
		e.mu.Lock() //ontolint:ignore lockcheck fixed one-way order: ckptMu is always taken before mu and mu critical sections never take ckptMu, so the nesting cannot deadlock
		i, ok := e.pickMergeLocked()
		var run []segMeta
		if ok {
			run = append(run, e.tiers[i:]...)
		}
		e.mu.Unlock()
		if !ok {
			e.ckptMu.Unlock()
			return
		}
		err := e.mergeRun(i, run)
		e.ckptMu.Unlock()
		if err != nil {
			e.mu.Lock()
			e.ckptErr = err
			e.mu.Unlock()
			return
		}
	}
}

// mergeRun folds the chain suffix starting at tier index i into one segment:
// foldChain loads the inputs into one fold, writeSegment streams it into the
// merged file and publishes it atomically, then the inputs are deleted. A
// crash or close at ANY point is safe: before the rename the merged .tmp is
// garbage recovery deletes (the merge is simply not-yet-merged); after it,
// the inputs are leftovers recovery recognizes as subsumed by the wider
// merged window and deletes. Close aborts the merge at any point before its
// rename — between input loads, or once the output is written — never
// leaving a .tmp behind.
func (e *Engine) mergeRun(i int, metas []segMeta) error {
	start := time.Now()
	merged, err := foldChain(e.disk, metas, e.done)
	if errors.Is(err, errStopped) {
		return nil // closing: abort before any output exists
	}
	if err != nil {
		return fmt.Errorf("durable: merge reading input: %w", err)
	}
	meta, err := writeSegment(e.disk, merged, e.done)
	if errors.Is(err, errStopped) {
		return nil // closing: the output is removed, inputs intact
	}
	if err != nil {
		return err
	}
	// Inputs are now subsumed; deletion failures are reported but recovery
	// would clean them up too.
	var cleanupErr error
	for _, m := range metas {
		if err := removeFile(e.disk, segmentName(m.start, m.end)); err != nil && cleanupErr == nil {
			cleanupErr = err
		}
	}
	dur := time.Since(start)
	e.mu.Lock() //ontolint:ignore lockcheck fixed one-way order: ckptMu is always taken before mu and mu critical sections never take ckptMu, so the nesting cannot deadlock
	e.tiers = append(e.tiers[:i:i], meta)
	e.merges++
	e.lastMergeDur = dur
	e.mergeBytes += meta.bytes
	e.ckptErr = cleanupErr
	e.mu.Unlock()
	if e.mMergeSeconds != nil {
		e.mMergeSeconds.Since(start)
	}
	return cleanupErr
}

// Stats returns a point-in-time durability report.
func (e *Engine) Stats() Stats {
	var st Stats
	e.w.snapshotStats(&st)
	st.RecoverySeconds = e.recoveryDur.Seconds()
	e.mu.Lock()
	st.Segments = len(e.tiers)
	st.SegmentSeq, _ = e.coveredLocked()
	st.Tiers = make([]TierStats, len(e.tiers))
	for i, t := range e.tiers {
		st.Tiers[i] = TierStats{
			Start:      t.start,
			End:        t.end,
			Triples:    t.adds,
			Tombstones: t.removes,
			Bytes:      t.bytes,
		}
	}
	st.Checkpoints = e.checkpoints
	st.Merges = e.merges
	st.LastMergeDuration = e.lastMergeDur
	st.LastMergeMS = e.lastMergeDur.Milliseconds()
	st.CheckpointBytes = e.ckptBytes
	st.MergeBytes = e.mergeBytes
	if st.WALAppendedBytes > 0 {
		st.WriteAmplification = float64(st.WALAppendedBytes+e.ckptBytes+e.mergeBytes) / float64(st.WALAppendedBytes)
	}
	if st.Err == "" && e.ckptErr != nil {
		st.Err = e.ckptErr.Error()
	}
	e.mu.Unlock()
	return st
}

// Close stops the background goroutine — waiting for any in-flight
// checkpoint or merge to finish or abort cleanly, so shutdown never leaves a
// .tmp behind — flushes and fsyncs the log tail, closes it, and detaches the
// engine from the store. A cleanly closed engine never loses an acknowledged
// mutation, whatever the fsync policy. The store remains usable in memory
// afterwards, but new mutations are no longer journaled.
//
// Closing while mutations are in flight is not a data race (the store reads
// its journal atomically, once per mutation), and the log is closed BEFORE
// the journal detaches, so a mutation racing Close either has its records
// flushed by the final drain and commits clean, or finds the log closed and
// gets ErrJournal from its commit. Only a mutation starting after the
// detach — indistinguishable from one starting after Close returned — is
// applied in memory without journaling. Drain mutators first (as
// ontoserve's graceful shutdown does) for a crisp durability boundary.
func (e *Engine) Close() error {
	var err error
	e.once.Do(func() {
		close(e.done)
		e.wg.Wait()
		err = e.w.close()
		e.st.SetJournal(nil)
	})
	return err
}
