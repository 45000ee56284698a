package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/reason"
	"repro/internal/store"
)

// Wire constants shared by the primary's handlers and the replica client.
const (
	// SnapshotPath and DeltasPath are the primary's replication endpoints.
	SnapshotPath = "/repl/snapshot"
	DeltasPath   = "/repl/deltas"
	// GenerationHeader carries the generation a /repl/snapshot response is
	// exactly consistent with.
	GenerationHeader = "X-Repl-Generation"
	// TriplesHeader carries the triple count of a /repl/snapshot response.
	TriplesHeader = "X-Repl-Triples"
	// EpochHeader carries the primary's feed epoch on every replication
	// response. Generations restart from zero when a primary restarts, so a
	// replica pins the epoch its snapshot came from and re-snapshots the
	// moment a feed response carries a different one — before applying a
	// single frame of the new history.
	EpochHeader = "X-Repl-Epoch"
)

// Limits of the replica's two requests.
const (
	// maxFrames caps the frames requested per /repl/deltas poll.
	maxFrames = 1024
	// snapshotTimeout bounds one snapshot fetch (boot and re-snapshot).
	snapshotTimeout = 2 * time.Minute
)

// Options configures a Replica. Primary is the only required field.
type Options struct {
	// Primary is the primary's base URL (e.g. "http://10.0.0.5:8080").
	Primary string
	// Client is the HTTP client used for every request; nil picks a default
	// with no overall timeout (long polls outlive any sane client timeout —
	// per-request deadlines come from contexts instead).
	Client *http.Client
	// PollWait is the long-poll wait hint sent with every /repl/deltas
	// request; the primary caps it server-side. Default 25s.
	PollWait time.Duration
	// BackoffMin and BackoffMax bound the reconnect backoff: the delay
	// starts at BackoffMin, doubles per consecutive failure, is capped at
	// BackoffMax, and each sleep is jittered ±50% so a fleet of replicas
	// that lost the same primary does not reconnect in lockstep. Defaults
	// 100ms and 5s.
	BackoffMin, BackoffMax time.Duration
	// Logger, when set, receives connection lifecycle messages (reconnects,
	// re-snapshots); nil is silent.
	Logger *log.Logger
}

// defaults fills the zero fields.
func (o *Options) defaults() {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.PollWait <= 0 {
		o.PollWait = 25 * time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
}

// Status is a replica's replication state, as reported under /stats and
// /healthz and exported as /metrics gauges. Lag is the staleness bound the
// serving tier advertises: how many primary generations this replica has
// yet to apply.
type Status struct {
	// Primary is the primary's base URL.
	Primary string `json:"primary"`
	// PrimaryEpoch is the primary feed epoch this replica's state belongs
	// to, pinned at snapshot time; a feed response with a different epoch
	// forces a re-snapshot.
	PrimaryEpoch string `json:"primary_epoch,omitempty"`
	// Connected reports that the most recent feed request succeeded.
	Connected bool `json:"connected"`
	// AppliedGeneration is the primary generation this replica has applied
	// through; PrimaryGeneration is the primary's latest known generation
	// (from the last feed trailer); Lag is the difference.
	AppliedGeneration uint64 `json:"applied_generation"`
	PrimaryGeneration uint64 `json:"primary_generation"`
	Lag               uint64 `json:"lag_generations"`
	// Reconnects counts feed connections that failed and were retried;
	// Resnapshots counts full re-snapshot recoveries (boot excluded).
	Reconnects  int64 `json:"reconnects"`
	Resnapshots int64 `json:"resnapshots"`
	// LastError is the most recent connection or apply error, cleared on
	// the next successful poll.
	LastError string `json:"last_error,omitempty"`
}

// Replica is the client side of the replication tier: it boots from the
// primary's snapshot (New), then follows the delta feed (Run), applying
// each frame through the local reasoner's incremental-maintenance path so
// the replica's materialized view — and its query cache invalidation —
// stay exactly as fresh as the feed. Create with New, hand the base store
// to server.New, then call Run with the server's reasoner.
//
// A replica is stateless across restarts by design: it keeps nothing on
// disk, so a crashed or SIGKILLed replica process simply boots again from
// a fresh snapshot — there is no recovery state machine to get wrong, and
// a replica can never serve a corrupt hybrid of two histories.
type Replica struct {
	opts    Options
	base    *store.Store
	applier *reason.Reasoner

	mu  sync.Mutex
	st  Status
	rng *rand.Rand
}

// errWindowPassed marks feed positions that no longer name a point in the
// primary's live history: 410 responses, mid-stream chain breaks, an epoch
// change (the primary restarted and its generation counter with it), or a
// latest generation behind the replica's applied one. Run answers every
// form of it the same way — re-snapshot, the only operation that
// re-establishes equivalence without trusting the lost position.
var errWindowPassed = errors.New("repl: position past the primary's retained delta window")

// New validates the options, fetches the primary's snapshot, and returns a
// replica whose Base store holds exactly the primary's asserted corpus at
// the snapshot generation. The caller materializes that store (server.New
// does) and then calls Run to start following the feed.
func New(opts Options) (*Replica, error) {
	opts.defaults()
	if opts.Primary == "" {
		return nil, fmt.Errorf("repl: Options.Primary is required")
	}
	if _, err := url.Parse(opts.Primary); err != nil {
		return nil, fmt.Errorf("repl: primary URL %q: %w", opts.Primary, err)
	}
	opts.Primary = strings.TrimRight(opts.Primary, "/")
	r := &Replica{
		opts: opts,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	base, gen, epoch, err := r.fetchSnapshot(context.Background())
	if err != nil {
		return nil, fmt.Errorf("repl: booting from %s: %w", opts.Primary, err)
	}
	r.base = base
	r.st = Status{Primary: opts.Primary, PrimaryEpoch: epoch, AppliedGeneration: gen, PrimaryGeneration: gen}
	return r, nil
}

// Base returns the store restored from the boot snapshot. Hand it to
// server.New as Config.Base; after Run starts, all writes to it flow from
// the feed through the reasoner.
func (r *Replica) Base() *store.Store { return r.base }

// Status snapshots the replica's replication state.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// Run follows the primary's delta feed until ctx is done, applying every
// frame through applier — the reasoner materializing the replica's base
// store — in generation order. Frames at or below the applied generation
// are skipped (a generation is never applied twice); a chain break, a 410
// from the primary, or a primary epoch change (the primary restarted, so its
// generation chain is a new history) triggers a full re-snapshot; transport
// errors reconnect with capped exponential backoff and ±50% jitter. Run
// only returns when ctx is done — every failure mode retries — and always
// returns nil; it is meant to be launched as `go rep.Run(ctx, reasoner)`
// next to the serving loop.
func (r *Replica) Run(ctx context.Context, applier *reason.Reasoner) error {
	if applier.Base() != r.base {
		// Fail fast: applying the feed through a reasoner over a different
		// store would fork the replica from the snapshot it booted from.
		panic("repl: Run's applier does not materialize the replica's base store")
	}
	r.applier = applier
	backoff := r.opts.BackoffMin
	for ctx.Err() == nil {
		err := r.poll(ctx)
		switch {
		case err == nil:
			backoff = r.opts.BackoffMin
		case errors.Is(err, errWindowPassed):
			r.logf("feed position lost (%v); re-snapshotting from %s", err, r.opts.Primary)
			if rerr := r.resnapshot(ctx); rerr != nil {
				r.recordError(rerr)
				backoff = r.sleep(ctx, backoff)
			} else {
				backoff = r.opts.BackoffMin
			}
		case ctx.Err() != nil:
			return nil
		default:
			r.recordError(err)
			backoff = r.sleep(ctx, backoff)
		}
	}
	return nil
}

// sleep waits for the jittered backoff (or ctx) and returns the next,
// doubled-and-capped backoff. The jitter is ±50% of the current delay.
func (r *Replica) sleep(ctx context.Context, backoff time.Duration) time.Duration {
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(backoff) + 1))
	r.mu.Unlock()
	delay := backoff/2 + jitter // uniform in [backoff/2, 3*backoff/2]
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
	next := backoff * 2
	if next > r.opts.BackoffMax {
		next = r.opts.BackoffMax
	}
	return next
}

// poll runs one feed round: request the frames above the applied
// generation, apply them in order, and record the trailer's view of the
// primary. A nil return means the round succeeded (even with zero frames);
// errWindowPassed demands a re-snapshot; anything else is a transport or
// protocol error worth a backoff and retry.
func (r *Replica) poll(ctx context.Context) error {
	st := r.Status()
	applied, epoch := st.AppliedGeneration, st.PrimaryEpoch
	u := fmt.Sprintf("%s%s?from=%d&wait=%s&max=%d",
		r.opts.Primary, DeltasPath, applied, r.opts.PollWait, maxFrames)
	// The request deadline dominates the long-poll wait so a healthy
	// primary can hold the poll open, while a wedged connection still
	// times out instead of stalling replication forever.
	reqCtx, cancel := context.WithTimeout(ctx, r.opts.PollWait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errWindowPassed
	default:
		return fmt.Errorf("repl: %s: unexpected status %s", DeltasPath, resp.Status)
	}
	// The epoch gate comes before a single frame is decoded: a restarted
	// primary restarts its generation counter, so its frames describe a
	// different history whose generation numbers can collide with the one
	// this replica booted from. Only a snapshot re-anchors the replica.
	if got := resp.Header.Get(EpochHeader); got != epoch {
		return fmt.Errorf("repl: primary epoch changed from %q to %q (primary restarted?): %w",
			epoch, got, errWindowPassed)
	}

	// Frames stream as whitespace-separated JSON objects; json.Decoder
	// imposes no line-length limit, so a frame carrying a full mutation
	// batch decodes the same as a one-triple frame.
	dec := json.NewDecoder(resp.Body)
	sawTrailer := false
	for {
		var ln feedLine
		if err := dec.Decode(&ln); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("repl: decoding feed: %w", err)
		}
		if sawTrailer {
			return fmt.Errorf("repl: feed frame after the trailer")
		}
		if ln.Done {
			sawTrailer = true
			// Belt-and-braces behind the epoch gate: a primary whose latest
			// generation sits behind what this replica already applied, or
			// whose trailer is internally inconsistent, is describing a
			// history this replica is not on. Never converge on it.
			if ln.Gen < applied {
				return fmt.Errorf("repl: primary's latest generation %d is behind applied %d (history rewound): %w",
					ln.Gen, applied, errWindowPassed)
			}
			if ln.Oldest > ln.Gen+1 {
				return fmt.Errorf("repl: malformed trailer: oldest retained %d past latest %d: %w",
					ln.Oldest, ln.Gen, errWindowPassed)
			}
			r.setPrimaryGen(ln.Gen)
			continue
		}
		fr := ln.Frame
		if err := validateFrame(fr); err != nil {
			return err
		}
		switch {
		case fr.Gen <= applied:
			// A replayed or duplicated frame: already applied, never apply
			// a generation twice.
			continue
		case fr.Gen != applied+1:
			// The chain skipped a generation mid-stream; the safe recovery
			// is the same as a retention gap.
			return errWindowPassed
		}
		if err := r.apply(fr); err != nil {
			return err
		}
		applied = fr.Gen
		r.setApplied(applied)
	}
	if !sawTrailer {
		return fmt.Errorf("repl: feed stream ended without a trailer")
	}
	r.markConnected()
	return nil
}

// apply replays one frame as one write of the local reasoner — the same
// Apply, adds then removes, the primary's own write was, which is what makes
// the replica's materialization converge to the primary's.
func (r *Replica) apply(fr Frame) error {
	if _, _, err := r.applier.Apply(wireTriples(fr.Add), wireTriples(fr.Remove)); err != nil {
		return fmt.Errorf("repl: applying frame %d: %w", fr.Gen, err)
	}
	return nil
}

// wireTriples converts one side of a frame to store triples.
func wireTriples(ts []WireTriple) []store.Triple {
	out := make([]store.Triple, len(ts))
	for i, t := range ts {
		out[i] = t.Triple()
	}
	return out
}

// fetchSnapshot retrieves the primary's base snapshot into a fresh store
// and returns it with the generation and feed epoch it is consistent with.
// The restore is staged through the fresh store in full before anything is
// returned, so a truncated or malformed snapshot can never leak a partial
// corpus.
func (r *Replica) fetchSnapshot(ctx context.Context) (*store.Store, uint64, string, error) {
	reqCtx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, r.opts.Primary+SnapshotPath, nil)
	if err != nil {
		return nil, 0, "", err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, "", fmt.Errorf("repl: %s: unexpected status %s (is the primary serving a replication feed?)", SnapshotPath, resp.Status)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err != nil {
		return nil, 0, "", fmt.Errorf("repl: snapshot response lacks a valid %s header: %w", GenerationHeader, err)
	}
	epoch := resp.Header.Get(EpochHeader)
	if epoch == "" {
		return nil, 0, "", fmt.Errorf("repl: snapshot response lacks an %s header (is the primary serving a replication feed?)", EpochHeader)
	}
	scratch := store.New()
	n, err := store.Restore(scratch, resp.Body)
	if err != nil {
		return nil, 0, "", fmt.Errorf("repl: restoring snapshot: %w", err)
	}
	if want := resp.Header.Get(TriplesHeader); want != "" {
		if wn, werr := strconv.Atoi(want); werr == nil && wn != n {
			return nil, 0, "", fmt.Errorf("repl: snapshot advertised %d triples but restored %d (truncated response?)", wn, n)
		}
	}
	return scratch, gen, epoch, nil
}

// resnapshot re-establishes equivalence with the primary after the feed
// position was lost: fetch a fresh snapshot, diff it against the replica's
// current asserted store, and apply the difference through the reasoner as
// one write, so the materialized view is maintained incrementally and the
// replica keeps serving (slightly stale, then converged) queries throughout.
// The diff is set-based, so it lands on the snapshot's exact state no matter
// what suffix of history the replica missed.
func (r *Replica) resnapshot(ctx context.Context) error {
	target, gen, epoch, err := r.fetchSnapshot(ctx)
	if err != nil {
		return err
	}
	adds, removes := diffTriples(r.applier.Base().Triples(), target.Triples())
	if _, _, err := r.applier.Apply(adds, removes); err != nil {
		return fmt.Errorf("repl: applying re-snapshot diff: %w", err)
	}
	r.mu.Lock()
	r.st.PrimaryEpoch = epoch
	r.st.AppliedGeneration = gen
	// The snapshot is the freshest primary state this replica has seen; a
	// higher generation recorded earlier may belong to a dead epoch, so
	// the primary-generation reference resets with the position.
	r.st.PrimaryGeneration = gen
	r.st.Lag = 0
	r.st.Resnapshots++
	// A served snapshot is proof of contact: report connected now rather
	// than after the next poll round, which may hold a long poll open for
	// the full wait before it completes.
	r.st.Connected = true
	r.st.LastError = ""
	r.mu.Unlock()
	r.logf("re-snapshot complete: epoch %s, generation %d, %d added, %d removed", epoch, gen, len(adds), len(removes))
	return nil
}

// diffTriples computes target − current (adds) and current − target
// (removes) by one merge walk; both inputs are in the store's canonical
// sorted export order (Store.Triples).
func diffTriples(current, target []store.Triple) (adds, removes []store.Triple) {
	i, j := 0, 0
	for i < len(current) && j < len(target) {
		switch {
		case current[i] == target[j]:
			i++
			j++
		case tripleLess(current[i], target[j]):
			removes = append(removes, current[i])
			i++
		default:
			adds = append(adds, target[j])
			j++
		}
	}
	removes = append(removes, current[i:]...)
	adds = append(adds, target[j:]...)
	return adds, removes
}

// tripleLess is the store's canonical triple order (subject, predicate,
// object lexicographic), matching Store.Triples' export order.
func tripleLess(t, u store.Triple) bool {
	if t.Subject != u.Subject {
		return t.Subject < u.Subject
	}
	if t.Predicate != u.Predicate {
		return t.Predicate < u.Predicate
	}
	return t.Object < u.Object
}

// setApplied records a newly applied generation.
func (r *Replica) setApplied(gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.AppliedGeneration = gen
	if r.st.PrimaryGeneration < gen {
		r.st.PrimaryGeneration = gen
	}
	r.st.Lag = r.st.PrimaryGeneration - r.st.AppliedGeneration
}

// setPrimaryGen records the primary's latest generation from a trailer.
func (r *Replica) setPrimaryGen(gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen > r.st.PrimaryGeneration {
		r.st.PrimaryGeneration = gen
	}
	if r.st.PrimaryGeneration >= r.st.AppliedGeneration {
		r.st.Lag = r.st.PrimaryGeneration - r.st.AppliedGeneration
	}
}

// markConnected records a successful poll.
func (r *Replica) markConnected() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.Connected = true
	r.st.LastError = ""
}

// recordError records a failed poll or re-snapshot and counts the
// reconnect the caller is about to attempt.
func (r *Replica) recordError(err error) {
	r.logf("feed error (will reconnect): %v", err)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.st.Connected = false
	r.st.LastError = err.Error()
	r.st.Reconnects++
}

// logf forwards to the configured logger, if any.
func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logger != nil {
		r.opts.Logger.Printf("repl: "+format, args...)
	}
}
