package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/store"
)

// snapshotTimeout bounds one snapshot fetch (boot and re-snapshot).
const snapshotTimeout = 2 * time.Minute

// Run's reconnect backoff: the delay starts at backoffMin, doubles per
// consecutive failed round, is capped at backoffMax, and each sleep is
// jittered ±50% so a fleet of replicas that lost the same primary does not
// reconnect in lockstep.
const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 5 * time.Second
)

// Options configures a Replica. Primary is the only required field.
type Options struct {
	// Primary is the primary's base URL (e.g. "http://10.0.0.5:8080").
	Primary string
	// Client is the HTTP client used for every request; nil picks a default
	// with no overall timeout (long polls outlive any sane client timeout —
	// per-request deadlines come from contexts instead).
	Client *http.Client
	// Logger, when set, receives connection lifecycle messages (reconnects,
	// re-snapshots); nil is silent.
	Logger *log.Logger
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
	// Connected reports that the most recent round succeeded.
	Connected bool `json:"connected"`
	// AppliedGeneration is the primary generation this replica has applied
	// through; PrimaryGeneration is the primary's latest known generation
	// (the highest feed trailer of this epoch, never below the applied one);
	// Lag is the difference.
	AppliedGeneration uint64 `json:"applied_generation"`
	PrimaryGeneration uint64 `json:"primary_generation"`
	Lag               uint64 `json:"lag_generations"`
	// Reconnects counts failed rounds (the next round reconnects);
	// Resnapshots counts full re-snapshot recoveries (boot excluded).
	Reconnects  int64 `json:"reconnects"`
	Resnapshots int64 `json:"resnapshots"`
	// LastError is the most recent connection or apply error, cleared by
	// the next successful round.
	LastError string `json:"last_error,omitempty"`
}

// Replica is the client side of the replication tier: it boots from the
// primary's snapshot (New), then follows the delta feed round by round —
// one round per Step, or Run's loop of them — applying each frame through
// the local reasoner's incremental-maintenance path so the replica's
// materialized view — and its query cache invalidation — stay exactly as
// fresh as the feed. Create with New, hand the base store to server.New,
// then call Run with the server's reasoner.
//
// A replica is stateless across restarts by design: it keeps nothing on
// disk, so a crashed or SIGKILLed replica process simply boots again from
// a fresh snapshot — there is no recovery state machine to get wrong, and
// a replica can never serve a corrupt hybrid of two histories.
type Replica struct {
	opts Options
	base *store.Store

	mu sync.Mutex
	st Status // as update left it; Status derives the rest
}

// New validates the options, fetches the primary's snapshot, and returns a
// replica whose Base store holds exactly the primary's asserted corpus at
// the snapshot generation. The caller materializes that store (server.New
// does) and then calls Run to start following the feed.
func New(opts Options) (*Replica, error) {
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	// url.Parse alone accepts "localhost:8080" (as scheme "localhost") and
	// "localhost" (a bare path); both would only fail later, in the transport.
	u, err := url.Parse(opts.Primary)
	if err != nil {
		return nil, fmt.Errorf("repl: primary URL %q: %w", opts.Primary, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("repl: primary URL %q must be http://host[:port] or https://host[:port]", opts.Primary)
	}
	opts.Primary = strings.TrimRight(opts.Primary, "/")
	r := &Replica{opts: opts}
	base, gen, epoch, err := r.fetchSnapshot(context.Background())
	if err != nil {
		return nil, fmt.Errorf("repl: booting from %s: %w", opts.Primary, err)
	}
	r.base = base
	r.st = Status{Primary: opts.Primary, PrimaryEpoch: epoch, AppliedGeneration: gen}
	return r, nil
}

// Base returns the store restored from the boot snapshot. Hand it to
// server.New as Config.Base; after Run starts, all writes to it flow from
// the feed through the reasoner.
func (r *Replica) Base() *store.Store { return r.base }

// Status snapshots the replica's replication state. This is the one place
// the derived fields are computed: the primary's generation is never
// reported below the applied one (a frame can be applied before the trailer
// that announces it is read), and Lag is their difference.
func (r *Replica) Status() Status {
	r.mu.Lock()
	st := r.st
	r.mu.Unlock()
	st.PrimaryGeneration = max(st.PrimaryGeneration, st.AppliedGeneration)
	st.Lag = st.PrimaryGeneration - st.AppliedGeneration
	return st
}

// update is the one writer of the replica's status.
func (r *Replica) update(f func(st *Status)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.st)
}

// RegisterMetrics exposes the replica's status on reg.
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("onto_repl_applied_generation",
		"Primary generation this replica has applied through.",
		func() float64 { return float64(r.Status().AppliedGeneration) })
	reg.GaugeFunc("onto_repl_lag_generations",
		"Primary generations this replica has yet to apply (staleness bound).",
		func() float64 { return float64(r.Status().Lag) })
	reg.GaugeFunc("onto_repl_connected",
		"1 when the replica's last feed poll succeeded, 0 while reconnecting.",
		func() float64 {
			if r.Status().Connected {
				return 1
			}
			return 0
		})
	reg.CounterFunc("onto_repl_reconnects_total",
		"Feed connections that failed and were retried with backoff.",
		func() float64 { return float64(r.Status().Reconnects) })
	reg.CounterFunc("onto_repl_resnapshots_total",
		"Full re-snapshot recoveries after falling out of the retained delta window.",
		func() float64 { return float64(r.Status().Resnapshots) })
}

// Run follows the primary's delta feed until ctx is done, applying every
// frame through applier — the reasoner materializing the replica's base
// store: it runs rounds back to back, each long-polling the primary for up
// to maxPollWait, and sleeps a jittered, capped exponential backoff after a
// failed one. Every failure retries, so Run only returns when ctx is done,
// and always returns nil; it is meant to be launched as
// `go rep.Run(ctx, reasoner)` next to the serving loop.
func (r *Replica) Run(ctx context.Context, applier *reason.Reasoner) error {
	backoff := backoffMin
	for ctx.Err() == nil {
		if err := r.round(ctx, applier, maxPollWait); err == nil {
			backoff = backoffMin
		} else {
			backoff = sleep(ctx, backoff)
		}
	}
	return nil
}

// Step runs one round that never parks on the primary (a caught-up replica's
// Step returns at once) and returns its error, which Status has already
// recorded. A failed Step leaves the replica consistent: the next Step, or
// Run, resumes from the applied generation. Step and Run must not run
// concurrently on one replica.
func (r *Replica) Step(ctx context.Context, applier *reason.Reasoner) error {
	return r.round(ctx, applier, 0)
}

// sleep waits for the jittered backoff (or ctx) and returns the next,
// doubled-and-capped backoff. The jitter is ±50% of the current delay.
func sleep(ctx context.Context, backoff time.Duration) time.Duration {
	delay := backoff/2 + rand.N(backoff+1) // uniform in [backoff/2, 3*backoff/2]
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
	return min(backoff*2, backoffMax)
}

// round is the one body of Run and Step: one /repl/deltas poll held open for
// up to wait, its frames applied through applier in generation order, and a
// full re-snapshot when the poll finds the position lost — a 410, a chain
// break, a rewound trailer, or a primary epoch change (the primary
// restarted, so its generation chain is a new history). It records its
// outcome — connected, or the error and one more reconnect — unless ctx
// ended it.
func (r *Replica) round(ctx context.Context, applier *reason.Reasoner, wait time.Duration) error {
	if applier.Base() != r.base {
		// Fail fast: applying the feed through a reasoner over a different
		// store would fork the replica from the snapshot it booted from.
		panic("repl: the applier does not materialize the replica's base store")
	}
	err := r.poll(ctx, applier, wait)
	if errors.Is(err, errWindowPassed) {
		r.logf("feed position lost (%v); re-snapshotting from %s", err, r.opts.Primary)
		err = r.resnapshot(ctx, applier)
	}
	switch {
	case err == nil:
		r.update(func(st *Status) {
			st.Connected = true
			st.LastError = ""
		})
	case ctx.Err() == nil:
		r.logf("feed error (will reconnect): %v", err)
		r.update(func(st *Status) {
			st.Connected = false
			st.LastError = err.Error()
			st.Reconnects++
		})
	}
	return err
}

// poll requests the frames above the applied generation, applies them in
// order, and records the trailer's view of the primary. A nil return means
// the poll succeeded (even with zero frames); errWindowPassed demands a
// re-snapshot; anything else is a transport or protocol error.
func (r *Replica) poll(ctx context.Context, applier *reason.Reasoner, wait time.Duration) error {
	at := r.Status() // the position this poll resumes from
	u := fmt.Sprintf("%s%s?from=%d&wait=%s&max=%d",
		r.opts.Primary, DeltasPath, at.AppliedGeneration, wait, maxFrames)
	// The request deadline dominates the long-poll wait so a healthy
	// primary can hold the poll open, while a wedged connection still
	// times out instead of stalling replication forever.
	reqCtx, cancel := context.WithTimeout(ctx, wait+30*time.Second)
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
	if got := resp.Header.Get(EpochHeader); got != at.PrimaryEpoch {
		return fmt.Errorf("repl: primary epoch changed from %q to %q (primary restarted?): %w",
			at.PrimaryEpoch, got, errWindowPassed)
	}
	trailer, err := readFeed(resp.Body, at.AppliedGeneration, func(fr Frame) error { return r.apply(applier, fr) })
	if err != nil {
		return err
	}
	r.update(func(st *Status) { st.PrimaryGeneration = max(st.PrimaryGeneration, trailer.Gen) })
	return nil
}

// apply replays one frame as one write of the local reasoner — the same
// Apply, adds then removes, the primary's own write was, which is what makes
// the replica's materialization converge to the primary's — and records the
// generation as applied.
func (r *Replica) apply(applier *reason.Reasoner, fr Frame) error {
	if _, _, err := applier.Apply(wireTriples(fr.Add), wireTriples(fr.Remove), nil); err != nil {
		return fmt.Errorf("repl: applying frame %d: %w", fr.Gen, err)
	}
	r.update(func(st *Status) { st.AppliedGeneration = fr.Gen })
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
func (r *Replica) resnapshot(ctx context.Context, applier *reason.Reasoner) error {
	target, gen, epoch, err := r.fetchSnapshot(ctx)
	if err != nil {
		return err
	}
	current := applier.Base()
	adds, removes := missingFrom(current, target.Triples()), missingFrom(target, current.Triples())
	if _, _, err := applier.Apply(adds, removes, nil); err != nil {
		return fmt.Errorf("repl: applying re-snapshot diff: %w", err)
	}
	r.update(func(st *Status) {
		st.PrimaryEpoch = epoch
		st.AppliedGeneration = gen
		// The snapshot is the freshest primary state this replica has seen; a
		// higher generation recorded earlier may belong to a dead epoch, so
		// the primary-generation reference resets with the position.
		st.PrimaryGeneration = gen
		st.Resnapshots++
	})
	r.logf("re-snapshot complete: epoch %s, generation %d, %d added, %d removed", epoch, gen, len(adds), len(removes))
	return nil
}

// missingFrom returns the triples of ts that s does not hold.
func missingFrom(s *store.Store, ts []store.Triple) []store.Triple {
	var out []store.Triple
	for _, t := range ts {
		if !s.Contains(t) {
			out = append(out, t)
		}
	}
	return out
}

// logf forwards to the configured logger, if any.
func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logger != nil {
		r.opts.Logger.Printf("repl: "+format, args...)
	}
}
