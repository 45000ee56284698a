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

	"repro/internal/durable"
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
	// Connected reports that the most recent round succeeded.
	Connected bool `json:"connected"`
	// AppliedGeneration and AppliedDigest are the primary position this
	// replica has applied through; PrimaryGeneration is the primary's latest
	// known generation (the highest a deltas response announced since the
	// last snapshot, never below the applied one); Lag is the difference.
	AppliedGeneration uint64       `json:"applied_generation"`
	AppliedDigest     store.Digest `json:"applied_digest"`
	PrimaryGeneration uint64       `json:"primary_generation"`
	Lag               uint64       `json:"lag_generations"`
	// Reconnects counts failed rounds (the next round reconnects);
	// Resnapshots counts full re-snapshot recoveries (boot excluded);
	// DigestMismatches counts writes after which this replica's digest
	// differed from the one the primary recorded — each one re-snapshots.
	Reconnects       int64 `json:"reconnects"`
	Resnapshots      int64 `json:"resnapshots"`
	DigestMismatches int64 `json:"digest_mismatches"`
	// LastMismatch is the most recent digest mismatch, kept after the
	// re-snapshot that answered it.
	LastMismatch string `json:"last_mismatch,omitempty"`
	// LastError is the most recent connection or apply error, cleared by
	// the next successful round.
	LastError string `json:"last_error,omitempty"`
}

// Replica is the client side of the replication tier: it boots from the
// primary's snapshot (New), then follows the primary's log round by round —
// one round per Step, or Run's loop of them — applying each whole write
// through the local reasoner's incremental-maintenance path so the replica's
// materialized view — and its query cache invalidation — stay exactly as
// fresh as the log, and checking its digest against the record's after
// each. Create with New, hand the base store to server.New, then call Run
// with the server's reasoner.
//
// A replica is stateless across restarts by design: it keeps nothing on
// disk, so a crashed or SIGKILLed replica process simply boots again from
// a fresh snapshot — there is no recovery state machine to get wrong, and
// a replica can never serve a corrupt hybrid of two histories.
type Replica struct {
	opts   Options
	base   *store.Store
	follow *durable.Follower // the primary's names and this replica's position in its log

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
	base, follow, err := r.fetchSnapshot(context.Background())
	if err != nil {
		return nil, fmt.Errorf("repl: booting from %s: %w", opts.Primary, err)
	}
	r.base, r.follow = base, follow
	at := follow.Position()
	r.st = Status{Primary: opts.Primary, AppliedGeneration: at.Gen, AppliedDigest: at.Digest}
	return r, nil
}

// Base returns the store loaded from the boot snapshot, at the primary's
// generation. Hand it to server.New as Config.Base; after Run starts, all
// writes to it flow from the log through the reasoner.
func (r *Replica) Base() *store.Store { return r.base }

// Status snapshots the replica's replication state. This is the one place
// the derived fields are computed: the primary's generation is never
// reported below the applied one, and Lag is their difference.
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
		"Full re-snapshot recoveries after the replica's position left the primary's live log.",
		func() float64 { return float64(r.Status().Resnapshots) })
	reg.CounterFunc("onto_repl_digest_mismatches_total",
		"Writes after which the replica's digest differed from the primary's record (each re-snapshots).",
		func() float64 { return float64(r.Status().DigestMismatches) })
}

// Run follows the primary's log until ctx is done, applying every write
// through applier — the reasoner materializing the replica's base
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
// up to wait, its writes applied through applier in log order, and a full
// re-snapshot when the poll finds the position lost — a 410, or a body that
// does not continue this replica's state (durable.ErrDiverged), a digest
// mismatch included. It records its outcome — connected, or the error and
// one more reconnect — unless ctx ended it.
func (r *Replica) round(ctx context.Context, applier *reason.Reasoner, wait time.Duration) error {
	if applier.Base() != r.base {
		// Fail fast: applying the log through a reasoner over a different
		// store would fork the replica from the snapshot it booted from.
		panic("repl: the applier does not materialize the replica's base store")
	}
	err := r.poll(ctx, applier, wait)
	if errors.Is(err, errGone) || errors.Is(err, durable.ErrDiverged) {
		r.logf("position lost (%v); re-snapshotting from %s", err, r.opts.Primary)
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

// errGone is a poll's 410: the position is not on the primary's live log.
var errGone = errors.New("repl: position not on the primary's live log")

// poll requests the records after the applied position, applies their
// writes in order, and records the primary's latest generation. A nil
// return means the poll succeeded (even with nothing new); errGone and
// durable.ErrDiverged demand a re-snapshot; anything else is a transport
// or protocol error the next round retries.
func (r *Replica) poll(ctx context.Context, applier *reason.Reasoner, wait time.Duration) error {
	at := r.follow.Position()
	u := fmt.Sprintf("%s%s?from=%d&digest=%s&wait=%s&max=%d",
		r.opts.Primary, DeltasPath, at.Gen, at.Digest, wait, maxWrites)
	// The request deadline dominates the long-poll wait so a healthy
	// primary can hold the poll open, while a wedged connection still
	// times out instead of stalling replication forever.
	reqCtx, cancel := context.WithTimeout(ctx, wait+30*time.Second)
	defer cancel()
	resp, err := r.get(reqCtx, u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errGone
	default:
		return fmt.Errorf("repl: %s: unexpected status %s", DeltasPath, resp.Status)
	}
	body, err := readBody(resp)
	latest, herr := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	if err == nil && herr != nil {
		err = fmt.Errorf("repl: %s response lacks a valid %s header: %w", DeltasPath, GenerationHeader, herr)
	}
	// A cut body still carries whole writes: apply them, then report the cut.
	if _, aerr := r.follow.Read(body, func(adds, removes []store.Triple, at store.Position) error {
		return r.apply(applier, adds, removes, at)
	}); aerr != nil {
		return aerr
	}
	if err != nil {
		return err
	}
	r.update(func(st *Status) { st.PrimaryGeneration = max(st.PrimaryGeneration, latest) })
	return nil
}

// readBody reads a whole response body and refuses one shorter than its
// Content-Length: a connection that died mid-response. What arrived is
// returned either way.
func readBody(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.ContentLength >= 0 && int64(len(body)) != resp.ContentLength {
		err = fmt.Errorf("repl: %w: %d of %d bytes arrived", durable.ErrTorn, len(body), resp.ContentLength)
	}
	return body, err
}

// apply replays one write as one write of the local reasoner — the same
// Apply, adds then removes, the primary's own write was, which is what makes
// the replica's materialization converge to the primary's — and holds the
// base's digest to the one the primary recorded: a mismatch is counted and
// answered with a re-snapshot.
func (r *Replica) apply(applier *reason.Reasoner, adds, removes []store.Triple, at store.Position) error {
	if _, _, err := applier.Apply(adds, removes, nil); err != nil {
		return fmt.Errorf("repl: applying the write at generation %d: %w", at.Gen, err)
	}
	if got := r.base.Position().Digest; got != at.Digest {
		err := fmt.Errorf("repl: after the write at generation %d the replica's digest is %v, the primary's %v: %w",
			at.Gen, got, at.Digest, durable.ErrDiverged)
		r.update(func(st *Status) {
			st.DigestMismatches++
			st.LastMismatch = err.Error()
		})
		return err
	}
	r.update(func(st *Status) { st.AppliedGeneration, st.AppliedDigest = at.Gen, at.Digest })
	return nil
}

// get issues one GET on the primary.
func (r *Replica) get(ctx context.Context, u string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return r.opts.Client.Do(req)
}

// fetchSnapshot retrieves the primary's snapshot into a fresh store, with
// durable's segment checks and bulk load, and returns it with the follower
// positioned at the snapshot's stamp. The load is staged through the fresh
// store in full before anything is returned, so a truncated or malformed
// snapshot can never leak a partial corpus.
func (r *Replica) fetchSnapshot(ctx context.Context) (*store.Store, *durable.Follower, error) {
	reqCtx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	resp, err := r.get(reqCtx, r.opts.Primary+SnapshotPath)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("repl: %s: unexpected status %s (is the primary serving a replication feed?)", SnapshotPath, resp.Status)
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, nil, err
	}
	scratch := store.New()
	follow, err := durable.LoadSnapshot(scratch, body)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: loading snapshot: %w", err)
	}
	return scratch, follow, nil
}

// resnapshot re-establishes equivalence with the primary after the position
// was lost: fetch a fresh snapshot, diff it against the replica's current
// asserted store, and apply the difference through the reasoner as one
// write, so the materialized view is maintained incrementally and the
// replica keeps serving (slightly stale, then converged) queries throughout.
// The diff is set-based, so it lands on the snapshot's exact state no matter
// what suffix of history the replica missed — and the digest proves it.
func (r *Replica) resnapshot(ctx context.Context, applier *reason.Reasoner) error {
	target, follow, err := r.fetchSnapshot(ctx)
	if err != nil {
		return err
	}
	current := applier.Base()
	adds, removes := missingFrom(current, target.Triples()), missingFrom(target, current.Triples())
	if _, _, err := applier.Apply(adds, removes, nil); err != nil {
		return fmt.Errorf("repl: applying re-snapshot diff: %w", err)
	}
	at := follow.Position()
	if got := current.Position().Digest; got != at.Digest {
		return fmt.Errorf("repl: after the re-snapshot the replica's digest is %v, the snapshot's %v", got, at.Digest)
	}
	r.follow = follow
	r.update(func(st *Status) {
		st.AppliedGeneration, st.AppliedDigest = at.Gen, at.Digest
		// The snapshot is the freshest primary state this replica has seen; a
		// higher generation recorded earlier may belong to another history,
		// so the primary-generation reference resets with the position.
		st.PrimaryGeneration = at.Gen
		st.Resnapshots++
	})
	r.logf("re-snapshot complete: generation %d, digest %v, %d added, %d removed", at.Gen, at.Digest, len(adds), len(removes))
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
