package repl

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/store"
)

// retainFrames is the delta-frame retention of a primary's feed: enough for
// a replica to ride out transient disconnects at typical mutation rates
// without re-snapshotting, small enough that a write-heavy primary is not
// holding gigabytes of history.
const retainFrames = 1024

// Feed is the primary's half of the protocol: the delta retention buffer
// and the two handlers that serve it. The reasoner's event hook publishes
// one Frame per content-changing write (Publish), ServeDeltas reads frames
// back by generation, long-polling for new ones, and ServeSnapshot serves the
// base a replica boots from. The buffer retains the most recent frames up to
// its retention cap; a replica that falls further behind than that is told
// its position is gone (a Gapped window, 410 on the wire) and must
// re-snapshot.
//
// Appends never block on readers — the buffer is bounded, eviction is
// immediate, and waiting pollers are woken by a channel close — so a slow,
// stalled or dead replica can never hold up the primary's mutation path.
// All methods are safe for concurrent use. Frames handed out in a Window are
// shared, immutable history: neither the feed nor callers may mutate them.
type Feed struct {
	// epoch is a random identifier minted at NewFeed, immutable thereafter. It
	// is carried on every replication response (the X-Repl-Epoch header) so
	// replicas can detect a primary restart and re-snapshot instead of
	// converging on a fork.
	epoch string

	mu      sync.Mutex
	frames  []Frame       // dense ascending generations; frames[0] is the oldest retained
	latest  uint64        // generation of the newest appended frame (0 before any)
	retain  int           // max frames retained
	wake    chan struct{} // closed and replaced on every append, waking long-pollers; closed for good by Close
	closed  bool          // Close was called: Wait no longer parks
	appends int64         // frames ever appended
	dropped int64         // frames ever evicted by retention
	triples int64         // triples across retained frames (memory signal)
}

// NewFeed returns a feed retaining the newest retainFrames frames. Every feed
// mints a fresh random epoch: the identifier replicas pin to detect that the
// generation chain they were following belongs to a dead history (a
// restarted primary's counter restarts from zero).
func NewFeed() *Feed { return newFeed(retainFrames) }

// newFeed returns a feed retaining up to retain ≥ 1 frames; the package's
// own tests use small windows.
func newFeed(retain int) *Feed {
	return &Feed{epoch: newEpoch(), retain: retain, wake: make(chan struct{})}
}

// newEpoch mints a random feed identifier. Uniqueness across primary boots
// is all that matters; 8 random bytes make an accidental collision with a
// replica's pinned epoch vanishingly unlikely.
func newEpoch() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand read failures are effectively impossible on supported
		// platforms; a nanosecond timestamp still satisfies the only
		// requirement (distinct across boots).
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// Publish appends one reasoner event as its wire frame: the asserted-side
// mutation resolved to names (dictionary ids are meaningless across
// processes; the replica re-derives the inferred overlay itself). It is the
// feed's share of the reasoner's event hook.
func (f *Feed) Publish(res store.Resolver, d reason.Delta) {
	named := func(ts []store.IDTriple) []WireTriple {
		if len(ts) == 0 {
			return nil
		}
		out := make([]WireTriple, len(ts))
		for i, t := range ts {
			out[i] = WireTriple{S: res.Name(t.S), P: res.Name(t.P), O: res.Name(t.O)}
		}
		return out
	}
	f.Append(Frame{Gen: d.Gen, Add: named(d.AssertedAdded), Remove: named(d.AssertedRemoved)})
}

// Append publishes one frame. Frames must arrive in generation order with
// dense generations — the reasoner's event hook guarantees that — but the
// feed defends itself against a discontinuity (a hook installed late, a
// consumer wired to a restarted reasoner) by dropping its history and
// restarting the chain at the new frame, which forces every replica behind
// the discontinuity onto the re-snapshot path instead of silently serving
// a forked history.
func (f *Feed) Append(fr Frame) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.latest != 0 && fr.Gen != f.latest+1 {
		// Discontinuity: truncate history so no replica can be handed a
		// chain that skips generations. Drop the backing array too — a
		// Window holds a subslice of it, so re-slicing to length zero and
		// appending in place would overwrite frames a poller may still be
		// encoding outside the lock.
		f.dropped += int64(len(f.frames))
		f.frames = nil
		f.triples = 0
	}
	f.frames = append(f.frames, fr)
	f.triples += int64(len(fr.Add) + len(fr.Remove))
	f.latest = fr.Gen
	f.appends++
	for len(f.frames) > f.retain {
		// Evict by re-slicing only: a Window holds a subslice of this
		// buffer, so evicted elements must not be written to. The evicted
		// frame stays reachable through the backing array until append's
		// next reallocation (at most ~retain appends later), which bounds
		// the overhang at one retention window.
		f.triples -= int64(len(f.frames[0].Add) + len(f.frames[0].Remove))
		f.frames = f.frames[1:]
		f.dropped++
	}
	if !f.closed {
		close(f.wake)
		f.wake = make(chan struct{})
	}
}

// Window is one read of the feed from a caller's position.
type Window struct {
	// Frames is the retained frames above the caller's generation, in order,
	// up to the requested page size; empty when the caller is caught up.
	Frames []Frame
	// Latest is the newest published generation and Oldest the oldest frame
	// still retained (Latest+1 when none is).
	Latest, Oldest uint64
	// Gapped reports that the caller's position has fallen out of the
	// retained window — frames it needs were evicted — and it must
	// re-snapshot. Waiting cannot close a gap.
	Gapped bool
}

// Wait reads the feed from generation from: up to max frames above it
// (max <= 0 means no cap). When the caller is already caught up — zero
// frames, no gap — it parks for up to wait for the next append before
// answering, and answers early, still with zero frames, when ctx is done or
// the feed is closed. wait <= 0 never parks.
func (f *Feed) Wait(ctx context.Context, from uint64, wait time.Duration, max int) Window {
	var expired <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		// The read and the wake channel come from one critical section, so
		// an append after this read closes the channel the select below
		// waits on: no append can fall unobserved between the two.
		f.mu.Lock()
		win := Window{Latest: f.latest, Oldest: f.oldestLocked()}
		switch {
		case from+1 < win.Oldest:
			win.Gapped = true
		case from < win.Latest:
			// frames[0] has generation Oldest; the first frame the caller
			// needs has generation from+1.
			win.Frames = f.frames[from+1-win.Oldest:]
			if max > 0 && len(win.Frames) > max {
				win.Frames = win.Frames[:max]
			}
		}
		wake, closed := f.wake, f.closed
		f.mu.Unlock()
		if win.Gapped || len(win.Frames) > 0 || wait <= 0 || closed {
			return win
		}
		select {
		case <-wake:
		case <-expired:
			wait = 0 // one last read, so a frame that raced the timer is not missed
		case <-ctx.Done():
			return win
		}
	}
}

// Close ends every parked long poll and keeps later ones from parking: from
// now on Wait answers at once. A server calls it when its shutdown begins —
// a poll held open for its full wait would outlast the shutdown's grace
// period — and the replicas, answered zero frames and then refused, reconnect
// with backoff. Appends and reads still work; Close is idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		close(f.wake)
	}
}

// oldestLocked returns the oldest retained frame generation, or latest+1
// when nothing is retained. Callers hold f.mu.
func (f *Feed) oldestLocked() uint64 {
	if len(f.frames) == 0 {
		return f.latest + 1
	}
	return f.frames[0].Gen
}

// ServeSnapshot returns the GET /repl/snapshot handler over snapshot, the
// primary reasoner's SnapshotBase: the asserted base store in
// Store.Snapshot's sorted ndjson form, with the generation it is exactly
// consistent with in the X-Repl-Generation header and the feed epoch the
// generation belongs to in X-Repl-Epoch. The snapshot is staged into memory
// under the reasoner's write lock (so no mutation can slip between the bytes
// and the generation) and then streamed outside it, so a slow replica never
// blocks the primary's mutation path — the same never-block rule the
// retention buffer follows.
func (f *Feed) ServeSnapshot(snapshot func(io.Writer) (gen uint64, n int, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		gen, n, err := snapshot(&buf)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "snapshotting the base store: %v", err)
			return
		}
		w.Header().Set("Content-Type", ndjsonType)
		w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
		w.Header().Set(TriplesHeader, strconv.Itoa(n))
		w.Header().Set(EpochHeader, f.epoch)
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		_, _ = w.Write(buf.Bytes())
	}
}

// ServeDeltas is GET /repl/deltas?from=G: the delta frames with generations
// above G, one JSON object per line, closed by a trailer line, with the feed
// epoch in X-Repl-Epoch so a replica can tell this history from a previous
// boot's. &wait long-polls up to maxPollWait when the caller is already
// caught up; &max caps the frames per response at up to maxFrames. 410 Gone
// says G has fallen out of the retained window and the caller must
// re-snapshot.
func (f *Feed) ServeDeltas(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "from must be a generation number: %v", err)
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		if wait, err = time.ParseDuration(ws); err != nil {
			writeError(w, http.StatusBadRequest, "wait must be a duration: %v", err)
			return
		}
		wait = min(wait, maxPollWait)
	}
	page := maxFrames
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m < 1 {
			writeError(w, http.StatusBadRequest, "max must be a positive frame count")
			return
		}
		page = min(m, maxFrames)
	}
	win := f.Wait(r.Context(), from, wait, page)
	if win.Gapped {
		writeError(w, http.StatusGone,
			"generation %d has fallen out of the retained delta window (oldest retained is %d); fetch a fresh /repl/snapshot",
			from, win.Oldest)
		return
	}
	w.Header().Set("Content-Type", ndjsonType)
	w.Header().Set(EpochHeader, f.epoch)
	win.encode(w)
}

// writeError sends the serving layer's JSON error body with the given status.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// FeedStats is the feed's observable state, reported under /stats and as
// /metrics gauges on a primary.
type FeedStats struct {
	// Epoch identifies this feed's lifetime; it changes when the primary
	// restarts, which is what tells replicas their generation chain died.
	Epoch string `json:"epoch"`
	// Latest is the newest published generation; Oldest the oldest frame
	// still retained (Latest+1 when none is).
	Latest uint64 `json:"latest_generation"`
	Oldest uint64 `json:"oldest_generation"`
	// Frames and Triples size the retained window; Retain is its cap in
	// frames, the constant retainFrames.
	Frames  int   `json:"frames"`
	Triples int64 `json:"triples"`
	Retain  int   `json:"retain"`
	// Appends counts frames ever published; Dropped counts frames evicted
	// from retention (Appends - Dropped - Frames is always 0).
	Appends int64 `json:"appends"`
	Dropped int64 `json:"dropped"`
}

// Stats snapshots the feed's counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedStats{
		Epoch:   f.epoch,
		Latest:  f.latest,
		Oldest:  f.oldestLocked(),
		Frames:  len(f.frames),
		Triples: f.triples,
		Retain:  f.retain,
		Appends: f.appends,
		Dropped: f.dropped,
	}
}

// RegisterMetrics exposes the feed's window and counters on reg.
func (f *Feed) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("onto_repl_feed_latest_generation",
		"Newest generation published on the delta feed.",
		func() float64 { return float64(f.Stats().Latest) })
	reg.GaugeFunc("onto_repl_feed_frames",
		"Delta frames currently retained for replica catch-up.",
		func() float64 { return float64(f.Stats().Frames) })
	reg.CounterFunc("onto_repl_feed_appends_total",
		"Delta frames ever published on the feed.",
		func() float64 { return float64(f.Stats().Appends) })
	reg.CounterFunc("onto_repl_feed_dropped_total",
		"Delta frames evicted from retention (replicas behind them must re-snapshot).",
		func() float64 { return float64(f.Stats().Dropped) })
}
