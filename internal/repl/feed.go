package repl

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/store"
)

// LogServer is the primary's half of the protocol: the two handlers that
// serve a durable engine's log and snapshot (durable.Engine.ReadLog and
// Snapshot) over HTTP. It keeps no state of its own beyond the shutdown
// signal: the log is the feed. A poll reads what it serves off the disk, and
// a caught-up one parks on the engine's next commit, so a slow, stalled or
// dead replica never holds up the primary's write path. Safe for concurrent
// use.
type LogServer struct {
	eng *durable.Engine

	closeOnce sync.Once
	closed    chan struct{} // closed by Close: parked polls answer at once
}

// NewLogServer serves eng's log.
func NewLogServer(eng *durable.Engine) *LogServer {
	return &LogServer{eng: eng, closed: make(chan struct{})}
}

// Close ends every parked long poll and keeps later ones from parking. A
// server calls it when its shutdown begins — a poll held open for its full
// wait would outlast the shutdown's grace period — and the replicas,
// answered nothing new and then refused, reconnect with backoff. Idempotent.
func (l *LogServer) Close() { l.closeOnce.Do(func() { close(l.closed) }) }

// setPosition writes a position's two headers.
func setPosition(h http.Header, at store.Position) {
	h.Set(GenerationHeader, strconv.FormatUint(at.Gen, 10))
	h.Set(DigestHeader, at.Digest.String())
}

// ServeSnapshot is GET /repl/snapshot: the engine's snapshot segment, its
// stamp in the position headers. The segment is built in memory under the
// engine's checkpoint lock and streamed after it is released, so a slow
// replica holds up no checkpoint.
func (l *LogServer) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	data, at, err := l.eng.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshotting the log: %v", err)
		return
	}
	w.Header().Set("Content-Type", binaryType)
	setPosition(w.Header(), at)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// ServeDeltas is GET /repl/deltas?from=G&digest=D: the committed records
// after the write that left (G, D), with the latest committed position in
// the headers. &wait long-polls up to maxPollWait when the caller is caught
// up; &max caps the writes per response at up to maxWrites. 410 Gone says
// (G, D) is not on the live log and the caller must re-snapshot.
func (l *LogServer) ServeDeltas(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var from store.Position
	var err error
	if from.Gen, err = strconv.ParseUint(q.Get("from"), 10, 64); err != nil {
		writeError(w, http.StatusBadRequest, "from must be a generation number: %v", err)
		return
	}
	if from.Digest, err = store.ParseDigest(q.Get("digest")); err != nil {
		writeError(w, http.StatusBadRequest, "digest must be the 32 hex digits of a position's digest: %v", err)
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
	page := maxWrites
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m < 1 {
			writeError(w, http.StatusBadRequest, "max must be a positive write count")
			return
		}
		page = min(m, maxWrites)
	}
	var expired <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		// The wake channel is taken before the read, so a commit after the
		// read closes the channel the select below waits on.
		wake := l.eng.CommitWake()
		body, latest, err := l.eng.ReadLog(from, page)
		switch {
		case errors.Is(err, durable.ErrGone):
			writeError(w, http.StatusGone,
				"position (%d, %v) is not on the primary's live log (it was checkpointed, or belongs to another history); fetch a fresh %s",
				from.Gen, from.Digest, SnapshotPath)
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if len(body) == 0 && wait > 0 {
			select {
			case <-wake:
				continue
			case <-expired:
				wait = 0 // one last read, so a commit that raced the timer is not missed
				continue
			case <-r.Context().Done():
			case <-l.closed:
			}
		}
		w.Header().Set("Content-Type", binaryType)
		setPosition(w.Header(), latest)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
		return
	}
}

// FeedStats is the log's replication window, reported under /stats on a
// durable primary.
type FeedStats struct {
	// Latest is the generation of the latest committed write; Oldest the
	// generation of the chain's stamp, the oldest position a replica can
	// resume from without a snapshot.
	Latest uint64 `json:"latest_generation"`
	Oldest uint64 `json:"oldest_generation"`
}

// Stats reads the log's window.
func (l *LogServer) Stats() FeedStats {
	oldest, latest := l.eng.LogBounds()
	return FeedStats{Latest: latest.Gen, Oldest: oldest.Gen}
}

// RegisterMetrics exposes the log's latest committed generation on reg.
func (l *LogServer) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("onto_repl_feed_latest_generation",
		"Generation of the latest committed write a replica can be served.",
		func() float64 { return float64(l.Stats().Latest) })
}
