package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/store"
)

// This file is the server side of the replicated serving tier
// (repro/internal/repl): the primary's feed endpoints (GET /repl/snapshot,
// GET /repl/deltas) and the replication block both roles report under
// /stats, /healthz and /metrics (a replica's read-only mode is the route
// table's primaryOnly column, in server.go). The wire protocol lives in
// internal/repl; API.md's "Replication" section documents it with
// transcripts.

// ReplicaSource is the slice of *repl.Replica the server reads: replication
// status for /stats, /healthz and the /metrics gauges. A server configured
// with one is a read replica — it refuses the primary-only routes and does
// not serve the feed endpoints.
type ReplicaSource interface {
	Status() repl.Status
}

// Long-poll limits of the /repl/deltas handler.
const (
	// maxPollWait caps the &wait= a client may ask for, keeping poll
	// connections comfortably inside the graceful-shutdown window's order
	// of magnitude.
	maxPollWait = 30 * time.Second
	// maxDeltaFrames caps the &max= frames one response may carry (and is
	// the default when the client sends none).
	maxDeltaFrames = 4096
)

// setupReplication wires the server's replication role during New, after
// the reasoner exists and before the mux routes are registered: a primary
// gets a retention feed fed by the reasoner's event hook (alongside cache
// invalidation, which both roles need); a replica records its status
// source. Returns the event hook for installation.
func (s *Server) setupReplication(res store.Resolver) func(reason.Delta) {
	if s.cfg.Replica == nil && s.cfg.ReplRetain >= 0 {
		retain := s.cfg.ReplRetain
		if retain == 0 {
			retain = repl.DefaultRetain
		}
		s.feed = repl.NewFeed(retain)
	}
	feed := s.feed
	return func(d reason.Delta) {
		s.cache.invalidate(res, d.Added, d.Removed)
		if feed != nil {
			feed.Append(frameFor(res, d))
		}
	}
}

// frameFor converts one reasoner event to its wire frame: the asserted-side
// mutation resolved to names (dictionary ids are meaningless across
// processes; the replica re-derives the inferred overlay itself).
func frameFor(res store.Resolver, d reason.Delta) repl.Frame {
	named := func(ts []store.IDTriple) []repl.WireTriple {
		if len(ts) == 0 {
			return nil
		}
		out := make([]repl.WireTriple, len(ts))
		for i, t := range ts {
			out[i] = repl.WireTriple{S: res.Name(t.S), P: res.Name(t.P), O: res.Name(t.O)}
		}
		return out
	}
	return repl.Frame{Gen: d.Gen, Add: named(d.AssertedAdded), Remove: named(d.AssertedRemoved)}
}

// handleReplSnapshot is GET /repl/snapshot: the asserted base store in
// Store.Snapshot's sorted ndjson form, with the generation it is exactly
// consistent with in the X-Repl-Generation header and the feed epoch the
// generation belongs to in X-Repl-Epoch. The snapshot is staged
// into memory under the reasoner's write lock (so no mutation can slip
// between the bytes and the generation) and then streamed outside it, so a
// slow replica never blocks the primary's mutation path — the same
// never-block rule the feed's retention buffer follows.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	gen, n, err := s.reasoner.SnapshotBase(&buf)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshotting the base store: %v", err)
		return
	}
	w.Header().Set("Content-Type", ndjsonType)
	w.Header().Set(repl.GenerationHeader, strconv.FormatUint(gen, 10))
	w.Header().Set(repl.TriplesHeader, strconv.Itoa(n))
	w.Header().Set(repl.EpochHeader, s.feed.Epoch())
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// handleReplDeltas is GET /repl/deltas?from=G: the delta frames with
// generations above G, one JSON object per line, closed by a trailer line,
// with the feed epoch in X-Repl-Epoch so a replica can tell this history
// from a previous boot's. &wait long-polls up to maxPollWait when the
// caller is already caught up; &max caps the frames per response. 410 Gone
// says G has fallen out of the retained window and the caller must
// re-snapshot.
func (s *Server) handleReplDeltas(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "from must be a generation number: %v", err)
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil {
			writeError(w, http.StatusBadRequest, "wait must be a duration: %v", err)
			return
		}
		if wait > maxPollWait {
			wait = maxPollWait
		}
	}
	max := maxDeltaFrames
	if ms := q.Get("max"); ms != "" {
		m, err := strconv.Atoi(ms)
		if err != nil || m < 1 {
			writeError(w, http.StatusBadRequest, "max must be a positive frame count")
			return
		}
		if m < max {
			max = m
		}
	}

	frames, latest, oldest, gapped := s.feed.WaitSince(r.Context(), from, wait, max)
	if gapped {
		writeError(w, http.StatusGone,
			"generation %d has fallen out of the retained delta window (oldest retained is %d); fetch a fresh /repl/snapshot",
			from, oldest)
		return
	}
	w.Header().Set("Content-Type", ndjsonType)
	w.Header().Set(repl.EpochHeader, s.feed.Epoch())
	enc := json.NewEncoder(w) // Encode appends the newline: ndjson for free
	for _, fr := range frames {
		if err := enc.Encode(fr); err != nil {
			return // client gone mid-stream; it will re-poll from its applied generation
		}
	}
	_ = enc.Encode(repl.Trailer{Done: true, Gen: latest, Oldest: oldest})
}

// ReplicationStats is the replication block of StatsResponse and (on a
// replica) HealthResponse: the node's role plus the role-specific state —
// the retention feed's window on a primary, the catch-up status (applied
// generation, lag, reconnects) on a replica.
type ReplicationStats struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// Feed is the primary's delta-retention window; nil on a replica (and
	// on a primary configured with the feed disabled).
	Feed *repl.FeedStats `json:"feed,omitempty"`
	// Replica is the replica's catch-up status; nil on a primary.
	Replica *repl.Status `json:"replica,omitempty"`
}

// replicationStats builds the node's replication block.
func (s *Server) replicationStats() *ReplicationStats {
	if s.cfg.Replica != nil {
		st := s.cfg.Replica.Status()
		return &ReplicationStats{Role: "replica", Replica: &st}
	}
	rs := &ReplicationStats{Role: "primary"}
	if s.feed != nil {
		fs := s.feed.Stats()
		rs.Feed = &fs
	}
	return rs
}

// registerReplMetrics exposes the replication state as gauges, by role.
func (s *Server) registerReplMetrics(reg *obs.Registry) {
	role := "primary"
	if s.cfg.Replica != nil {
		role = "replica"
	}
	reg.GaugeFunc("onto_repl_role",
		"Replication role of this node (always 1; the role is the label).",
		func() float64 { return 1 },
		obs.L("role", role))
	if rep := s.cfg.Replica; rep != nil {
		reg.GaugeFunc("onto_repl_applied_generation",
			"Primary generation this replica has applied through.",
			func() float64 { return float64(rep.Status().AppliedGeneration) })
		reg.GaugeFunc("onto_repl_lag_generations",
			"Primary generations this replica has yet to apply (staleness bound).",
			func() float64 { return float64(rep.Status().Lag) })
		reg.GaugeFunc("onto_repl_connected",
			"1 when the replica's last feed poll succeeded, 0 while reconnecting.",
			func() float64 {
				if rep.Status().Connected {
					return 1
				}
				return 0
			})
		reg.CounterFunc("onto_repl_reconnects_total",
			"Feed connections that failed and were retried with backoff.",
			func() float64 { return float64(rep.Status().Reconnects) })
		reg.CounterFunc("onto_repl_resnapshots_total",
			"Full re-snapshot recoveries after falling out of the retained delta window.",
			func() float64 { return float64(rep.Status().Resnapshots) })
		return
	}
	if s.feed == nil {
		return
	}
	reg.GaugeFunc("onto_repl_feed_latest_generation",
		"Newest generation published on the delta feed.",
		func() float64 { return float64(s.feed.Stats().Latest) })
	reg.GaugeFunc("onto_repl_feed_frames",
		"Delta frames currently retained for replica catch-up.",
		func() float64 { return float64(s.feed.Stats().Frames) })
	reg.CounterFunc("onto_repl_feed_appends_total",
		"Delta frames ever published on the feed.",
		func() float64 { return float64(s.feed.Stats().Appends) })
	reg.CounterFunc("onto_repl_feed_dropped_total",
		"Delta frames evicted from retention (replicas behind them must re-snapshot).",
		func() float64 { return float64(s.feed.Stats().Dropped) })
}
