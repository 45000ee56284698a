package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/store"
)

// This file holds the wire protocol: the request/response JSON types of
// every endpoint and their handlers. API.md documents the same surface for
// HTTP clients, with curl transcripts; the two must be kept in sync.

// ndjsonType is the content type of the streamed endpoints (/query,
// /snapshot): one JSON object per line.
const ndjsonType = "application/x-ndjson"

// Query evaluation modes accepted by QueryRequest.Mode.
const (
	// ModeMaterialized (the default) evaluates over the asserted∪inferred
	// view; entailed triples are answered straight off the indexes.
	ModeMaterialized = "materialized"
	// ModeExpand evaluates over the asserted store only, rewriting
	// type-patterns at query time through the served schema: the
	// reasoner's subClassOf closure, current under schema writes.
	ModeExpand = "expand"
	// ModePlain evaluates over the asserted store with no expansion at all.
	ModePlain = "plain"
)

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// BGP is the textual basic graph pattern, in query.ParseBGP's format:
	// patterns separated by '.', terms whitespace-separated, ?name a
	// variable.
	BGP string `json:"bgp"`
	// Mode selects the evaluation route: ModeMaterialized (default),
	// ModeExpand or ModePlain.
	Mode string `json:"mode,omitempty"`
	// Limit caps the streamed solutions; 0 (and anything above the server's
	// MaxSolutions) means the server's MaxSolutions.
	Limit int `json:"limit,omitempty"`
}

// QueryHeader is the first line of a /query response stream.
type QueryHeader struct {
	// Vars is the BGP's variable names in order of first appearance; every
	// solution line binds exactly these.
	Vars []string `json:"vars"`
}

// QueryRow is one solution line of a /query response stream.
type QueryRow struct {
	// Bind maps each variable to its value.
	Bind map[string]string `json:"bind"`
}

// QueryTrailer is the last line of a /query response stream.
type QueryTrailer struct {
	// Done is always true; its presence distinguishes the trailer from rows.
	Done bool `json:"done"`
	// Solutions is how many rows were streamed before this trailer.
	Solutions int `json:"solutions"`
	// Truncated reports that the solution stream was cut at the limit.
	Truncated bool `json:"truncated"`
	// Cached reports that the rows were replayed from the result cache.
	Cached bool `json:"cached"`
	// ElapsedUS is the evaluation time in µs: plan + exec + encode to here.
	ElapsedUS int64 `json:"elapsed_us"`
	// Generation is the engine generation every row was read at; nil, and
	// omitted, when the evaluation overlapped a write that changed the
	// engine, so the rows need not belong to one generation.
	Generation *uint64 `json:"generation,omitempty"`
	// Error is set when evaluation ended early (timeout, malformed BGP
	// discovered mid-stream); the rows already streamed are valid but the
	// result set is incomplete.
	Error string `json:"error,omitempty"`
}

// ExplainResponse is the body of POST /query?explain=1: the planner's
// decision record and the executor's per-operator stats for one evaluation,
// in place of the solution stream (solutions are drained and counted, not
// returned — EXPLAIN ANALYZE, not EXPLAIN).
type ExplainResponse struct {
	// Vars is the BGP's variable names, as the QueryHeader would carry.
	Vars []string `json:"vars"`
	// Mode is the evaluation mode after defaulting.
	Mode string `json:"mode"`
	// Plan is the trace: candidate join orders with cost estimates, the
	// chosen order, and one level per operator in the right-deep chain
	// (levels[0] is the leaf scan, the last level the root) with its
	// estimated rows and measured batches/rows/probes/nanoseconds.
	Plan query.Trace `json:"plan"`
	// Solutions, Truncated and ElapsedUS mirror the QueryTrailer of the
	// evaluation the stats describe.
	Solutions int   `json:"solutions"`
	Truncated bool  `json:"truncated"`
	ElapsedUS int64 `json:"elapsed_us"`
	// Stages is the request's clock so far in ns; the rest sum to "total".
	Stages map[string]int64 `json:"stages"`
	// PoolGets and PoolPuts are the executor's buffer-pool round trips
	// observed across this evaluation. The counters are process-wide, so
	// the deltas are exact only when no other query ran concurrently.
	PoolGets int64 `json:"pool_gets"`
	PoolPuts int64 `json:"pool_puts"`
	// Error is set when evaluation ended early; the stats describe the
	// partial run.
	Error string `json:"error,omitempty"`
}

// TripleJSON is the wire form of one triple.
type TripleJSON struct {
	Subject   string `json:"subject"`
	Predicate string `json:"predicate"`
	Object    string `json:"object"`
}

// MutateRequest is the body of POST /triples: assertions and retractions
// applied as one write, adds first, incrementally re-materialized.
type MutateRequest struct {
	// Add is asserted through the engine's batch path (all-or-nothing
	// validation; duplicates are ignored).
	Add []TripleJSON `json:"add,omitempty"`
	// Remove is retracted by one delete-and-rederive pass after the adds;
	// absent triples count as not removed.
	Remove []TripleJSON `json:"remove,omitempty"`
}

// MutateResponse is the body of a successful POST /triples response.
type MutateResponse struct {
	// Added and Removed count the triples that actually changed the
	// asserted store (duplicates and absences excluded).
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// Asserted and Inferred are the store's sizes after the batch.
	Asserted int `json:"asserted"`
	Inferred int `json:"inferred"`
}

// EngineStats is the reasoning-engine block of StatsResponse: the reasoner's
// cumulative work counters (rounds, derived, overdeleted, rederived), then
// the two figures the reasoner reports beside them.
type EngineStats struct {
	reason.Stats
	// Generation counts content-changing writes: it advances once per delta
	// notification, so caches and replicas can detect staleness with one
	// comparison. Digest is the asserted store's digest read with it: the
	// pair is the store.Position that names this state.
	Generation uint64       `json:"generation"`
	Digest     store.Digest `json:"digest"`
	// MaterializeSeconds is the wall time of the initial materialization —
	// the boot fixpoint.
	MaterializeSeconds float64 `json:"materialize_seconds"`
}

// CheckpointResponse is the body of a successful POST /checkpoint.
type CheckpointResponse struct {
	// Durability is the engine's state after the checkpoint.
	Durability *durable.Stats `json:"durability"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	// Asserted, Inferred and Total are the materialized view's triple
	// counts (Total = Asserted + Inferred; the two never overlap).
	Asserted int `json:"asserted"`
	Inferred int `json:"inferred"`
	Total    int `json:"total"`
	// Engine is the reasoner's cumulative work counters.
	Engine EngineStats `json:"engine"`
	// Cache is the query-result cache's counters.
	Cache CacheStats `json:"cache"`
	// Durability is the durable engine's state (durable.Stats is its wire
	// form); absent on servers running purely in memory.
	Durability *durable.Stats `json:"durability,omitempty"`
	// Replication is the node's replication role and state: the log's
	// replication window on a durable primary, the catch-up status (applied
	// position, lag, reconnects) on a replica.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Queries and Mutations count requests served since start.
	Queries   int64 `json:"queries"`
	Mutations int64 `json:"mutations"`
	// UptimeMS is milliseconds since the server was created; UptimeSeconds
	// is the same duration in seconds, matching the onto_uptime_seconds
	// gauge on /metrics.
	UptimeMS      int64   `json:"uptime_ms"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" whenever the server answers at all.
	Status string `json:"status"`
	// Triples is the materialized view's current size, a cheap liveness
	// payload (O(1): the sum of the members' counters).
	Triples int `json:"triples"`
	// Replication is present on read replicas only: the catch-up status,
	// with lag_generations as the staleness bound, so load balancers can
	// eject nodes that have fallen too far behind their primary.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// writeError sends a JSON error with the given status.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeJSON sends a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleTriples is POST /triples: one request, one engine write
// (reason.Reasoner.Apply; DESIGN.md "The write path").
func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	s.mutations.Add(1)
	c := clockOf(w)
	tb := triplesPool.Get().(*tripleBuffers)
	adds, removes := tb.adds, tb.removes
	defer func() { tb.release(adds, removes) }()
	if !readRequest(w, r, s.reasoner.Base(), func(d *wireReader) error { return d.mutation(&adds, &removes) }) {
		return
	}
	if len(adds)+len(removes) == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation: need add or remove triples")
		return
	}
	c.Mark(obs.StageDecode)

	added, removed, err := s.reasoner.Apply(adds, removes, c)
	if errors.Is(err, store.ErrJournal) {
		// The write WAS applied in memory but its journal commit failed: the
		// client must not retry (the change is visible) and must not trust it
		// (it may not survive a crash). That is a server-side durability
		// fault, not a bad request.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err != nil {
		// Validation is all-or-nothing: nothing was applied.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeAppended(w, MutateResponse{
		Added:    added,
		Removed:  removed,
		Asserted: s.reasoner.Base().Len(),
		Inferred: s.reasoner.InferredCount(),
	}, appendMutateResponse)
	c.Mark(obs.StageRespond)
}

// maxPooledTriples is the most triples a pooled slice keeps room for: a
// store.Triple is three 16-byte string headers, so this is maxPooledBody's
// bound in triples.
const maxPooledTriples = maxPooledBody / 48

// triplesPool recycles the slices /triples decodes its adds and removes
// into. Nothing the engine keeps points at them (Apply encodes each triple
// into ids, and its errors format copies), so the next request may reuse
// them once the response is written.
var triplesPool = sync.Pool{New: func() any { return new(tripleBuffers) }}

// tripleBuffers is one /triples request's decode targets: empty slices
// whose whole capacity holds zero triples.
type tripleBuffers struct {
	adds, removes []store.Triple
}

// release returns the buffers to the pool, keeping for each side the larger
// of the pooled slice and the one the request decoded into (which may have
// grown past it, or been replaced by an empty or nil one).
func (tb *tripleBuffers) release(adds, removes []store.Triple) {
	tb.adds, tb.removes = reusable(tb.adds, adds), reusable(tb.removes, removes)
	triplesPool.Put(tb)
}

// reusable returns the larger of two slices cleared over its whole capacity
// and emptied, or nil when it is over maxPooledTriples. The decoder reuses
// elements in place within the capacity, as encoding/json does: without the
// clear, a triple that omits a field would inherit a previous request's.
func reusable(pooled, used []store.Triple) []store.Triple {
	if cap(used) > cap(pooled) {
		pooled = used
	}
	if cap(pooled) > maxPooledTriples {
		return nil
	}
	clear(pooled[:cap(pooled)])
	return pooled[:0]
}

// appendMutateResponse appends the /triples response body, byte for byte
// what writeJSON would send for m.
func appendMutateResponse(dst []byte, m MutateResponse) []byte {
	dst = append(dst, `{"added":`...)
	dst = strconv.AppendInt(dst, int64(m.Added), 10)
	dst = append(dst, `,"removed":`...)
	dst = strconv.AppendInt(dst, int64(m.Removed), 10)
	dst = append(dst, `,"asserted":`...)
	dst = strconv.AppendInt(dst, int64(m.Asserted), 10)
	dst = append(dst, `,"inferred":`...)
	dst = strconv.AppendInt(dst, int64(m.Inferred), 10)
	return append(dst, "}\n"...)
}

// handleStats is GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	asserted := s.reasoner.Base().Len()
	inferred := s.reasoner.InferredCount()
	var dur *durable.Stats
	if s.cfg.Durable != nil {
		st := s.cfg.Durable.Stats()
		dur = &st
	}
	at := s.reasoner.Base().Position()
	writeJSON(w, StatsResponse{
		Asserted: asserted,
		Inferred: inferred,
		Total:    asserted + inferred,
		Engine: EngineStats{
			Stats:              s.reasoner.Stats(),
			Generation:         at.Gen,
			Digest:             at.Digest,
			MaterializeSeconds: s.reasoner.MaterializeStats().Duration.Seconds(),
		},
		Cache:         s.cache.stats(),
		Durability:    dur,
		Replication:   s.replicationStats(),
		Queries:       s.queries.Load(),
		Mutations:     s.mutations.Load(),
		UptimeMS:      time.Since(s.start).Milliseconds(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleCheckpoint is POST /checkpoint: compact the write-ahead log into a
// segment right now, instead of waiting for the byte-budget trigger —
// operators call it before backups or planned restarts to minimize replay.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Durable == nil {
		writeError(w, http.StatusConflict, "this server runs purely in memory (no -data-dir); there is no log to checkpoint")
		return
	}
	if err := s.cfg.Durable.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint failed: %v", err)
		return
	}
	st := s.cfg.Durable.Stats()
	writeJSON(w, CheckpointResponse{Durability: &st})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{Status: "ok", Triples: s.reasoner.View().Len()}
	if s.cfg.Replica != nil {
		h.Replication = s.replicationStats()
	}
	writeJSON(w, h)
}

// handleSnapshot is GET /snapshot: stream the materialized view as JSON
// lines — the read-only snapshot handoff. With ?provenance=1 each line is a
// store.TaggedTriple ("asserted"/"inferred"); otherwise the plain
// store.Snapshot format store.Restore reads back. The stream is consistent
// against a quiescent engine; a snapshot overlapping a mutation may mix
// pre- and post-mutation triples (each triple is well-formed either way).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", ndjsonType)
	if r.URL.Query().Get("provenance") == "1" {
		_, _ = s.reasoner.View().SnapshotProvenance(w)
		return
	}
	_, _ = s.reasoner.View().Snapshot(w)
}
