package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/query/exec"
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
	// type-patterns through the ontology index at query time (requires
	// Config.Ontology).
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
	// ElapsedUS is the server-side evaluation time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Error is set when evaluation ended early (timeout, malformed BGP
	// discovered mid-stream); the rows already streamed are valid but the
	// result set is incomplete.
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

// EngineStats is the reasoning-engine block of StatsResponse.
type EngineStats struct {
	// Rounds is the number of semi-naive rounds run over the server's life.
	Rounds int `json:"rounds"`
	// Derived counts triples ever added to the inferred overlay.
	Derived int `json:"derived"`
	// Overdeleted and Rederived count delete-and-rederive traffic.
	Overdeleted int `json:"overdeleted"`
	Rederived   int `json:"rederived"`
	// Generation counts content-changing writes: it advances once per delta
	// notification, so caches and replicas can detect staleness with one
	// comparison.
	Generation uint64 `json:"generation"`
	// MaterializeSeconds is the wall time of the initial materialization —
	// the boot fixpoint.
	MaterializeSeconds float64 `json:"materialize_seconds"`
}

// DurabilityStats is the durability block of StatsResponse, present only on
// servers running with a durable engine. It is the wire form of
// durable.Stats.
type DurabilityStats struct {
	// Seq is the sequence number of the last journaled WAL record.
	Seq uint64 `json:"seq"`
	// DurableSeq is the highest seq known fsynced; under fsync=always the
	// two track each other, under fsync=batch the gap is the exposure
	// window.
	DurableSeq uint64 `json:"durable_seq"`
	// LastFsyncAgoMS is how many milliseconds ago the log last reached
	// stable storage.
	LastFsyncAgoMS int64 `json:"last_fsync_ago_ms"`
	// Fsyncs counts fsync syscalls on the log — under group commit, usually
	// far fewer than mutations.
	Fsyncs int64 `json:"fsyncs"`
	// WALBytes is the log growth since the last checkpoint.
	WALBytes int64 `json:"wal_bytes"`
	// Segments is the number of live segment files — the tiers of the
	// generational chain (0 before the first checkpoint).
	Segments int `json:"segments"`
	// SegmentSeq is the WAL seq the newest segment covers through.
	SegmentSeq uint64 `json:"segment_seq"`
	// SegmentTiers describes each live segment oldest-first: its WAL seq
	// window, net triples and tombstones, dictionary names, and file bytes.
	SegmentTiers []TierStats `json:"segment_tiers,omitempty"`
	// Checkpoints counts completed checkpoints since the server started.
	Checkpoints int64 `json:"checkpoints"`
	// Merges counts completed background tier merges since the server
	// started; LastMergeMS is the wall time of the most recent one.
	Merges      int64 `json:"merges"`
	LastMergeMS int64 `json:"last_merge_ms"`
	// WriteAmplification is (log appends + checkpoint dumps + merge
	// rewrites) / log appends — physical bytes written per logical log
	// byte this process. 0 until something has been appended.
	WriteAmplification float64 `json:"write_amplification"`
	// RecoverySeconds is how long boot recovery spent rebuilding the store
	// (segment fold + bulk restore + WAL tail replay).
	RecoverySeconds float64 `json:"recovery_seconds"`
	// Error is the engine's sticky error; once set, mutations fail with 500
	// and the process needs a restart (and recovery) to trust its log.
	Error string `json:"error,omitempty"`
}

// TierStats is one live segment of the durability chain, as reported in
// DurabilityStats.SegmentTiers.
type TierStats struct {
	// Start and End are the WAL seq window the segment folds.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Triples and Tombstones are the segment's net adds and removes;
	// the base tier (start 1) never carries tombstones.
	Triples    int `json:"triples"`
	Tombstones int `json:"tombstones"`
	// Bytes is the segment's file size.
	Bytes int64 `json:"bytes"`
}

// durabilityStats converts the engine's report to the wire form.
func durabilityStats(eng DurabilityEngine) *DurabilityStats {
	d := eng.Stats()
	tiers := make([]TierStats, 0, len(d.Tiers))
	for _, t := range d.Tiers {
		tiers = append(tiers, TierStats{
			Start:      t.Start,
			End:        t.End,
			Triples:    t.Triples,
			Tombstones: t.Tombstones,
			Bytes:      t.Bytes,
		})
	}
	return &DurabilityStats{
		Seq:                d.Seq,
		DurableSeq:         d.DurableSeq,
		LastFsyncAgoMS:     time.Since(d.LastFsync).Milliseconds(),
		Fsyncs:             d.Fsyncs,
		WALBytes:           d.WALBytes,
		Segments:           d.Segments,
		SegmentSeq:         d.SegmentSeq,
		SegmentTiers:       tiers,
		Checkpoints:        d.Checkpoints,
		Merges:             d.Merges,
		LastMergeMS:        d.LastMergeDuration.Milliseconds(),
		WriteAmplification: d.WriteAmplification,
		RecoverySeconds:    d.RecoverySeconds,
		Error:              d.Err,
	}
}

// CheckpointResponse is the body of a successful POST /checkpoint.
type CheckpointResponse struct {
	// Durability is the engine's state after the checkpoint.
	Durability *DurabilityStats `json:"durability"`
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
	// Durability is the durable engine's state; absent on servers running
	// purely in memory.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Replication is the node's replication role and state: the delta feed's
	// retention window on a primary, the catch-up status (applied
	// generation, lag, reconnects) on a replica.
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

// readBody decodes a size-capped JSON request body into v, rejecting
// unknown fields so typos fail loudly instead of silently selecting
// defaults. On failure it writes the error response itself — 413 for an
// oversized body (splitting the request could succeed), 400 for malformed
// JSON (retrying cannot) — and reports false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the server limit of %d bytes", mbe.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		}
		return false
	}
	return true
}

// handleQuery is POST /query: parse, consult the cache, evaluate, stream.
// With ?explain=1 it evaluates in EXPLAIN ANALYZE form instead (see
// explainQuery).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.queries.Add(1)
	hstart := time.Now()
	defer func() { s.m.querySeconds.Since(hstart) }()
	var req QueryRequest
	if !s.readBody(w, r, &req) {
		return
	}
	bgp, err := query.ParseBGP(req.BGP)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(bgp) > s.cfg.MaxPatterns {
		writeError(w, http.StatusBadRequest, "BGP has %d patterns, server limit is %d", len(bgp), s.cfg.MaxPatterns)
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > s.cfg.MaxSolutions {
		limit = s.cfg.MaxSolutions
	}

	var (
		src  query.Source
		opts []query.Option
		mode = req.Mode
	)
	switch mode {
	case "", ModeMaterialized:
		mode = ModeMaterialized
		src = s.reasoner.View()
		opts = append(opts, query.Materialized())
	case ModeExpand:
		if s.cfg.Ontology == nil {
			writeError(w, http.StatusBadRequest, "mode %q needs a server-side ontology index and none is configured", ModeExpand)
			return
		}
		src = s.reasoner.Base()
		opts = append(opts, query.Expand(s.cfg.Ontology))
	case ModePlain:
		src = s.reasoner.Base()
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want %q, %q or %q)", mode, ModeMaterialized, ModeExpand, ModePlain)
		return
	}

	if r.URL.Query().Get("explain") == "1" {
		s.explainQuery(w, r, src, bgp, opts, mode, limit, hstart)
		return
	}

	// The key carries the variable-name mapping next to the canonical form:
	// responses are replayed verbatim, so a hit must have asked for the same
	// variable names (pattern-reordered respellings share an entry; renamed
	// variables evaluate afresh rather than replay foreign names). Every
	// client-controlled component is length-prefixed — BGP terms may contain
	// any non-whitespace byte, so no separator byte is collision-safe on its
	// own; length prefixes make the key decoding (hence the key) unambiguous.
	ckey, cvars := query.CanonicalWithVars(bgp)
	var kb strings.Builder
	kb.WriteString(mode) // fixed vocabulary, no separator bytes
	kb.WriteByte('|')
	kb.WriteString(strconv.Itoa(limit))
	kb.WriteByte('|')
	kb.WriteString(strconv.Itoa(len(ckey)))
	kb.WriteByte('|')
	kb.WriteString(ckey)
	for _, v := range cvars {
		kb.WriteString(strconv.Itoa(len(v)))
		kb.WriteByte('|')
		kb.WriteString(v)
	}
	key := kb.String()
	if e := s.cache.get(key); e != nil {
		s.replay(w, e)
		s.slow.observe(time.Since(hstart), slowQueryRecord{
			RequestID: r.Header.Get(requestIDHeader),
			BGP:       ckey,
			Mode:      mode,
			Solutions: e.solutions,
			Truncated: e.truncated,
			Cached:    true,
		})
		return
	}
	// Read before evaluating: the result is cached only if the engine is
	// still at this generation when it is stored (see resultCache.put).
	gen := s.reasoner.Generation()

	start := time.Now()
	sols := query.Eval(src, bgp, append(opts, query.Interrupt(s.cancelled(r)))...)
	// Every early return below — limit met, client gone — hands the
	// operator tree's pooled buffers back; after a full drain it is a no-op.
	defer sols.Close()
	vars := sols.Vars()

	// The response is formatted into one pooled buffer — header line, then
	// rows straight from the evaluator's columnar batches by appending
	// precomputed `"var":"` fragments and JSON-escaped values; no Binding
	// map, no per-row json.Marshal, no per-row allocation — and written to
	// the client a chunk of flushEvery rows at a time. While the cache could
	// still accept the result the buffer keeps the body from its first byte
	// and becomes the cache entry with one exact-size copy; once it cannot
	// (caching disabled, or the body outgrew the budget put enforces) each
	// chunk is dropped as soon as it is sent, so a response's memory is
	// bounded by the cache budget plus one chunk however large the result.
	w.Header().Set("Content-Type", ndjsonType)
	out := newBodyWriter(w, s.cache)
	defer out.release()
	out.buf = appendHeader(out.buf, vars)
	res := sols.Resolver()
	frags := rowFragments(vars)

	n := 0
	truncated := false
	var sqErr string
	defer func() {
		s.slow.observe(time.Since(hstart), slowQueryRecord{
			RequestID: r.Header.Get(requestIDHeader),
			BGP:       ckey,
			Mode:      mode,
			Solutions: n,
			Truncated: truncated,
			Error:     sqErr,
		})
	}()
stream:
	for {
		sb, ok := sols.NextBatch()
		if !ok {
			break
		}
		for r := 0; r < sb.Len(); r++ {
			if len(vars) == 0 {
				out.buf = append(out.buf, emptyRowLine...)
			} else {
				for c := range vars {
					out.buf = append(out.buf, frags[c]...)
					out.buf = appendJSONString(out.buf, res.Name(sb.ID(c, r)))
				}
				out.buf = append(out.buf, rowTail...)
			}
			n++
			if n%flushEvery == 0 {
				if err := out.send(true); err != nil {
					return // client gone; nothing to cache (result may be incomplete)
				}
			}
			if n >= limit {
				// More rows in this batch, or another non-empty batch,
				// means the limit cut the stream short.
				truncated = r+1 < sb.Len()
				if !truncated {
					_, truncated = sols.NextBatch()
				}
				break stream
			}
		}
	}
	elapsed := time.Since(start)
	if err := sols.Err(); err != nil {
		_ = out.send(false)
		if n >= limit && errors.Is(err, query.ErrInterrupted) {
			// The limit-full result the client received is complete; only
			// the did-more-solutions-exist probe was cut short by the
			// deadline. Report truncation (the conservative unknown) and
			// skip caching rather than cache the guess.
			truncated = true
			writeTrailer(w, QueryTrailer{Done: true, Solutions: n, Truncated: true, ElapsedUS: elapsed.Microseconds()})
			return
		}
		msg := err.Error()
		if errors.Is(err, query.ErrInterrupted) {
			msg = fmt.Sprintf("query interrupted after %v (server timeout %v or client disconnect); partial results above", elapsed.Round(time.Millisecond), s.cfg.QueryTimeout)
		}
		sqErr = msg
		writeTrailer(w, QueryTrailer{Done: true, Solutions: n, ElapsedUS: elapsed.Microseconds(), Error: msg})
		return
	}

	if body := out.body(); body != nil {
		e := &cacheEntry{
			gen:       gen,
			body:      bytes.Clone(body),
			solutions: n,
			truncated: truncated,
			preds:     make([]string, 0, len(bgp)),
		}
		for _, p := range bgp {
			if p.Predicate.IsVar {
				e.anyPred = true
			} else {
				e.preds = append(e.preds, p.Predicate.Value)
			}
		}
		s.cache.put(key, e)
	}
	if out.send(false) != nil {
		return
	}
	writeTrailer(w, QueryTrailer{
		Done:      true,
		Solutions: n,
		Truncated: truncated,
		ElapsedUS: elapsed.Microseconds(),
	})
}

// cancelled builds the query.Interrupt hook of one evaluation: it reports
// true once Config.QueryTimeout has passed or the client has gone. The
// executor polls it once every few hundred steps, so comparing the clock
// there costs less than arming a timer (and a derived context) per query.
func (s *Server) cancelled(r *http.Request) func() bool {
	deadline := time.Now().Add(s.cfg.QueryTimeout)
	ctx := r.Context()
	return func() bool {
		return time.Now().After(deadline) || ctx.Err() != nil
	}
}

// maxPooledBody is the largest response scratch buffer kept for reuse; a
// bigger one (a result near the cache budget, a huge unlimited answer) is
// left to the garbage collector so that one outlier does not stay pinned in
// the pool.
const maxPooledBody = 256 << 10

// bodyPool recycles bodyWriter scratch buffers (pointers, so Put does not
// box a slice header).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// bodyWriter is the output side of one cache-miss /query: callers append
// response bytes to buf and call send at chunk boundaries.
type bodyWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	cache   *resultCache
	pooled  *[]byte
	// buf[sent:] is not yet written to the client. While retain is set,
	// buf[:sent] is everything written so far — the response body from its
	// first byte; once retain is cleared, sent bytes are dropped.
	buf    []byte
	sent   int
	retain bool
}

// newBodyWriter draws a scratch buffer from the pool; pair with release.
func newBodyWriter(w http.ResponseWriter, cache *resultCache) bodyWriter {
	pooled := bodyPool.Get().(*[]byte)
	flusher, _ := w.(http.Flusher)
	return bodyWriter{w: w, flusher: flusher, cache: cache, pooled: pooled, buf: (*pooled)[:0], retain: true}
}

// send writes the unsent bytes to the client, flushing the connection when
// asked, and stops retaining the body once the cache could no longer accept
// it.
func (bw *bodyWriter) send(flush bool) error {
	if bw.sent < len(bw.buf) {
		if _, err := bw.w.Write(bw.buf[bw.sent:]); err != nil {
			return err
		}
	}
	if flush && bw.flusher != nil {
		bw.flusher.Flush()
	}
	if bw.body() != nil {
		bw.sent = len(bw.buf)
	} else {
		bw.buf, bw.sent = bw.buf[:0], 0
	}
	return nil
}

// body returns the whole response body appended so far (sent or not), or nil
// once it is not retained: from the first time it is found too big for the
// cache (or the cache disabled), for good.
func (bw *bodyWriter) body() []byte {
	bw.retain = bw.retain && bw.cache.accepts(int64(len(bw.buf)))
	if !bw.retain {
		return nil
	}
	return bw.buf
}

// release returns the scratch buffer to the pool unless it grew past
// maxPooledBody.
func (bw *bodyWriter) release() {
	if cap(bw.buf) <= maxPooledBody {
		*bw.pooled = bw.buf[:0]
		bodyPool.Put(bw.pooled)
	}
	bw.buf, bw.pooled = nil, nil
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
	// PoolGets and PoolPuts are the executor's buffer-pool round trips
	// observed across this evaluation. The counters are process-wide, so
	// the deltas are exact only when no other query ran concurrently.
	PoolGets int64 `json:"pool_gets"`
	PoolPuts int64 `json:"pool_puts"`
	// Error is set when evaluation ended early; the stats describe the
	// partial run.
	Error string `json:"error,omitempty"`
}

// explainQuery is the ?explain=1 arm of handleQuery: evaluate with a trace
// attached, drain (up to the limit) without marshaling rows, and return the
// annotated plan. Explain runs bypass the result cache in both directions —
// a replayed result has no execution to describe, and an explain run's
// drained rows are never cached.
func (s *Server) explainQuery(w http.ResponseWriter, r *http.Request, src query.Source, bgp query.BGP, opts []query.Option, mode string, limit int, hstart time.Time) {
	var tr query.Trace
	opts = append(opts, query.Interrupt(s.cancelled(r)), query.WithTrace(&tr))

	gets0, puts0 := exec.PoolCounters()
	start := time.Now()
	sols := query.Eval(src, bgp, opts...)
	n := 0
	truncated := false
	for {
		sb, ok := sols.NextBatch()
		if !ok {
			break
		}
		if n+sb.Len() >= limit {
			truncated = n+sb.Len() > limit
			n = limit
			if !truncated {
				_, truncated = sols.NextBatch()
			}
			break
		}
		n += sb.Len()
	}
	sols.Close() // a limit break leaves the tree live; counted in PoolPuts below
	elapsed := time.Since(start)
	gets1, puts1 := exec.PoolCounters()

	resp := ExplainResponse{
		Vars:      sols.Vars(),
		Mode:      mode,
		Plan:      tr,
		Solutions: n,
		Truncated: truncated,
		ElapsedUS: elapsed.Microseconds(),
		PoolGets:  gets1 - gets0,
		PoolPuts:  puts1 - puts0,
	}
	if err := sols.Err(); err != nil {
		resp.Error = err.Error()
	}
	writeJSON(w, resp)

	ckey, _ := query.CanonicalWithVars(bgp)
	s.slow.observe(time.Since(hstart), slowQueryRecord{
		RequestID: r.Header.Get(requestIDHeader),
		BGP:       ckey,
		Mode:      mode,
		Explain:   true,
		Solutions: n,
		Truncated: truncated,
		Error:     resp.Error,
	})
}

// flushEvery is how many streamed rows go between explicit flushes: often
// enough that slow consumers see progress, rarely enough that flushing does
// not dominate small-row serialization.
const flushEvery = 256

// appendHeader appends the QueryHeader line for vars, byte for byte what
// json.Marshal(QueryHeader{Vars: vars}) plus a newline would be.
func appendHeader(dst []byte, vars []string) []byte {
	dst = append(dst, `{"vars":`...)
	if vars == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = appendJSONString(dst, v)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// rowTail closes a streamed row line: the value's closing quote, the bind
// object, the row object, the newline.
var rowTail = []byte("\"}}\n")

// rowFragments precomputes the constant byte fragments of a QueryRow line
// for the given variables, so streaming a row is append-fragment,
// append-value repeated: frags[0] opens the line through the first
// variable's name, frags[i>0] closes the previous value and names the next.
// Variable names are JSON-escaped once here. The zero-variable case (the
// empty BGP) is handled by the caller.
func rowFragments(vars []string) [][]byte {
	frags := make([][]byte, len(vars))
	for i, v := range vars {
		var b []byte
		if i == 0 {
			b = append(b, `{"bind":{"`...)
		} else {
			b = append(b, `","`...)
		}
		b = appendJSONString(b, v)
		b = append(b, `":"`...)
		frags[i] = b
	}
	return frags
}

// emptyRowLine is the streamed form of the empty BGP's single solution.
var emptyRowLine = []byte(`{"bind":{}}` + "\n")

// appendJSONString appends s to dst with JSON string escaping. The fast path
// copies plain ASCII verbatim; anything needing escaping (control bytes,
// quotes, backslashes, non-ASCII, and the <, >, & that encoding/json
// HTML-escapes) takes the encoding/json slow path so the wire bytes stay
// identical to what json.Marshal would have produced.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b[1:len(b)-1]...)
		}
	}
	return append(dst, s...)
}

// replay writes a cached entry as a fresh response stream.
func (s *Server) replay(w http.ResponseWriter, e *cacheEntry) {
	w.Header().Set("Content-Type", ndjsonType)
	if _, err := w.Write(e.body); err != nil {
		return
	}
	writeTrailer(w, QueryTrailer{
		Done:      true,
		Solutions: e.solutions,
		Truncated: e.truncated,
		Cached:    true,
	})
}

// writeTrailer appends the final stream line.
func writeTrailer(w http.ResponseWriter, t QueryTrailer) {
	line, _ := json.Marshal(t)
	line = append(line, '\n')
	_, _ = w.Write(line)
}

// triplesOf converts a request's wire triples to the engine's.
func triplesOf(ts []TripleJSON) []store.Triple {
	out := make([]store.Triple, len(ts))
	for i, t := range ts {
		out[i] = store.Triple(t)
	}
	return out
}

// handleTriples is POST /triples: one request, one engine write
// (reason.Reasoner.Apply; DESIGN.md "The write path").
func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.rejectOnReplica(w) {
		return
	}
	s.mutations.Add(1)
	mstart := time.Now()
	defer func() { s.m.mutationSeconds.Since(mstart) }()
	var req MutateRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if n := len(req.Add) + len(req.Remove); n == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation: need add or remove triples")
		return
	} else if n > s.cfg.MaxMutations {
		writeError(w, http.StatusBadRequest, "batch of %d mutations exceeds the server limit of %d", n, s.cfg.MaxMutations)
		return
	}

	added, removed, err := s.reasoner.Apply(triplesOf(req.Add), triplesOf(req.Remove))
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
	writeJSON(w, MutateResponse{
		Added:    added,
		Removed:  removed,
		Asserted: s.reasoner.Base().Len(),
		Inferred: s.reasoner.InferredCount(),
	})
}

// handleStats is GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	es := s.reasoner.Stats()
	asserted := s.reasoner.Base().Len()
	inferred := s.reasoner.InferredCount()
	var dur *DurabilityStats
	if s.cfg.Durable != nil {
		dur = durabilityStats(s.cfg.Durable)
	}
	writeJSON(w, StatsResponse{
		Asserted: asserted,
		Inferred: inferred,
		Total:    asserted + inferred,
		Engine: EngineStats{
			Rounds:             es.Rounds,
			Derived:            es.Derived,
			Overdeleted:        es.Overdeleted,
			Rederived:          es.Rederived,
			Generation:         s.reasoner.Generation(),
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
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.rejectOnReplica(w) {
		return
	}
	if s.cfg.Durable == nil {
		writeError(w, http.StatusConflict, "this server runs purely in memory (no -data-dir); there is no log to checkpoint")
		return
	}
	if err := s.cfg.Durable.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint failed: %v", err)
		return
	}
	writeJSON(w, CheckpointResponse{Durability: durabilityStats(s.cfg.Durable)})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
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
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", ndjsonType)
	if r.URL.Query().Get("provenance") == "1" {
		_, _ = s.reasoner.View().SnapshotProvenance(w)
		return
	}
	_, _ = s.reasoner.View().Snapshot(w)
}
