package server

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file wires the serving layer onto the obs registry: traffic counters
// and latency histograms for every endpoint, scrape-time gauges over the
// store/cache/reasoner state the server already tracks, the request-ID
// middleware, and the slow-query log. GET /stats and GET /metrics read the
// same underlying counters, so the two surfaces cannot drift.

// registerMetrics registers every server-layer instrument on reg. Called
// once from New, before the server accepts any request.
func (s *Server) registerMetrics(reg *obs.Registry) {
	// Traffic counters are CounterFuncs over the atomics /stats already
	// reports: one source of truth, two exposition formats.
	reg.CounterFunc("onto_queries_total",
		"POST /query requests accepted since start.",
		func() float64 { return float64(s.queries.Load()) })
	reg.CounterFunc("onto_mutations_total",
		"POST /triples requests accepted since start.",
		func() float64 { return float64(s.mutations.Load()) })
	reg.GaugeFunc("onto_uptime_seconds",
		"Seconds since the server was created.",
		func() float64 { return time.Since(s.start).Seconds() })

	s.httpRequests = reg.CounterVec("onto_http_requests_total",
		"HTTP responses by handler path and status code.",
		"handler", "code")

	s.cache.registerMetrics(reg)
	s.reasoner.RegisterMetrics(reg)
	s.registerReplMetrics(reg)
	reg.RegisterRuntime()

	// Store-level gauges: sizes the scrape reads straight off the engine.
	base := s.reasoner.Base()
	reg.GaugeFunc("onto_store_triples",
		"Triples in the asserted store.",
		func() float64 { return float64(base.Len()) })
	reg.GaugeFunc("onto_store_inferred_triples",
		"Inferred triples the view serves: the overlay's, the instance types answered from the subClassOf closure and the super-property triples answered from the subPropertyOf closure.",
		func() float64 { return float64(s.reasoner.InferredCount()) })
	reg.GaugeFunc("onto_store_dict_symbols",
		"Interned symbols in the asserted store's dictionary.",
		func() float64 { return float64(base.DictLen()) })
}

// registerMetrics exposes the cache's counters (the same atomics
// CacheStats reports) and occupancy gauges on reg.
func (c *resultCache) registerMetrics(reg *obs.Registry) {
	reg.CounterFunc("onto_cache_hits_total",
		"Query-result cache lookups that replayed a cached response.",
		func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("onto_cache_misses_total",
		"Query-result cache lookups that fell through to evaluation.",
		func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("onto_cache_invalidations_total",
		"Cached results dropped by mutation deltas.",
		func() float64 { return float64(c.invalidations.Load()) })
	reg.GaugeFunc("onto_cache_entries",
		"Query results currently cached.",
		func() float64 { return float64(c.stats().Entries) })
	reg.GaugeFunc("onto_cache_bytes",
		"Retained bytes of cached query results.",
		func() float64 { return float64(c.stats().Bytes) })
}

// timing is a route's latency histograms: the total and one
// onto_stage_seconds series per stage the route marks, plus other, observed
// off one reading of the clock so the stages' sums add up to the total's.
type timing struct {
	total  *obs.Histogram
	stages [obs.NumStages]*obs.Histogram
}

func (s *Server) timing(name, help, handler string, stages ...obs.Stage) *timing {
	t := &timing{total: s.reg.Histogram(name, help, obs.LatencyBuckets())}
	for _, st := range append(stages, obs.StageOther) {
		t.stages[st] = s.reg.Histogram("onto_stage_seconds", "Handler latency in seconds by stage; a handler's stages sum to its total.",
			obs.LatencyBuckets(), obs.L("handler", handler), obs.L("stage", st.String()))
	}
	return t
}

// observe records one request's clock; the nil timing observes nothing.
func (t *timing) observe(c *obs.Clock) {
	if t != nil {
		ns, total := c.Read()
		t.total.Observe(float64(total) / 1e9)
		for st, h := range t.stages {
			h.Observe(float64(ns[st]) / 1e9)
		}
	}
}

// requestIDHeader is the header prologue reads (client-supplied ids
// are propagated) and always writes on the response.
const requestIDHeader = "X-Request-Id"

// nextRequestID mints a request id unique within and across this server's
// restarts: the start time in hex plus a process-local sequence number.
func (s *Server) nextRequestID() string {
	return s.ridPrefix + "-" + strconv.FormatInt(s.ridSeq.Add(1), 10)
}

// slowQueryLog appends one ndjson record per query slower than the
// threshold. A mutex serializes writers so concurrent slow queries never
// interleave bytes; the log is off the hot path by construction (only
// already-slow queries reach the lock).
type slowQueryLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

// slowQueryRecord is one slow-query log line.
type slowQueryRecord struct {
	// TS is the completion time, RFC 3339 with nanoseconds, UTC.
	TS string `json:"ts"`
	// RequestID ties the line to the response's X-Request-Id header.
	RequestID string `json:"request_id"`
	// BGP is the canonicalized pattern text (query.Canonical), so respellings
	// of one query aggregate under one string.
	BGP string `json:"bgp"`
	// Mode is the evaluation mode after defaulting.
	Mode string `json:"mode"`
	// Explain marks EXPLAIN runs (drained, not streamed).
	Explain bool `json:"explain,omitempty"`
	// Solutions, Truncated and Cached mirror the response trailer.
	Solutions int  `json:"solutions"`
	Truncated bool `json:"truncated,omitempty"`
	Cached    bool `json:"cached,omitempty"`
	// ElapsedUS is the handler's wall time in µs; StagesUS is stageSplit.
	ElapsedUS int64            `json:"elapsed_us"`
	StagesUS  map[string]int64 `json:"stages_us"`
	// Error is the trailer error, when evaluation ended early.
	Error string `json:"error,omitempty"`
}

// newSlowQueryLog builds a log writing to w (nil means os.Stderr); a nil
// *slowQueryLog (threshold unset) disables logging entirely.
func newSlowQueryLog(threshold time.Duration, w io.Writer) *slowQueryLog {
	if threshold <= 0 {
		return nil
	}
	if w == nil {
		w = os.Stderr
	}
	return &slowQueryLog{threshold: threshold, w: w}
}

// observe writes rec, with bgp as its BGP, if the clock has crossed the
// threshold: only then is bgp made a string. Nil-safe.
func (l *slowQueryLog) observe(c *obs.Clock, bgp []byte, rec slowQueryRecord) {
	if l == nil {
		return
	}
	if _, total := c.Read(); time.Duration(total) < l.threshold {
		return
	}
	rec.TS = time.Now().UTC().Format(time.RFC3339Nano)
	rec.BGP = string(bgp)
	rec.StagesUS = stageSplit(c, time.Microsecond)
	rec.ElapsedUS = rec.StagesUS["total"]
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(line)
}

// readStages are the stages a /query marks.
var readStages = []obs.Stage{obs.StageDecode, obs.StageLookup, obs.StagePlan, obs.StageExec, obs.StageEncode}

// stageSplit is a /query clock's reading in units of unit: the read stages,
// "other" and "total" (exactly their sum in ns; each truncated otherwise).
func stageSplit(c *obs.Clock, unit time.Duration) map[string]int64 {
	ns, total := c.Read()
	m := make(map[string]int64, len(readStages)+2)
	for _, st := range append(readStages, obs.StageOther) {
		m[st.String()] = ns[st] / int64(unit)
	}
	m["total"] = total / int64(unit)
	return m
}
