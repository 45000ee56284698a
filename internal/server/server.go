// Package server is the HTTP/JSON serving layer over the materialized
// ontology store: it owns a reasoning engine (repro/internal/reason) kept at
// a fixpoint over a base store, and serves BGP queries, batched mutations,
// statistics and snapshots over plain HTTP. API.md at the repository root is
// the wire protocol with curl transcripts; DESIGN.md "The serving layer" and
// "The write path" are its design.
//
// The endpoints are
//
//	POST /query      — evaluate a BGP (query.ParseBGP text), stream solutions
//	POST /triples    — batched add/remove mutations, incrementally re-materialized
//	GET  /stats      — store, engine, cache, durability and traffic counters
//	GET  /metrics    — the same state as a Prometheus text scrape (repro/internal/obs)
//	GET  /healthz    — liveness probe
//	GET  /snapshot   — stream the materialized view as JSON lines
//	POST /checkpoint — compact the write-ahead log into a segment (durable servers)
//
// A primary with a data directory (Config.Durable) also serves its log as the
// replication feed (GET /repl/snapshot, GET /repl/deltas — see
// repro/internal/repl); a memory-only primary answers 404 there. A read
// replica (Config.Replica) rejects POST /triples and POST /checkpoint with 403
// naming the primary and reports its lag under /stats, /healthz and /metrics.
// POST /query?explain=1 returns the plan and per-operator statistics instead
// of solutions, and queries slower than Config.SlowQueryThreshold are
// appended to the slow-query log.
//
// Concurrency: a Server is safe for concurrent use. Queries read the view
// under its read-lock and never block each other; mutations serialize behind
// the reasoner's write lock, and cache invalidation runs inside the
// mutation's critical section, so a client that observes a mutation's
// response is never served a result cached before it.
//
// # Files
//
// server.go holds Config, New, the route table and prologue, Serve;
// wire.go the one request reader (readRequest) and the hand-appended response
// lines; query.go the five stages of POST /query, drain and EXPLAIN;
// handlers.go the request and response types and the other endpoints, POST
// /triples with its pooled triple slices among them; cache.go the result
// cache; metrics.go the traffic counters and the per-route timing; repl.go
// the role — which handlers to mount and which status to embed, nothing of
// the protocol.
//
// # Tests
//
// server_test.go drives every endpoint and the query → cached → mutate →
// invalidated cycle over a real listener; request_test.go walks the route
// table for 405s, pins the one-JSON-value body rule and a cached /query at 5
// allocations (TestCachedQueryAllocs); wire_test.go holds the reader to
// encoding/json (FuzzRequestBodies), the appended lines to json.Marshal, and
// the pooled triple slices to fresh ones (TestPooledTriplesDoNotLeakAcrossRequests);
// stream_test.go pins that a replay is byte-identical to its miss and that a
// large result streams before evaluation ends; cache_test.go the cache's
// budget, invalidation and generation check; concurrency_test.go races
// readers against a writer and requires every answer that names a generation
// to hold it (TestAnswerMatchesItsGeneration); obs_e2e_test.go reconciles the
// scrape, /stats, EXPLAIN and the slow-query log against exact traffic on a
// durable server (TestStageClockReconciles); status_golden_test.go pins the
// status bodies' keys; apidoc_test.go holds API.md's EXPLAIN transcript to
// the server's output; typing_test.go pins closed typing's 422s, a -rules
// body that keeps the propagated types stored, and a schema write dropping a
// cached type answer. BenchmarkServerQuery prices cached against uncached
// reads with parallel clients; BenchmarkObsOverhead the instruments.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/store"
)

// Config assembles a Server. Base is the only required field; the zero
// value of every limit picks the default documented on it.
type Config struct {
	// Base is the asserted corpus the server materializes and serves.
	// The server owns the store from New on: all writes must go through
	// POST /triples (or the Reasoner), never directly to Base.
	Base *store.Store
	// Rules is the Horn rule set forward-chained over Base; nil means
	// reason.RDFSRules().
	Rules []reason.Rule
	// Durable, when set, is the durability engine journaling Base (it must
	// already be attached via durable.Open before New is called). The server
	// reports its state in GET /stats, triggers checkpoints on POST
	// /checkpoint, and maps journal-commit failures on the mutation path to
	// server-side errors. The server does not own the engine: the caller
	// opens it before assembling the Config and closes it after shutdown.
	// Nil on an in-memory server. A write's durability failure reaches the
	// server as the write's own error, not from the engine.
	Durable *durable.Engine
	// QueryTimeout bounds one /query evaluation; past it the join is
	// interrupted and the response trailer carries the error. Default 5s.
	QueryTimeout time.Duration
	// MaxSolutions caps the solutions one /query may stream; results hitting
	// the cap are marked truncated. A request's limit can lower, never
	// raise, it. Default 100000.
	MaxSolutions int
	// CacheMaxBytes is the query-result cache's budget in retained response
	// bytes (capacity is accounted in bytes, not entries — one entry can
	// hold up to MaxSolutions marshaled rows), and the largest single result
	// the cache will hold; 0 picks the default (256 MiB), negative disables
	// caching.
	CacheMaxBytes int64
	// Metrics is the observability registry the server instruments itself
	// on; nil makes the server create its own. Pass a shared registry to
	// co-expose other layers' metrics (the durable engine's, via
	// durable.Options.Metrics) on this server's /metrics endpoint. The
	// server registers fixed metric names, so two Servers must not share
	// one registry.
	Metrics *obs.Registry
	// SlowQueryThreshold enables the slow-query log: every /query taking at
	// least this long is appended to SlowQueryLog as one JSON line
	// (slowQueryRecord). 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog is where slow-query records go; nil with a threshold set
	// means os.Stderr.
	SlowQueryLog io.Writer
	// Replica, when set, makes this server a read replica: POST /triples and
	// POST /checkpoint answer 403 naming the primary, the /repl feed
	// endpoints are not mounted (replicas do not chain), and the replication
	// block of /stats, /healthz and /metrics reports the replica's catch-up
	// status from this source. The caller boots the repl.Replica, passes its
	// Base store as Config.Base, and runs its feed loop against the returned
	// server's Reasoner.
	Replica ReplicaSource
}

// defaults the zero fields.
func (c *Config) defaults() {
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 5 * time.Second
	}
	if c.MaxSolutions == 0 {
		c.MaxSolutions = 100_000
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 256 << 20
	}
	if c.CacheMaxBytes < 0 {
		c.CacheMaxBytes = 0
	}
}

// Server serves the materialized ontology over HTTP. Create one with New;
// it is immutable after creation (all mutable state lives in the engine,
// the cache and atomic counters) and safe for concurrent use.
type Server struct {
	cfg      Config
	reasoner *reason.Reasoner
	cache    *resultCache
	log      *repl.LogServer // the /repl endpoints over the durable log; nil on replicas and memory-only primaries
	routes   []route         // buildRoutes
	root     http.Handler    // the route mux
	start    time.Time

	queries   atomic.Int64
	mutations atomic.Int64

	reg          *obs.Registry
	slow         *slowQueryLog
	httpRequests *obs.CounterVec

	ridPrefix string // the start time in hex: request ids are unique across restarts
	ridSeq    atomic.Int64
}

// New materializes the base corpus to a fixpoint under the rule set and
// returns a Server ready to accept requests. The reasoner's event hook is
// claimed for cache invalidation — callers must
// not call SetOnEvent on the returned server's Reasoner — and every later
// write must flow through POST /triples or the Reasoner's own methods,
// never the base store directly.
func New(cfg Config) (*Server, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("server: Config.Base is required")
	}
	cfg.defaults()
	rules := cfg.Rules
	if rules == nil {
		rules = reason.RDFSRules()
	}
	r, err := reason.MaterializeServing(cfg.Base, rules)
	if err != nil {
		return nil, fmt.Errorf("server: materializing the corpus: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		reasoner: r,
		cache:    newResultCache(cfg.CacheMaxBytes, r.Generation),
		start:    time.Now(),
		reg:      reg,
		slow:     newSlowQueryLog(cfg.SlowQueryThreshold, cfg.SlowQueryLog),
	}
	s.ridPrefix = strconv.FormatInt(s.start.UnixNano(), 16)
	if cfg.Replica == nil && cfg.Durable != nil {
		s.log = repl.NewLogServer(cfg.Durable)
	}
	// One event per content-changing write, inside its critical section: drop
	// the cached results it stales.
	res := r.View().NewResolver()
	r.SetOnEvent(func(d reason.Delta) { s.cache.invalidate(res, d.Added, d.Removed) })
	s.registerMetrics(reg)
	s.routes = s.buildRoutes()
	mux := http.NewServeMux()
	for _, rt := range s.routes {
		mux.Handle(rt.path, s.prologue(rt))
	}
	// Every other path is a 404 under handler "other": a bounded label space.
	mux.Handle("/", s.prologue(route{path: "other", handle: http.NotFound}))
	s.root = mux
	return s, nil
}

// route is one endpoint this server mounts.
type route struct {
	path   string
	method string // the one method the endpoint answers; anything else is a 405
	// primaryOnly marks the mutating endpoints: a replica refuses them with a
	// 403 naming the primary.
	primaryOnly bool
	handle      http.HandlerFunc
	timing      *timing // the route's latency histograms; nil on routes that keep none
}

// buildRoutes is the route table — the only list of the server's endpoints:
// New builds it once (it registers the histograms) and mounts it, prologue
// enforces its method and primaryOnly columns and observes its timing, and
// the per-handler request counter is labeled from its paths.
func (s *Server) buildRoutes() []route {
	rs := []route{
		{"/query", http.MethodPost, false, s.handleQuery, s.timing("onto_query_seconds",
			"POST /query handler latency in seconds (parse, cache lookup, evaluation and streaming).",
			"/query", readStages...)},
		{"/triples", http.MethodPost, true, s.handleTriples, s.timing("onto_mutation_seconds",
			"POST /triples handler latency in seconds (decode, apply, re-materialize).",
			"/triples", obs.StageDecode, obs.StagePropagate, obs.StageRetract, obs.StageCommit, obs.StagePublish, obs.StageRespond)},
		{"/stats", http.MethodGet, false, s.handleStats, nil},
		{"/healthz", http.MethodGet, false, s.handleHealthz, nil},
		{"/snapshot", http.MethodGet, false, s.handleSnapshot, nil},
		{"/checkpoint", http.MethodPost, true, s.handleCheckpoint, nil},
		{"/metrics", http.MethodGet, false, s.reg.Handler().ServeHTTP, nil},
	}
	if s.log != nil {
		rs = append(rs,
			route{repl.SnapshotPath, http.MethodGet, false, s.log.ServeSnapshot, nil},
			route{repl.DeltasPath, http.MethodGet, false, s.log.ServeDeltas, nil})
	}
	return rs
}

// exchange is one request as prologue sees it: the writer its handler
// writes through, the status it wrote, and its clock, pooled as one value.
type exchange struct {
	http.ResponseWriter
	code  int
	clock obs.Clock
}

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

func (x *exchange) WriteHeader(code int) {
	x.code = cmp.Or(x.code, code)
	x.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer; the streaming endpoints rely on it.
func (x *exchange) Flush() {
	if f, ok := x.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clockOf is the clock prologue started for w, or nil (times nothing).
func clockOf(w http.ResponseWriter) *obs.Clock {
	if x, ok := w.(*exchange); ok {
		return &x.clock
	}
	return nil
}

// prologue runs around every route's handler. It starts the request's clock,
// reads or mints the request id, answers a wrong method 405 with an Allow
// header (a route with no method takes any) and a primary-only route on a
// replica 403 naming the primary, and afterwards counts the response and,
// if the handler ran, observes the route's timing.
func (s *Server) prologue(rt route) http.Handler {
	var codes [1000]atomic.Pointer[obs.Counter] // request counters by status; net/http writes 100–999
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		x := exchangePool.Get().(*exchange)
		x.ResponseWriter, x.code = w, 0
		x.clock.Start()
		// One []string{rid} serves the request, where handlers read it back,
		// and the response: Header.Set would allocate a slice for each. A
		// client's id is cut to its first value at its own capacity, so an
		// Add to either header copies it.
		rid := r.Header[requestIDHeader]
		if len(rid) == 0 || rid[0] == "" {
			rid = []string{s.nextRequestID()}
			r.Header[requestIDHeader] = rid
		}
		w.Header()[requestIDHeader] = rid[:1:1]
		switch {
		case rt.method != "" && r.Method != rt.method:
			w.Header().Set("Allow", rt.method)
			writeError(x, http.StatusMethodNotAllowed, "%s only", rt.method)
		case rt.primaryOnly && s.cfg.Replica != nil:
			writeError(x, http.StatusForbidden,
				"this node is a read replica; send writes to the primary at %s",
				s.cfg.Replica.Status().Primary)
		default:
			rt.handle(x, r)
			rt.timing.observe(&x.clock)
		}
		code := cmp.Or(x.code, http.StatusOK)
		c := codes[code].Load()
		if c == nil {
			c = s.httpRequests.With(rt.path, strconv.Itoa(code))
			codes[code].Store(c)
		}
		c.Inc()
		x.ResponseWriter = nil
		exchangePool.Put(x)
	})
}

// Reasoner exposes the engine the server fronts, for in-process callers
// (tests, examples, a replica's feed loop) that want to inspect or mutate
// the corpus without going through HTTP. Do not call SetOnEvent on it —
// the server's cache invalidation owns that hook.
func (s *Server) Reasoner() *reason.Reasoner { return s.reasoner }

// Handler returns the http.Handler serving every endpoint (each behind its
// prologue: request id, clock and accounting), for mounting under a
// custom http.Server or hitting directly in tests and benchmarks.
func (s *Server) Handler() http.Handler { return s.root }

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: in-flight requests get up to shutdownGrace to finish before
// the server closes their connections. Request contexts deliberately do
// not derive from ctx — cancelling it stops the listener, it must not
// interrupt queries the grace period exists to let finish (a request's own
// context still cancels on client disconnect, as net/http always does). The
// one request that would never finish inside the grace period, a replica's
// parked /repl/deltas long poll, is ended when the shutdown begins: the log
// server is closed for good, so a Server is served once. It returns nil on a clean
// ctx-triggered shutdown and the listener's error otherwise.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.root,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.log != nil {
		hs.RegisterOnShutdown(s.log.Close)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
		<-errc // hs.Serve has returned http.ErrServerClosed
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// shutdownGrace is how long Serve's graceful shutdown waits for in-flight
// requests; it dominates the longest expected query (QueryTimeout's
// default) so a shutdown does not sever streams a timeout would have ended
// anyway.
const shutdownGrace = 10 * time.Second
