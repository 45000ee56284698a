package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/server"
	"repro/internal/store"
)

// span is one timed call into a layer. Spans of one request share Op; the
// root span (Parent 0) is the request going through the server's handler,
// and its children are the same inputs pushed through each layer's public
// entry point in turn. Stages are re-executed beside the handler, not
// observed inside it, so a child's interval lies next to its parent's
// instead of in it — and whichever of the two runs second finds the
// processor's caches warmed by the first. Even ops therefore run the handler
// first and odd ops the stages first: summed over a run, parent and children
// have had the cold start equally often.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s *span) us() float64 { return float64(s.EndNS-s.StartNS) / 1000 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// open appends an unstarted span and returns its id (its index plus one).
func (t *tracer) open(op, parent int, name string) int {
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name})
	return len(t.spans)
}

func (t *tracer) start(id int) { t.spans[id-1].StartNS = int64(time.Since(t.t0)) }

// end closes span id and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return s.us()
}

func (t *tracer) write(path string) error {
	return writeJSONLines(path, func(enc *json.Encoder) error {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// recorder is the in-process http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// sums accumulates span time and op counts by name.
type sums struct {
	us map[string]float64
	n  map[string]float64
}

func (s *sums) add(name string, us float64) { s.us[name] += us }
func (s *sums) count(name string)           { s.n[name]++ }
func (s *sums) mean(name, per string) float64 {
	if s.n[per] == 0 {
		return 0
	}
	return s.us[name] / s.n[per]
}

// stack is the serving stack assembled in process from public API only,
// plus the memory-only and journal-only twins the write stages run on.
type stack struct {
	srv     *server.Server
	rec     recorder
	encoded bytes.Buffer     // receives the rows the encode stage formats
	twin    *reason.Reasoner // memory-only: reasoner work without a journal
	jst     *store.Store     // journaled, no reasoner: store write + log commit
	jeng    *durable.Engine
	mst     *store.Store // memory-only, no reasoner: store write alone
	trace   *tracer
	sums    sums
	orc     *oracle
}

func (s *stack) request(o *op) (*http.Request, error) {
	path := "/query"
	if !o.kind.isRead() {
		path = "/triples"
	}
	return http.NewRequest(http.MethodPost, path, bytes.NewReader(o.body))
}

// handle pushes one op through the server's handler and checks the answer.
func (s *stack) handle(o *op) (cached bool, err error) {
	req, err := s.request(o)
	if err != nil {
		return false, err
	}
	s.rec.reset()
	s.srv.Handler().ServeHTTP(&s.rec, req)
	return s.check(o)
}

func (s *stack) check(o *op) (cached bool, err error) {
	body := s.rec.body.Bytes()
	if s.rec.code != 0 && s.rec.code != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", s.rec.code, bytes.TrimSpace(body))
	}
	if o.kind.isRead() {
		w := s.orc.beginRead(o.key)
		t, err := parseQueryResponse(body)
		if err != nil {
			return false, err
		}
		return t.Cached, s.orc.endRead(w, o.limit, t.Solutions, t.Truncated)
	}
	var m mutateResponse
	if err := json.Unmarshal(body, &m); err != nil {
		return false, err
	}
	s.orc.beginWrite(o)
	return false, s.orc.endWrite(o, true, m.Added, m.Removed)
}

// stages is what one op's child spans measured.
type stages struct {
	us    map[string]float64 // span time by name
	eval  int                // reads: id of the first span past the cache lookup (plan, exec, encode)
	trace query.Trace        // reads: the executor's own counts
}

// stage times fn as a child span of root.
func (s *stack) stage(st *stages, i, root int, name string, fn func()) {
	id := s.trace.open(i, root, name)
	s.trace.start(id)
	fn()
	st.us[name] += s.trace.end(id)
}

// traceOp runs one op through the handler (the root span) and through the
// stages (its children), in the order the op's parity selects.
func (s *stack) traceOp(i int, o *op) error {
	req, err := s.request(o)
	if err != nil {
		return err
	}
	t := s.trace
	root := t.open(i, 0, "server.handle")
	runStages := s.readStages
	if !o.kind.isRead() {
		runStages = s.writeStages
	}
	var st *stages
	stagesFirst := i%2 == 1
	if stagesFirst {
		if st, err = runStages(i, root, o, true); err != nil {
			return err
		}
	}
	s.rec.reset()
	t.start(root)
	s.srv.Handler().ServeHTTP(&s.rec, req)
	rootUS := t.end(root)
	cached, err := s.check(o)
	if err != nil {
		return err
	}
	if !stagesFirst {
		if st, err = runStages(i, root, o, !cached); err != nil {
			return err
		}
	} else if cached {
		// The handler answered from its cache: the evaluation the stages
		// ran ahead of it has no counterpart in the root span.
		t.spans = t.spans[:st.eval-1]
		for _, name := range []string{"query.plan", "query.exec", "server.encode"} {
			delete(st.us, name)
		}
		st.trace = query.Trace{}
	}
	s.account(o, rootUS, cached, st)
	return nil
}

// account folds one op's spans into the run's sums.
func (s *stack) account(o *op, rootUS float64, cached bool, st *stages) {
	su := &s.sums
	su.count("op")
	su.add("root", rootUS)
	attributed := 0.0
	for name, us := range st.us {
		su.add(name, us)
		if name == "store.add_plain" || name == "store.remove_plain" {
			// A journaled store write minus a plain one is the log commit; the
			// in-memory write itself is already inside the twin reasoner's span.
			attributed -= us
		} else {
			attributed += us
		}
	}
	su.add("attributed", attributed)
	switch {
	case !o.kind.isRead():
		su.count("write")
		su.add("write", rootUS)
		if st.us["reason.add"] > 0 {
			su.count("add")
		}
		if st.us["reason.remove"] > 0 {
			su.count("remove")
		}
		su.add("commit", st.us["store.add_journaled"]+st.us["store.remove_journaled"]-st.us["store.add_plain"]-st.us["store.remove_plain"])
	case cached:
		su.count("read")
		su.count("hit")
		su.add("hit", rootUS)
	default:
		su.count("read")
		su.count("miss")
		su.add("miss", rootUS)
		su.add("server.self", rootUS-st.us["query.parse"]-st.us["query.canonical"]-st.us["query.plan"]-st.us["query.exec"])
		for l, lv := range st.trace.Levels {
			if l == 0 {
				su.add("store.leaf_scan", float64(lv.Stat.Nanos)/1000)
			}
			su.add("rows", float64(lv.Stat.Rows))
			su.add("probes", float64(lv.Stat.Probes))
			su.add("batches", float64(lv.Stat.Batches))
		}
	}
}

// decodeStrict decodes a request body the way the server's handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// readStages pushes a query's body through decode, parse and canonical key
// and, with eval, through plan, execution and row encoding as the handler's
// miss path does.
func (s *stack) readStages(i, root int, o *op, eval bool) (*stages, error) {
	st := &stages{us: map[string]float64{}}
	var (
		req server.QueryRequest
		bgp query.BGP
		err error
	)
	s.stage(st, i, root, "server.decode", func() { err = decodeStrict(o.body, &req) })
	if err != nil {
		return nil, err
	}
	s.stage(st, i, root, "query.parse", func() { bgp, err = query.ParseBGP(req.BGP) })
	if err != nil {
		return nil, err
	}
	s.stage(st, i, root, "query.canonical", func() { query.CanonicalWithVars(bgp) })
	st.eval = len(s.trace.spans) + 1
	if !eval {
		return st, nil
	}

	var sols *query.Solutions
	s.stage(st, i, root, "query.plan", func() {
		sols = query.Eval(s.srv.Reasoner().View(), bgp, query.Materialized(), query.WithTrace(&st.trace))
	})
	// The drain mirrors the handler's miss path: pull a batch, format each
	// row into a reused line, keep a copy for the cache entry, write the line
	// to the response; stop at the limit and probe once for truncation.
	limit := req.Limit
	if limit <= 0 {
		limit = 100_000 // the server's default MaxSolutions
	}
	vars := sols.Vars()
	frags := make([][]byte, len(vars))
	for c, v := range vars {
		frags[c] = []byte(`","` + v + `":"`)
	}
	res := sols.Resolver()
	var line []byte
	rows := make([][]byte, 0, 64)
	s.encoded.Reset()
	n := 0
	for {
		var sb query.SolutionBatch
		var ok bool
		s.stage(st, i, root, "query.exec", func() { sb, ok = sols.NextBatch() })
		if !ok {
			break
		}
		full, rest := false, false
		s.stage(st, i, root, "server.encode", func() {
			for r := 0; r < sb.Len(); r++ {
				line = append(line[:0], `{"bind":{`...)
				for c := range vars {
					line = append(line, frags[c]...)
					line = append(line, res.Name(sb.ID(c, r))...)
				}
				line = append(line, "\"}}\n"...)
				rows = append(rows, append([]byte(nil), line...))
				s.encoded.Write(line)
				if n++; n >= limit {
					full, rest = true, r+1 < sb.Len()
					return
				}
			}
		})
		if full {
			if !rest {
				s.stage(st, i, root, "query.exec", func() { sols.NextBatch() })
			}
			break
		}
	}
	return st, sols.Err()
}

// writeStages pushes a mutation's body through decode, then its triples
// through the memory-only reasoner (the reasoning and in-memory store work)
// and through a journaled and a plain store (whose difference is the log
// commit).
func (s *stack) writeStages(i, root int, o *op, _ bool) (*stages, error) {
	st := &stages{us: map[string]float64{}}
	var (
		req server.MutateRequest
		err error
	)
	s.stage(st, i, root, "server.decode", func() { err = decodeStrict(o.body, &req) })
	if err != nil {
		return nil, err
	}
	triples := func(ts []server.TripleJSON) []store.Triple {
		out := make([]store.Triple, len(ts))
		for k, t := range ts {
			out[k] = store.Triple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object}
		}
		return out
	}
	adds, removes := triples(req.Add), triples(req.Remove)
	if len(adds) > 0 {
		s.stage(st, i, root, "reason.add", func() { _, err = s.twin.AddBatch(adds) })
		if err != nil {
			return nil, err
		}
		s.stage(st, i, root, "store.add_journaled", func() { _, err = s.jst.AddBatch(adds) })
		if err != nil {
			return nil, err
		}
		s.stage(st, i, root, "store.add_plain", func() { _, err = s.mst.AddBatch(adds) })
		if err != nil {
			return nil, err
		}
	}
	if len(removes) > 0 {
		s.stage(st, i, root, "reason.remove", func() {
			for _, t := range removes {
				s.twin.Remove(t)
			}
		})
		s.stage(st, i, root, "store.remove_journaled", func() {
			for _, t := range removes {
				s.jst.Remove(t)
			}
		})
		s.stage(st, i, root, "store.remove_plain", func() {
			for _, t := range removes {
				s.mst.Remove(t)
			}
		})
	}
	return st, s.jeng.Err()
}

// tracedRun replays the head of the stream in process, with spans, and
// returns the per-layer times.
func (e *benchEnv) tracedRun(w *workloadDef, warm, stream []op, seed int64) (map[string]metric, error) {
	dir, err := os.MkdirTemp(e.tmp, "trace-")
	if err != nil {
		return nil, err
	}
	trackDir(dir)
	defer removeDir(dir)
	data := filepath.Join(dir, "data")
	if err := copyDir(filepath.Join(e.golden, "data"), data); err != nil {
		return nil, err
	}

	s := &stack{
		rec:   recorder{header: http.Header{}},
		trace: &tracer{},
		sums:  sums{us: map[string]float64{}, n: map[string]float64{}},
		orc:   newOracle(e.corpus),
	}
	reg := obs.NewRegistry()
	base := store.New()
	start := time.Now()
	eng, err := durable.Open(base, durable.Options{Dir: data, CheckpointBytes: int64(w.checkpointMiB) << 20, Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("durable.Open on a golden copy: %w", err)
	}
	recoverS := time.Since(start).Seconds()
	defer eng.Close()
	if own := eng.RecoveryDuration().Seconds(); recoverS > 1.5*own+0.05 {
		e.logf("%s: durable.Open took %.3fs but reports %.3fs of recovery", w.name, recoverS, own)
	}
	s.srv, err = server.New(server.Config{Base: base, Durable: eng, CacheMaxBytes: int64(w.cacheMiB) << 20, Metrics: reg})
	if err != nil {
		return nil, err
	}

	all := base.Triples()
	twinBase := store.New()
	start = time.Now()
	if _, err := twinBase.AddBatch(all); err != nil {
		return nil, err
	}
	ingestS := time.Since(start).Seconds()
	start = time.Now()
	if s.twin, err = reason.Materialize(twinBase, reason.RDFSRules()); err != nil {
		return nil, err
	}
	materializeS := time.Since(start).Seconds()

	s.jst, s.mst = store.New(), store.New()
	s.jeng, err = durable.Open(s.jst, durable.Options{Dir: filepath.Join(dir, "journal"), CheckpointBytes: -1})
	if err != nil {
		return nil, err
	}
	defer s.jeng.Close()

	for i := range warm {
		if _, err := s.handle(&warm[i]); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	traced := stream[:min(e.tracedOps, len(stream))]
	s.trace.t0 = time.Now()
	s.trace.spans = make([]span, 0, 8*len(traced))
	for i := range traced {
		if err := s.traceOp(i, &traced[i]); err != nil {
			return nil, fmt.Errorf("traced op %d (%.200s): %w", i, traced[i].body, err)
		}
	}
	plainOps := stream[len(traced):min(2*len(traced), len(stream))]
	start = time.Now()
	for i := range plainOps {
		if _, err := s.handle(&plainOps[i]); err != nil {
			return nil, fmt.Errorf("untraced op %d (%.200s): %w", i, plainOps[i].body, err)
		}
	}
	plainUS := float64(time.Since(start)) / float64(time.Microsecond)
	if err := s.trace.write(filepath.Join(e.buildDir, fmt.Sprintf("trace-%s-%d.ndjson", w.name, seed))); err != nil {
		return nil, err
	}

	su := &s.sums
	overhead := 0.0
	if len(plainOps) > 0 && plainUS > 0 {
		plainMean := plainUS / float64(len(plainOps))
		overhead = (su.mean("root", "op") - plainMean) / plainMean
	}
	unattributed := 0.0
	if su.us["root"] > 0 {
		unattributed = (su.us["root"] - su.us["attributed"]) / su.us["root"]
	}
	us := func(name, per string) metric { return metric{su.mean(name, per), "us"} }
	return map[string]metric{
		"server.handle_hit_us":     us("hit", "hit"),
		"server.handle_miss_us":    us("miss", "miss"),
		"server.handle_write_us":   us("write", "write"),
		"server.decode_us":         us("server.decode", "op"),
		"server.encode_us":         us("server.encode", "miss"),
		"server.self_us":           us("server.self", "miss"),
		"query.parse_us":           us("query.parse", "read"),
		"query.canonical_us":       us("query.canonical", "read"),
		"query.plan_us":            us("query.plan", "miss"),
		"query.exec_us":            us("query.exec", "miss"),
		"query.rows_per_op":        {su.mean("rows", "miss"), "count"},
		"query.probes_per_op":      {su.mean("probes", "miss"), "count"},
		"query.batches_per_op":     {su.mean("batches", "miss"), "count"},
		"store.leaf_scan_us":       us("store.leaf_scan", "miss"),
		"store.ingest_triples_s":   {float64(len(all)) / ingestS, "1/s"},
		"reason.materialize_s":     {materializeS, "s"},
		"reason.add_us":            us("reason.add", "add"),
		"reason.remove_us":         us("reason.remove", "remove"),
		"durable.recover_s":        {recoverS, "s"},
		"durable.commit_us":        us("commit", "write"),
		"trace.overhead_share":     {overhead, "ratio"},
		"trace.unattributed_share": {unattributed, "ratio"},
	}, nil
}
