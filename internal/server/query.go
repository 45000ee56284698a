package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/query/exec"
	"repro/internal/reason"
	"repro/internal/store"
)

// This file is POST /query: five stages over one request value — decode and
// validate, pick the source for the mode, build the cache key, look up and
// replay, evaluate — with one drain loop under both the streamed response and
// its EXPLAIN form; the request's clock is marked at each read stage's end.

// queryRun is one /query request on its way through the stages: each stage
// fills its fields in, and the trailer, the EXPLAIN body and the slow-query
// record are all read off it at the end. It lives on handleQuery's stack.
type queryRun struct {
	clock   *obs.Clock
	explain bool // ?explain=1

	// Set by decode.
	bgp   query.BGP
	mode  string // defaulted by source
	limit int    // 1..MaxSolutions

	// Set by source.
	src query.Source
	opt query.Option // the mode's evaluator option; nil for none

	// Set by buildKey, in its pooled buffer.
	key       []byte // cache key
	canonical []byte // the query.Canonical text within key, the slow-query log's BGP

	// The outcome, set by replay, or by drain and its caller: the response's
	// last line, and what EXPLAIN and the slow-query log report too.
	vars    []string
	trailer QueryTrailer
}

// handleQuery is POST /query: parse, consult the cache, evaluate, stream.
// With ?explain=1 it evaluates in EXPLAIN ANALYZE form instead (see
// explainQuery).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	q := queryRun{clock: clockOf(w), trailer: QueryTrailer{Done: true}}
	if !s.decode(w, r, &q) || !s.source(w, &q) {
		return
	}
	kb := keyPool.Get().(*keyBuffer)
	q.buildKey(kb)
	switch {
	case q.explain:
		s.explainQuery(w, r, &q)
	case s.replay(w, &q):
	default:
		s.evaluate(w, r, &q)
	}
	q.clock.Mark(obs.StageEncode)
	s.slow.observe(q.clock, q.canonical, slowQueryRecord{
		RequestID: r.Header.Get(requestIDHeader),
		Mode:      q.mode,
		Explain:   q.explain,
		Solutions: q.trailer.Solutions,
		Truncated: q.trailer.Truncated,
		Cached:    q.trailer.Cached,
		Error:     q.trailer.Error,
	})
	clear(kb.vars) // the names are substrings of the request's BGP
	keyPool.Put(kb)
}

// maxPatterns caps the patterns of one BGP: plan search is factorial up to 6
// patterns and greedy past that, and the cap keeps hostile queries from
// exploding the evaluator.
const maxPatterns = 16

// decode is stage one: read the body, parse the BGP and bound it by the
// server's limits. On failure it has written the 4xx and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, q *queryRun) bool {
	var req QueryRequest
	if !readRequest(w, r, nil, func(d *wireReader) error { return d.query(&req) }) {
		return false
	}
	bgp, err := query.ParseBGP(req.BGP)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	if len(bgp) > maxPatterns {
		writeError(w, http.StatusBadRequest, "BGP has %d patterns, server limit is %d", len(bgp), maxPatterns)
		return false
	}
	q.bgp, q.mode, q.limit = bgp, req.Mode, req.Limit
	if q.limit <= 0 || q.limit > s.cfg.MaxSolutions {
		q.limit = s.cfg.MaxSolutions
	}
	q.explain = r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1"
	q.clock.Mark(obs.StageDecode)
	return true
}

// source is stage two: the store the mode evaluates over and the evaluator
// options that go with it.
func (s *Server) source(w http.ResponseWriter, q *queryRun) bool {
	switch q.mode {
	case "", ModeMaterialized:
		q.mode = ModeMaterialized
		q.src = s.reasoner.View()
		q.opt = query.Materialized()
	case ModeExpand:
		// The hierarchy is the reasoner's own subClassOf closure, so a schema
		// write reaches the next answer (evaluate files the entry under
		// subClassOf).
		q.src = s.reasoner.Base()
		q.opt = query.Expand(s.reasoner)
	case ModePlain:
		q.src = s.reasoner.Base()
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want %q, %q or %q)", q.mode, ModeMaterialized, ModeExpand, ModePlain)
		return false
	}
	return true
}

// keyBuffer is buildKey's scratch: the key's bytes and the canonical
// variable names.
type keyBuffer struct {
	buf  []byte
	vars []string
}

// keyPool recycles key buffers: a cache hit builds its key without
// allocating, and the key is a string only when put stores it.
var keyPool = sync.Pool{New: func() any { return new(keyBuffer) }}

// buildKey is stage three. The key carries the variable-name mapping next to
// the canonical form: responses are replayed verbatim, so a hit must have
// asked for the same variable names (pattern-reordered respellings share an
// entry; renamed variables evaluate afresh rather than replay foreign names).
// Every client-controlled component is length-prefixed — BGP terms may contain
// any non-whitespace byte, so no separator byte is collision-safe on its own;
// length prefixes make the key decoding (hence the key) unambiguous. The
// canonical form's length is known only once it is written, so its prefix is
// slid in before it.
func (q *queryRun) buildKey(kb *keyBuffer) {
	b := append(kb.buf[:0], q.mode...) // fixed vocabulary, no separator bytes
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.limit), 10)
	b = append(b, '|')
	at := len(b)
	b, kb.vars = query.AppendCanonical(b, q.bgp, kb.vars[:0])
	var num [24]byte
	prefix := append(strconv.AppendInt(num[:0], int64(len(b)-at), 10), '|')
	b = append(b, prefix...)
	copy(b[at+len(prefix):], b[at:])
	copy(b[at:], prefix)
	start, end := at+len(prefix), len(b)
	for _, v := range kb.vars {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, '|')
		b = append(b, v...)
	}
	kb.buf, q.key, q.canonical = b, b, b[start:end]
}

// replay is stage four: on a cache hit, write the stored body as a fresh
// response stream and report true. The entry is held until the trailer, which
// points at its generation, is written too: a dead entry's body is the next
// miss's to overwrite.
func (s *Server) replay(w http.ResponseWriter, q *queryRun) bool {
	e := s.cache.get(q.key)
	q.clock.Mark(obs.StageLookup)
	if e == nil {
		return false
	}
	q.trailer.Solutions, q.trailer.Truncated, q.trailer.Cached, q.trailer.Generation = e.solutions, e.truncated, true, &e.gen
	w.Header()["Content-Type"] = ndjsonContent
	if _, err := w.Write(e.body); err == nil {
		writeAppended(w, q.trailer, appendTrailer)
	}
	q.trailer.Generation = nil // the entry is the next miss's once released
	s.cache.release(e)
	return true
}

// evaluate is stage five, the cache miss: run the BGP, stream the rows, and
// store the body if the result is exact and the cache will take it. The
// streamed bytes and the cached bytes are one pooled buffer (bodyWriter;
// DESIGN.md "One response body" has the memory bound).
//
// The generation is read before evaluating and again after the drain. The
// engine advances it only inside a write section, which no read overlaps, so
// equal readings prove every read saw that generation: the trailer names it.
// Unequal readings leave it out, and the cache refuses the answer (see
// resultCache.put).
func (s *Server) evaluate(w http.ResponseWriter, r *http.Request, q *queryRun) {
	gen := s.reasoner.Generation()

	w.Header()["Content-Type"] = ndjsonContent
	out := newBodyWriter(w, s.cache)
	defer out.release()
	exact, err := s.drain(r, q, &out, nil)
	if err == errClientGone {
		return // nothing to cache (the result may be incomplete), no one to tell
	}
	if errors.Is(err, query.ErrInterrupted) {
		elapsed := time.Duration(q.trailer.ElapsedUS) * time.Microsecond
		q.trailer.Error = fmt.Sprintf("query interrupted after %v (server timeout %v or client disconnect); partial results above", elapsed.Round(time.Millisecond), s.cfg.QueryTimeout)
	} else if err != nil {
		q.trailer.Error = err.Error()
	}
	if s.reasoner.Generation() == gen {
		q.trailer.Generation = &gen
	}

	if body := out.body(); exact && body != nil {
		e := s.cache.entry(body)
		e.gen, e.solutions, e.truncated, e.anyPred = gen, q.trailer.Solutions, q.trailer.Truncated, false
		if cap(e.preds) < len(q.bgp)+1 { // room for subClassOf
			e.preds = make([]string, 0, len(q.bgp)+1)
		}
		e.preds = e.preds[:0]
		for _, p := range q.bgp {
			if p.Predicate.IsVar {
				e.anyPred = true
			} else {
				e.preds = append(e.preds, p.Predicate.Value)
			}
		}
		// Both modes answer type patterns through the subClassOf closure
		// (Expand's rewrite, the closed read), so a schema write can change
		// the answer without a type delta: file the entry under subClassOf
		// too. A variable predicate is filed under everything already.
		if q.mode == ModeExpand || q.mode == ModeMaterialized && slices.Contains(e.preds, store.TypePredicate) {
			e.preds = append(e.preds, reason.SubClassOfPredicate)
		}
		s.cache.put(q.key, e)
	}
	if out.send(false) == nil {
		writeAppended(w, q.trailer, appendTrailer)
	}
}

// errClientGone is drain's error for a response write that failed.
var errClientGone = errors.New("server: client went away mid-response")

// drain is the one evaluation loop, under the streamed response and EXPLAIN
// alike: it evaluates q's BGP under the request's deadline, hands the sink the
// header and then rows until the stream ends or q.limit is met, and finds out
// whether the limit cut anything off. It sets q.vars and the trailer's
// solutions, truncated and elapsed_us (the clock's plan + exec + encode so
// far), and returns the evaluation's error
// (errClientGone if the sink could not write). exact reports that the count
// and the truncated flag are the query's true answer — what a cache entry may
// hold. Every way out — limit met, client gone — hands the operator tree's
// pooled buffers back. extra is EXPLAIN's trace option, or nil.
func (s *Server) drain(r *http.Request, q *queryRun, sink *bodyWriter, extra query.Option) (exact bool, err error) {
	// Eval keeps none of its options, so they and their list stay on this
	// stack. The executor polls the request's deadline and context once every
	// few hundred steps, which costs less than arming a timer (and a derived
	// context) per query.
	deadline := time.Now().Add(s.cfg.QueryTimeout)
	sols := query.Eval(q.src, q.bgp, q.opt, query.Interrupt(r.Context(), deadline), query.Limit(q.limit), extra)
	q.clock.Mark(obs.StagePlan)
	defer sols.Close()
	q.vars = sols.Vars()
	if sink != nil {
		sink.buf = appendHeader(sink.buf, q.vars)
		sink.res, sink.nvars = sols.Resolver(), len(q.vars)
		sink.frags = rowFragments(q.vars, sink.ends[:sink.nvars])
	}
	q.clock.Mark(obs.StageEncode)
	t := &q.trailer
	for {
		sb, ok := sols.NextBatch()
		q.clock.Mark(obs.StageExec)
		if !ok {
			break
		}
		take := min(sb.Len(), q.limit-t.Solutions)
		if sink.rows(sb, t.Solutions, take) != nil {
			return false, errClientGone // t.Solutions stops at the last whole batch
		}
		q.clock.Mark(obs.StageEncode)
		if t.Solutions += take; t.Solutions >= q.limit {
			// More rows in this batch, or another non-empty batch, means the
			// limit cut the stream short.
			t.Truncated = take < sb.Len()
			if !t.Truncated {
				_, t.Truncated = sols.NextBatch()
				q.clock.Mark(obs.StageExec)
			}
			break
		}
	}
	ns, _ := q.clock.Read()
	t.ElapsedUS = (ns[obs.StagePlan] + ns[obs.StageExec] + ns[obs.StageEncode]) / 1e3
	err = sols.Err()
	if t.Solutions >= q.limit && errors.Is(err, query.ErrInterrupted) {
		// The limit-full result is complete; only the did-more-solutions-exist
		// probe was cut short by the deadline. Report truncation (the
		// conservative unknown) and have nobody cache the guess.
		t.Truncated = true
		return false, nil
	}
	return err == nil, err
}

// flushEvery is how many streamed rows go between explicit flushes: often
// enough that slow consumers see progress, rarely enough that flushing does
// not dominate small-row serialization.
const flushEvery = 256

// explainQuery is the ?explain=1 arm of handleQuery: evaluate with a trace
// attached, drain (up to the limit) without marshaling rows, and return the
// annotated plan. Explain runs bypass the result cache in both directions —
// a replayed result has no execution to describe, and an explain run's
// drained rows are never cached.
func (s *Server) explainQuery(w http.ResponseWriter, r *http.Request, q *queryRun) {
	q.clock.Mark(obs.StageLookup) // no cache get: source and key
	var tr query.Trace
	gets0, puts0 := exec.PoolCounters()
	// A limit break leaves the tree live; drain's Close is counted in PoolPuts.
	if _, err := s.drain(r, q, nil, query.WithTrace(&tr)); err != nil {
		q.trailer.Error = err.Error()
	}
	gets1, puts1 := exec.PoolCounters()
	writeJSON(w, ExplainResponse{
		Vars:      q.vars,
		Mode:      q.mode,
		Plan:      tr,
		Solutions: q.trailer.Solutions,
		Truncated: q.trailer.Truncated,
		ElapsedUS: q.trailer.ElapsedUS,
		Stages:    stageSplit(q.clock, time.Nanosecond),
		PoolGets:  gets1 - gets0,
		PoolPuts:  puts1 - puts0,
		Error:     q.trailer.Error,
	})
}

// maxPooledBody is the largest request or response scratch buffer kept for
// reuse; a bigger one (a result near the cache budget, a huge unlimited
// answer, a batch near the body cap) is left to the garbage collector so that
// one outlier does not stay pinned in the pool.
const maxPooledBody = 256 << 10

// bodyPool recycles bodyWriter scratch buffers (pointers, so Put does not
// box a slice header).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// bodyWriter is the output side of one cache-miss /query, and the sink drain
// puts solutions in: callers append response bytes to buf (rows does, a batch
// at a time) and call send at chunk boundaries. The nil bodyWriter is the
// sink that only counts, which is all EXPLAIN needs.
type bodyWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	cache   *resultCache
	pooled  *[]byte
	// res, frags and ends (rowFragments of the evaluation's nvars
	// variables) are what rows formats solutions with: the row line's
	// fragment c is frags[ends[c-1]:ends[c]], the first from 0. A BGP has at
	// most three variables a pattern.
	res   store.Resolver
	frags []byte
	nvars int
	ends  [3 * maxPatterns]int32
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

// rows appends the first n rows of sb as ndjson lines — precomputed `"var":"`
// fragments and JSON-escaped values; no Binding map, no per-row json.Marshal,
// no per-row allocation — sending a chunk to the client every flushEvery rows;
// done is how many rows went before these, which sets where the chunk
// boundaries fall.
func (bw *bodyWriter) rows(sb query.SolutionBatch, done, n int) error {
	if bw == nil {
		return nil
	}
	for r := 0; r < n; r++ {
		if bw.nvars == 0 {
			bw.buf = append(bw.buf, emptyRowLine...)
		} else {
			from := int32(0)
			for c, end := range bw.ends[:bw.nvars] {
				bw.buf = append(bw.buf, bw.frags[from:end]...)
				bw.buf = appendJSONString(bw.buf, bw.res.Name(sb.ID(c, r)))
				from = end
			}
			bw.buf = append(bw.buf, rowTail...)
		}
		if (done+r+1)%flushEvery == 0 {
			if err := bw.send(true); err != nil {
				return err
			}
		}
	}
	return nil
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
// for the given variables, one after another in one allocation, and sets
// ends[i] to where fragment i ends, so streaming a row is append-fragment,
// append-value repeated: fragment 0 opens the line through the first
// variable's name, fragment i>0 closes the previous value and names the next.
// Variable names are JSON-escaped once here. The zero-variable case (the
// empty BGP) is emptyRowLine.
func rowFragments(vars []string, ends []int32) []byte {
	size := len(`{"bind":{"`) - len(`","`)
	for _, v := range vars {
		size += len(`","`) + len(v) + len(`":"`)
	}
	b := make([]byte, 0, size) // grows only for a name that needs escaping
	for i, v := range vars {
		if i == 0 {
			b = append(b, `{"bind":{"`...)
		} else {
			b = append(b, `","`...)
		}
		b = appendJSONString(b, v)
		b = append(b, `":"`...)
		ends[i] = int32(len(b))
	}
	return b
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

// appendTrailer appends the final stream line, byte for byte what
// json.Marshal(t) plus a newline would be.
func appendTrailer(dst []byte, t QueryTrailer) []byte {
	dst = append(dst, `{"done":`...)
	dst = strconv.AppendBool(dst, t.Done)
	dst = append(dst, `,"solutions":`...)
	dst = strconv.AppendInt(dst, int64(t.Solutions), 10)
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, t.Truncated)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, t.Cached)
	dst = append(dst, `,"elapsed_us":`...)
	dst = strconv.AppendInt(dst, t.ElapsedUS, 10)
	if t.Generation != nil {
		dst = append(dst, `,"generation":`...)
		dst = strconv.AppendUint(dst, *t.Generation, 10)
	}
	if t.Error != "" {
		dst = append(dst, `,"error":"`...)
		dst = appendJSONString(dst, t.Error)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...)
}

// writeAppended writes the line app appends for v, built in a pooled
// buffer: a stack array would escape through w.Write.
func writeAppended[T any](w http.ResponseWriter, v T, app func([]byte, T) []byte) {
	p := bodyPool.Get().(*[]byte)
	*p = app((*p)[:0], v)
	_, _ = w.Write(*p)
	bodyPool.Put(p)
}
