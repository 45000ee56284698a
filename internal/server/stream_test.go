package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/query/exec"
	"repro/internal/reason"
	"repro/internal/store"
)

// This file tests the miss path's response body: one buffer that is streamed
// in chunks, cloned into the cache and replayed — and the executor buffers
// every way of leaving that path must hand back.

// streamCorpus holds n instances of class "thing" (enough rows for several
// flushEvery chunks), one fan-out hub per ten instances, and a few values
// that need every kind of JSON escaping.
func streamCorpus(t testing.TB, n int) *store.Store {
	t.Helper()
	s := store.New()
	batch := make([]store.Triple, 0, 2*n+8)
	for i := 0; i < n; i++ {
		inst := fmt.Sprintf("inst-%d", i)
		batch = append(batch,
			store.Triple{Subject: inst, Predicate: store.TypePredicate, Object: "thing"},
			store.Triple{Subject: fmt.Sprintf("hub-%d", i%10), Predicate: "holds", Object: inst})
	}
	for _, v := range []string{`say "hi"`, `back\slash`, "tab\there", "<b>&amp;</b>", "naïve ☃", "line\nbreak"} {
		batch = append(batch, store.Triple{Subject: v, Predicate: "label", Object: "odd"})
	}
	batch = append(batch, store.Triple{Subject: "hub-0", Predicate: "in", Object: "depot"})
	if _, err := s.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	return s
}

// rawQuery posts a /query and returns the response body split into the
// header-and-rows part and the trailer line.
func rawQuery(t testing.TB, s *Server, req QueryRequest) (body, trailer []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	serveQuery(t, s, rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/query %+v = %d: %s", req, rec.Code, rec.Body)
	}
	all := rec.Body.Bytes()
	cut := bytes.LastIndexByte(all[:len(all)-1], '\n') + 1
	return all[:cut], all[cut:]
}

// TestReplayIsByteIdenticalToMiss pins the one-body contract end to end: the
// bytes a miss streams are what json.Marshal of the wire types would give,
// and a hit replays exactly those bytes — only the trailer's cached and
// elapsed_us differ — for escaped values, a variable-free BGP and a
// truncated result.
func TestReplayIsByteIdenticalToMiss(t *testing.T) {
	s := newTestServer(t, Config{Base: streamCorpus(t, 600), Rules: []reason.Rule{}})
	for _, c := range []struct {
		name string
		req  QueryRequest
		rows int
	}{
		{"escaped values", QueryRequest{BGP: "?x label odd"}, 6},
		{"no variables", QueryRequest{BGP: "hub-0 in depot"}, 1},
		{"truncated", QueryRequest{BGP: "?x type thing", Limit: 300}, 300},
		{"several chunks", QueryRequest{BGP: "?h holds ?x . ?x type ?c"}, 600},
	} {
		t.Run(c.name, func(t *testing.T) {
			missBody, missTrailer := rawQuery(t, s, c.req)
			hitBody, hitTrailer := rawQuery(t, s, c.req)
			if !bytes.Equal(missBody, hitBody) {
				t.Fatalf("replayed body differs from the miss:\n miss %q\n hit  %q", missBody, hitBody)
			}
			var miss, hit QueryTrailer
			if err := json.Unmarshal(missTrailer, &miss); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(hitTrailer, &hit); err != nil {
				t.Fatal(err)
			}
			if miss.Cached || !hit.Cached {
				t.Fatalf("cached flags: miss %v, hit %v", miss.Cached, hit.Cached)
			}
			if miss.Generation == nil || hit.Generation == nil || *miss.Generation != *hit.Generation {
				t.Fatalf("generations: miss %v, hit %v; want one, the same", miss.Generation, hit.Generation)
			}
			hit.Cached, hit.ElapsedUS, miss.ElapsedUS, hit.Generation, miss.Generation = false, 0, 0, nil, nil
			if miss != hit || miss.Solutions != c.rows || miss.Truncated != (c.req.Limit > 0) {
				t.Fatalf("trailers: miss %+v, hit %+v, want %d solutions", miss, hit, c.rows)
			}

			// The wire bytes are encoding/json's: re-marshaling each decoded
			// line reproduces it.
			lines := bytes.SplitAfter(missBody, []byte("\n"))
			lines = lines[:len(lines)-1]
			if len(lines) != 1+c.rows {
				t.Fatalf("%d lines before the trailer, want header + %d rows", len(lines), c.rows)
			}
			var h QueryHeader
			if err := json.Unmarshal(lines[0], &h); err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(h); string(want)+"\n" != string(lines[0]) {
				t.Fatalf("header line %q, json.Marshal gives %q", lines[0], want)
			}
			if len(h.Vars) > 1 {
				return // json.Marshal sorts a row's keys; the stream keeps Vars order
			}
			for _, line := range lines[1:] {
				var row QueryRow
				if err := json.Unmarshal(line, &row); err != nil {
					t.Fatal(err)
				}
				if want, _ := json.Marshal(row); string(want)+"\n" != string(line) {
					t.Fatalf("row line %q, json.Marshal gives %q", line, want)
				}
			}
		})
	}
}

// chunkRecorder is a flushing ResponseWriter that records what had been
// written, and whether the executor still held buffers, at the first Flush;
// failAfter > 0 makes every Write past that many fail, as a closed
// connection would.
type chunkRecorder struct {
	header      http.Header
	body        bytes.Buffer
	writes      int
	failAfter   int
	firstFlush  []byte
	heldAtFlush int64
}

func (c *chunkRecorder) Header() http.Header { return c.header }
func (c *chunkRecorder) WriteHeader(int)     {}
func (c *chunkRecorder) Write(p []byte) (int, error) {
	if c.writes++; c.failAfter > 0 && c.writes > c.failAfter {
		return 0, errors.New("connection closed")
	}
	return c.body.Write(p)
}
func (c *chunkRecorder) Flush() {
	if c.firstFlush == nil {
		c.firstFlush = bytes.Clone(c.body.Bytes())
		gets, puts := exec.PoolCounters()
		c.heldAtFlush = gets - puts
	}
}

// serveQuery runs one /query against w.
func serveQuery(t testing.TB, s *Server, w http.ResponseWriter, req QueryRequest) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
}

// TestLargeResultStreamsBeforeEvaluationEnds checks that buffering the body
// did not turn streaming into store-and-forward: the first chunk is flushed
// to the client while the operator tree still holds its buffers.
func TestLargeResultStreamsBeforeEvaluationEnds(t *testing.T) {
	s := newTestServer(t, Config{Base: streamCorpus(t, 5000), Rules: []reason.Rule{}})
	gets, puts := exec.PoolCounters()
	idle := gets - puts
	w := &chunkRecorder{header: http.Header{}}
	serveQuery(t, s, w, QueryRequest{BGP: "?x type thing"})
	res := decodeQueryStream(t, http.StatusOK, w.body.Bytes())
	if len(res.rows) != 5000 {
		t.Fatalf("streamed %d rows, want 5000", len(res.rows))
	}
	if n := bytes.Count(w.firstFlush, []byte("\n")); n != 1+flushEvery {
		t.Fatalf("first flush carried %d lines, want the header and %d rows", n, flushEvery)
	}
	if w.heldAtFlush <= idle {
		t.Fatal("no executor buffers were held at the first flush: the evaluation had already ended")
	}
}

// TestOverBudgetResultIsStreamedNotRetained covers the memory bound, which is
// the cache's whole budget: a result larger than it is streamed in full and
// never stored, one of more than half of it is stored, and the body buffer
// stops growing once it has passed the budget.
func TestOverBudgetResultIsStreamedNotRetained(t *testing.T) {
	const budget = 4 << 10
	s := newTestServer(t, Config{Base: streamCorpus(t, 3000), Rules: []reason.Rule{}, CacheMaxBytes: budget})
	for i := 0; i < 2; i++ {
		res := postQuery(t, s, QueryRequest{BGP: "?x type thing"})
		if len(res.rows) != 3000 || res.trailer.Cached {
			t.Fatalf("pass %d: %d rows, cached=%v; want 3000 uncached", i, len(res.rows), res.trailer.Cached)
		}
	}
	half := QueryRequest{BGP: "?x type thing", Limit: 100}
	body, _ := rawQuery(t, s, half)
	if len(body) < budget/2 || len(body) > budget {
		t.Fatalf("the limit-100 body is %d bytes; the test needs one between %d and %d", len(body), budget/2, budget)
	}
	if again := postQuery(t, s, half); !again.trailer.Cached || len(again.rows) != 100 {
		t.Fatalf("a result of half the budget was not cached: %+v", again.trailer)
	}
	if st := getStats(t, s).Cache; st.Entries != 1 || st.Bytes != int64(len(body)) {
		t.Fatalf("cache holds %d entries / %d bytes, want the one %d-byte entry", st.Entries, st.Bytes, len(body))
	}

	// The writer itself: retained while the cache could take the body — up
	// to the budget exactly — and dropped chunk by chunk after.
	rec := httptest.NewRecorder()
	bw := newBodyWriter(rec, quietCache(100))
	defer bw.release()
	bw.buf = append(bw.buf, strings.Repeat("a", 50)...)
	if err := bw.send(false); err != nil || len(bw.body()) != 50 {
		t.Fatalf("half the budget: err %v, retained %d bytes, want 50", err, len(bw.body()))
	}
	bw.buf = append(bw.buf, strings.Repeat("b", 50)...)
	if err := bw.send(false); err != nil || len(bw.body()) != 100 {
		t.Fatalf("the whole budget: err %v, retained %d bytes, want 100", err, len(bw.body()))
	}
	bw.buf = append(bw.buf, "c"...)
	if err := bw.send(true); err != nil || bw.body() != nil || len(bw.buf) != 0 {
		t.Fatalf("budget+1: err %v, body %d bytes, buffer %d bytes; want both dropped", err, len(bw.body()), len(bw.buf))
	}
	bw.buf = append(bw.buf, "d"...)
	if err := bw.send(false); err != nil || bw.body() != nil || rec.Body.Len() != 102 {
		t.Fatalf("after the drop: err %v, body %v, client got %d bytes, want 102", err, bw.body(), rec.Body.Len())
	}
}

// TestQueryExitsReturnExecutorBuffers drives every early exit of the miss
// path and checks the executor's pool counters balance afterwards: a limit
// reached mid-join, a timeout, a client that went away mid-stream, and the
// EXPLAIN form of the limit.
func TestQueryExitsReturnExecutorBuffers(t *testing.T) {
	base := streamCorpus(t, 5000)
	s := newTestServer(t, Config{Base: base, Rules: []reason.Rule{}, CacheMaxBytes: -1})
	hurried := newTestServer(t, Config{Base: base, Rules: []reason.Rule{}, CacheMaxBytes: -1, QueryTimeout: time.Nanosecond})
	join := "?h holds ?x . ?x type ?c"
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"limit", func(t *testing.T) {
			if res := postQuery(t, s, QueryRequest{BGP: join, Limit: 700}); len(res.rows) != 700 || !res.trailer.Truncated {
				t.Fatalf("%d rows, truncated=%v", len(res.rows), res.trailer.Truncated)
			}
		}},
		{"explain limit", func(t *testing.T) {
			rec := httptest.NewRecorder()
			body, _ := json.Marshal(QueryRequest{BGP: join, Limit: 700})
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?explain=1", bytes.NewReader(body)))
			var ex ExplainResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ex); err != nil {
				t.Fatal(err)
			}
			if !ex.Truncated || ex.PoolGets == 0 || ex.PoolGets != ex.PoolPuts {
				t.Fatalf("explain: truncated=%v pool %d/%d, want truncated and balanced", ex.Truncated, ex.PoolGets, ex.PoolPuts)
			}
		}},
		{"timeout", func(t *testing.T) {
			if res := postQuery(t, hurried, QueryRequest{BGP: join}); !strings.Contains(res.trailer.Error, "interrupted") {
				t.Fatalf("trailer %+v, want an interruption", res.trailer)
			}
		}},
		{"client gone", func(t *testing.T) {
			w := &chunkRecorder{header: http.Header{}, failAfter: 1}
			serveQuery(t, s, w, QueryRequest{BGP: join})
			if n := bytes.Count(w.body.Bytes(), []byte("\n")); n != 1+flushEvery {
				t.Fatalf("client received %d lines before its connection failed, want %d", n, 1+flushEvery)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			gets0, puts0 := exec.PoolCounters()
			c.run(t)
			gets1, puts1 := exec.PoolCounters()
			if g, p := gets1-gets0, puts1-puts0; g == 0 || g != p {
				t.Fatalf("pool gets %d, puts %d: want equal and nonzero", g, p)
			}
		})
	}
}
