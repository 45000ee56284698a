package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query/exec"
	"repro/internal/reason"
	"repro/internal/store"
)

// This file tests what every request shares — the route prologue and the
// one-JSON-value body rule — and what /query's two response forms share: the
// drain.

// TestWrongMethodIs405 walks the route table: every mounted route answers any
// other method with 405, an Allow header naming the one it takes, and a JSON
// ErrorResponse.
func TestWrongMethodIs405(t *testing.T) {
	s, _ := replPrimary(t)
	rts := s.routes
	if len(rts) != 9 {
		t.Fatalf("a durable primary mounts %d routes, want all 9", len(rts))
	}
	for _, rt := range rts {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
			if method == rt.method {
				continue
			}
			rec := do(t, s, method, rt.path, nil)
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%s %s: body %q is not an ErrorResponse: %v", method, rt.path, rec.Body, err)
			}
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != rt.method || er.Error == "" {
				t.Fatalf("%s %s = %d, Allow %q, error %q; want 405 allowing %s",
					method, rt.path, rec.Code, rec.Header().Get("Allow"), er.Error, rt.method)
			}
		}
	}
	// The method check comes first: a replica answers a GET to a write
	// endpoint 405, not 403.
	replica := newTestServer(t, Config{Replica: stubReplica{}})
	if rec := do(t, replica, http.MethodGet, "/triples", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /triples on a replica = %d, want 405", rec.Code)
	}
}

// TestBodyIsOneJSONValue pins readRequest's contract on both endpoints that
// take a body: exactly one JSON value of the documented shape, within the
// size cap — and a body over the cap is a 413 whatever its first bytes.
func TestBodyIsOneJSONValue(t *testing.T) {
	s := newTestServer(t, Config{})
	bodies := map[string]string{
		"/query":   `{"bgp":"?x type car"}`,
		"/triples": `{"add":[{"subject":"kombi","predicate":"type","object":"car"}]}`,
	}
	for path, ok := range bodies {
		for _, c := range []struct {
			name, body string
			want       int
		}{
			{"one value", ok, http.StatusOK},
			{"trailing whitespace", ok + " \r\n\t\n", http.StatusOK},
			{"leading whitespace", "\n " + ok, http.StatusOK},
			{"trailing object", ok + `{"limit":1}`, http.StatusBadRequest},
			{"trailing token", ok + " garbage", http.StatusBadRequest},
			{"trailing brace", ok + "}", http.StatusBadRequest},
			{"unknown field", `{"bqp":"?x type car","ad":[]}`, http.StatusBadRequest},
			{"empty", "", http.StatusBadRequest},
			{"oversized value", `{"bgp":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
			{"oversized trailing whitespace", ok + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
			{"oversized, malformed early", `{bad` + strings.Repeat(" ", maxBodyBytes), http.StatusRequestEntityTooLarge},
		} {
			rec := do(t, s, http.MethodPost, path, []byte(c.body))
			if rec.Code != c.want {
				t.Errorf("POST %s, %s: got %d, want %d (%.80s)", path, c.name, rec.Code, c.want, rec.Body)
			}
			if c.want != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Errorf("POST %s, %s: body %q is not an ErrorResponse", path, c.name, rec.Body)
				}
			}
		}
	}
}

// TestStreamAndExplainAgree pins what the one drain decides for both forms
// of /query: how many solutions a limit lets through and whether it cut any
// off — at the batch boundary and either side of it, at the exact total and
// past it.
func TestStreamAndExplainAgree(t *testing.T) {
	const total = 3000
	s := newTestServer(t, Config{Base: streamCorpus(t, total), Rules: []reason.Rule{}})
	for _, limit := range []int{1, exec.BatchSize - 1, exec.BatchSize, exec.BatchSize + 1, total, total + 1} {
		body, _ := json.Marshal(QueryRequest{BGP: "?h holds ?x . ?x type ?c", Limit: limit})
		tr := decodeQueryStream(t, http.StatusOK, do(t, s, http.MethodPost, "/query", body).Body.Bytes()).trailer
		var ex ExplainResponse
		if err := json.Unmarshal(do(t, s, http.MethodPost, "/query?explain=1", body).Body.Bytes(), &ex); err != nil {
			t.Fatal(err)
		}
		if want := min(limit, total); tr.Solutions != want || tr.Truncated != (limit < total) || tr.Error != "" ||
			ex.Solutions != want || ex.Truncated != tr.Truncated || ex.Error != "" {
			t.Fatalf("limit %d: stream %+v, explain %d solutions, truncated=%v, error %q; want both %d solutions, truncated=%v",
				limit, tr, ex.Solutions, ex.Truncated, ex.Error, want, limit < total)
		}
	}
}

// pollCtx is a request context that reports cancellation from its n-th Err
// call on. The evaluator's interrupt hook polls Err, so n picks the step of
// the evaluation at which the client "goes away".
type pollCtx struct {
	context.Context
	left *int
}

func (c pollCtx) Err() error {
	if *c.left--; *c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestDeadlineDuringTheProbe cancels an evaluation inside the drain's
// did-more-solutions-exist probe. The client already has its limit-full
// answer, so neither form of the response may call that an error: both mark it
// truncated — nobody knows — and the stream does not cache the guess.
//
// The corpus makes the probe long and fruitless: joined through `?b ?c ?c`,
// the first exec.BatchSize leaf rows each find their one match (`b q q`), the
// next 600 find a triple the repeated variable rejects (`b q z`), so after the
// first full batch the evaluator works through hundreds of interrupt-polled
// steps without buffering a row.
func TestDeadlineDuringTheProbe(t *testing.T) {
	base := store.New()
	for i := 0; i < exec.BatchSize+600; i++ {
		a, b := "a"+strconv.Itoa(i), "b"+strconv.Itoa(i)
		o := "q"
		if i >= exec.BatchSize {
			o = "z"
		}
		// One Add at a time: the leaf scan then walks `p` in insertion order.
		for _, tr := range []store.Triple{{Subject: a, Predicate: "p", Object: b}, {Subject: b, Predicate: "q", Object: o}} {
			if _, err := base.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := newTestServer(t, Config{Base: base, Rules: []reason.Rule{}})
	body, _ := json.Marshal(QueryRequest{BGP: "?a p ?b . ?b ?c ?c", Limit: exec.BatchSize})

	// EXPLAIN first: the stream's last, whole run leaves its answer cached.
	for _, target := range []string{"/query?explain=1", "/query"} {
		probeCuts := 0
		// Cancel one poll later each time until the evaluation runs whole.
		for k := 0; ; k++ {
			if k > 100 {
				t.Fatalf("%s: the evaluation never ran whole", target)
			}
			left := k
			req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req.WithContext(pollCtx{req.Context(), &left}))
			var got QueryTrailer // ExplainResponse spells the three fields the same way
			lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
				t.Fatal(err)
			}
			if left >= 0 {
				if got.Solutions != exec.BatchSize || got.Truncated || got.Error != "" {
					t.Fatalf("%s, never cancelled: %+v, want the whole answer", target, got)
				}
				break
			}
			if got.Error != "" {
				if got.Solutions >= exec.BatchSize {
					t.Fatalf("%s, cancelled at poll %d: %+v reports an error beside a limit-full answer", target, k, got)
				}
				continue
			}
			probeCuts++
			if got.Solutions != exec.BatchSize || !got.Truncated {
				t.Fatalf("%s, cancelled at poll %d during the probe: %+v, want %d solutions marked truncated", target, k, got, exec.BatchSize)
			}
			if n := getStats(t, s).Cache.Entries; n != 0 {
				t.Fatalf("%s, cancelled at poll %d during the probe: %d cache entries, want the guess not cached", target, k, n)
			}
		}
		if probeCuts == 0 {
			t.Fatalf("%s: no cancellation point fell inside the probe; the test lost its subject", target)
		}
	}
}

// TestCachedQueryAllocs holds the hit path — prologue, decode, key, lookup,
// replay — to its allocation count. It was 35 while the request counter
// built its label key per request and the status recorder was a fresh
// object; the prologue's pooled exchange and per-route counters made it 31.
// The reflection-free reader, the pooled key and the appended trailer made it
// 5: the response's two header values, the body's http.MaxBytesReader, the
// BGP string and the parsed BGP. A shared Content-Type value and the
// request's own X-Request-Id slice in the response made it 3 (a request that
// brings no id pays one more, for the slice the two headers share).
func TestCachedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	s := newTestServer(t, Config{})
	if res := postQuery(t, s, QueryRequest{BGP: "?x type vehicle"}); res.trailer.Cached {
		t.Fatal("first evaluation reported cached")
	}
	body := []byte(`{"bgp":"?x type vehicle"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", rd)
	w := &chunkRecorder{header: http.Header{}}
	h := s.Handler()
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.body.Reset()
		h.ServeHTTP(w, req)
	})
	if !bytes.Contains(w.body.Bytes(), []byte(`"cached":true`)) {
		t.Fatalf("the measured request was not a hit: %s", w.body.Bytes())
	}
	t.Logf("a cached /query allocates %v times", allocs)
	const pinned = 3
	if allocs > pinned {
		t.Fatalf("a cached /query allocates %v times, above the %d it did", allocs, pinned)
	}
}
