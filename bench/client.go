package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phaseResult is what the client saw of one driven stream.
type phaseResult struct {
	ops     []op
	wall    time.Duration
	latency []float64 // ms per op, in stream order; open loop: from the op's due time
	late    []float64 // ms the op was sent after it was due (open loop only)
	failed  int
	errs    []string // the first few failures, for the report
	// textBytes is the response size of every distinct query text seen, the
	// population a cache would have to hold to serve the stream from memory.
	textBytes map[readKey]int
}

// queryTrailer is the last line of a /query stream.
type queryTrailer struct {
	Done      bool   `json:"done"`
	Solutions int    `json:"solutions"`
	Truncated bool   `json:"truncated"`
	Cached    bool   `json:"cached"`
	Error     string `json:"error"`
}

// parseQueryResponse checks the framing of a /query stream (header line,
// row lines, trailer line) and returns the trailer.
func parseQueryResponse(body []byte) (queryTrailer, error) {
	var t queryTrailer
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return t, fmt.Errorf("stream does not end in a newline (%d bytes)", len(body))
	}
	last := bytes.LastIndexByte(body[:len(body)-1], '\n')
	if last < 0 {
		return t, fmt.Errorf("stream has no trailer line")
	}
	if err := json.Unmarshal(body[last+1:], &t); err != nil {
		return t, fmt.Errorf("trailer: %w", err)
	}
	if !t.Done {
		return t, fmt.Errorf("no done trailer; last line %q", body[last+1:])
	}
	if t.Error != "" {
		return t, fmt.Errorf("trailer error: %s", t.Error)
	}
	if rows := bytes.Count(body, []byte{'\n'}) - 2; rows != t.Solutions {
		return t, fmt.Errorf("trailer says %d solutions, stream carries %d rows", t.Solutions, rows)
	}
	return t, nil
}

// mutateResponse is the body of a POST /triples answer.
type mutateResponse struct {
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// conn is one client connection: its own transport, so the two workers
// never share or reorder on a socket.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends body and returns the status and the whole response body, valid
// until the next call.
func (c *conn) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// do sends one op and checks its answer against the oracle.
func (c *conn) do(api string, o *op, orc *oracle) (respBytes int, err error) {
	if o.kind.isRead() {
		w := orc.beginRead(o.key)
		status, body, err := c.post(api+"/query", o.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var t queryTrailer
		if err == nil {
			t, err = parseQueryResponse(body)
		}
		if err != nil {
			_ = orc.endRead(w, o.limit, 0, false)
			return 0, err
		}
		return len(body), orc.endRead(w, o.limit, t.Solutions, t.Truncated)
	}
	orc.beginWrite(o)
	status, body, err := c.post(api+"/triples", o.body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var m mutateResponse
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	if err != nil {
		_ = orc.endWrite(o, false, 0, 0)
		return 0, err
	}
	return len(body), orc.endWrite(o, true, m.Added, m.Removed)
}

// dueAt is when op i of an open loop at rate ops/s is due, relative to the
// phase start.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// drive sends ops over the harness's connections, in stream order. With
// rate 0 it is a closed loop (each connection sends its next op when the
// previous one has been answered); otherwise op i is due at i/rate seconds
// and its latency counts from then, so a stall is charged to every op it
// delays.
func drive(api string, ops []op, rate float64, orc *oracle) *phaseResult {
	res := &phaseResult{
		ops:       ops,
		latency:   make([]float64, len(ops)),
		textBytes: map[readKey]int{},
	}
	if rate > 0 {
		res.late = make([]float64, len(ops))
	}
	var (
		next atomic.Int64
		mu   sync.Mutex // failed, errs, textBytes
		wg   sync.WaitGroup
	)
	conns := make([]*conn, connections)
	for i := range conns {
		conns[i] = newConn()
	}
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			seen := map[readKey]int{}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				from := time.Now()
				if rate > 0 {
					due := start.Add(dueAt(i, rate))
					if wait := due.Sub(from); wait > 0 {
						time.Sleep(wait)
					}
					res.late[i] = math.Max(0, ms(time.Since(due)))
					from = due
				}
				n, err := c.do(api, &ops[i], orc)
				res.latency[i] = ms(time.Since(from))
				if err != nil {
					mu.Lock()
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("op %d (%s): %v", i, ops[i].body, err))
					}
					mu.Unlock()
				} else if ops[i].kind.isRead() {
					seen[ops[i].key] = n
				}
			}
			mu.Lock()
			for k, n := range seen {
				res.textBytes[k] = n
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, c := range conns {
		c.close()
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs, which it
// sorts in place; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// latencies returns a copy of the latencies of the ops keep selects.
func (r *phaseResult) latencies(keep func(*op) bool) []float64 {
	out := make([]float64, 0, len(r.latency))
	for i := range r.ops {
		if keep(&r.ops[i]) {
			out = append(out, r.latency[i])
		}
	}
	return out
}
