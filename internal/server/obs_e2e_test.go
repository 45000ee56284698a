package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/store"
)

// This file is the end-to-end observability test: a durable server on a
// real TCP listener takes known traffic (queries, cache hits, an explain
// run, mutations, a checkpoint), and the /metrics scrape, the /stats body
// and the explain response must reflect exactly that traffic.

// scrape fetches url and parses the exposition into series-line → value.
// The key is the sample name with its label set verbatim, e.g.
// `onto_http_requests_total{code="200",handler="/query"}`.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape content type = %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// seriesSum sums every series of one family (all label sets), optionally
// filtered to keys containing each needle.
func seriesSum(m map[string]float64, name string, needles ...string) float64 {
	sum := 0.0
	for k, v := range m {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, n := range needles {
			if !strings.Contains(k, n) {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}

func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	base := store.New()
	eng, err := durable.Open(base, durable.Options{
		Dir:     t.TempDir(),
		Fsync:   durable.FsyncAlways,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := base.AddBatch(carCorpus(t).Triples()); err != nil {
		t.Fatal(err)
	}

	var slowBuf bytes.Buffer
	srv := newTestServer(t, Config{
		Base:               base,
		Durable:            eng,
		Metrics:            reg,
		SlowQueryThreshold: time.Nanosecond, // log every query
		SlowQueryLog:       &slowBuf,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	url := "http://" + ln.Addr().String()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// Traffic: one mutation (connecting rome to italy so a 3-pattern join
	// has a solution), the same query three times (miss, hit, hit), and a
	// checkpoint.
	resp, body := post("/triples", `{"add":[{"subject":"rome","predicate":"partOf","object":"italy"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response has no X-Request-Id")
	}

	const joinBGP = `{"bgp":"?x type car . ?x locatedIn ?site . ?site partOf ?region"}`
	for i := 0; i < 3; i++ {
		resp, body = post("/query", joinBGP)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
		if i > 0 && !bytes.Contains(body, []byte(`"cached":true`)) {
			t.Errorf("query %d not served from cache: %s", i, body)
		}
	}

	// EXPLAIN ANALYZE over the same BGP: the chosen order must be a
	// 3-pattern plan with live per-operator stats.
	resp, body = post("/query?explain=1", joinBGP)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	var ex ExplainResponse
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatalf("explain body: %v in %s", err, body)
	}
	if ex.Error != "" {
		t.Fatalf("explain error: %s", ex.Error)
	}
	if ex.Solutions != 1 {
		t.Errorf("explain solutions = %d, want 1 (beetle/rome/italy)", ex.Solutions)
	}
	if !ex.Plan.Exhaustive || ex.Plan.Considered != 6 || len(ex.Plan.Chosen) != 3 {
		t.Errorf("explain plan: exhaustive=%v considered=%d chosen=%v",
			ex.Plan.Exhaustive, ex.Plan.Considered, ex.Plan.Chosen)
	}
	if len(ex.Plan.Levels) != 3 {
		t.Fatalf("explain levels = %d, want 3", len(ex.Plan.Levels))
	}
	for i, lv := range ex.Plan.Levels {
		if lv.Pattern == "" || lv.Stat.Batches == 0 || lv.Stat.Nanos <= 0 {
			t.Errorf("level %d not annotated: %+v", i, lv)
		}
		if i > 0 && lv.Stat.Probes == 0 {
			t.Errorf("join level %d reports no probes: %+v", i, lv)
		}
	}
	if ex.PoolGets == 0 || ex.PoolPuts == 0 {
		t.Errorf("explain pool round trips = %d/%d, want nonzero", ex.PoolGets, ex.PoolPuts)
	}

	resp, body = post("/checkpoint", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}

	// The scrape must account exactly for the traffic above.
	m := scrape(t, url+"/metrics")
	if got := m["onto_queries_total"]; got != 4 {
		t.Errorf("onto_queries_total = %g, want 4 (3 streamed + 1 explain)", got)
	}
	if got := m["onto_mutations_total"]; got != 1 {
		t.Errorf("onto_mutations_total = %g, want 1", got)
	}
	if got := m["onto_query_seconds_count"]; got != 4 {
		t.Errorf("onto_query_seconds_count = %g, want 4", got)
	}
	if got := m["onto_mutation_seconds_count"]; got != 1 {
		t.Errorf("onto_mutation_seconds_count = %g, want 1", got)
	}
	if got := m["onto_cache_hits_total"]; got != 2 {
		t.Errorf("onto_cache_hits_total = %g, want 2", got)
	}
	if m["onto_cache_misses_total"] < 1 {
		t.Errorf("onto_cache_misses_total = %g, want >= 1", m["onto_cache_misses_total"])
	}
	if got := seriesSum(m, "onto_http_requests_total", `handler="/query"`, `code="200"`); got != 4 {
		t.Errorf("http requests for /query = %g, want 4", got)
	}
	if m["onto_wal_fsync_seconds_count"] < 1 {
		t.Errorf("onto_wal_fsync_seconds_count = %g, want >= 1", m["onto_wal_fsync_seconds_count"])
	}
	if m["onto_wal_frames_total"] < 1 {
		t.Errorf("onto_wal_frames_total = %g, want >= 1", m["onto_wal_frames_total"])
	}
	if got := m["onto_checkpoints_total"]; got != 1 {
		t.Errorf("onto_checkpoints_total = %g, want 1", got)
	}
	if m["onto_checkpoint_seconds_count"] < 1 {
		t.Errorf("onto_checkpoint_seconds_count = %g, want >= 1", m["onto_checkpoint_seconds_count"])
	}
	if m["onto_reason_generation"] < 1 {
		t.Errorf("onto_reason_generation = %g, want >= 1 after a mutation", m["onto_reason_generation"])
	}
	if m["onto_store_triples"] < 7 {
		t.Errorf("onto_store_triples = %g, want >= 7", m["onto_store_triples"])
	}
	if m["onto_uptime_seconds"] <= 0 {
		t.Errorf("onto_uptime_seconds = %g, want > 0", m["onto_uptime_seconds"])
	}

	// The process-level Go runtime series. Live heap is what the last
	// completed collection marked, so force one: the loaded store (its
	// dictionary at the very least) is reachable from this test and must be
	// inside the figure. The cycle counter and the pause count are monotone
	// across scrapes and move with a forced collection, which pauses twice.
	runtime.GC()
	g1 := scrape(t, url+"/metrics")
	runtime.GC()
	g2 := scrape(t, url+"/metrics")
	for _, name := range []string{"onto_go_heap_live_bytes", "onto_go_heap_goal_bytes", "onto_go_gc_cycles_total",
		"onto_go_gc_pause_seconds_count", "onto_go_goroutines"} {
		if _, ok := g2[name]; !ok {
			t.Errorf("scrape has no %s series", name)
		}
	}
	dictBytes := 0
	res := base.NewResolver()
	for id := 0; id < base.DictLen(); id++ {
		dictBytes += len(res.Name(store.SymbolID(id)))
	}
	if dictBytes == 0 || g2["onto_go_heap_live_bytes"] < float64(dictBytes) {
		t.Errorf("onto_go_heap_live_bytes = %g, want >= the dictionary's %d bytes", g2["onto_go_heap_live_bytes"], dictBytes)
	}
	if g1["onto_go_gc_cycles_total"] < 1 || g2["onto_go_gc_cycles_total"] <= g1["onto_go_gc_cycles_total"] {
		t.Errorf("onto_go_gc_cycles_total went %g -> %g across a forced collection", g1["onto_go_gc_cycles_total"], g2["onto_go_gc_cycles_total"])
	}
	if g2["onto_go_heap_goal_bytes"] < g2["onto_go_heap_live_bytes"] {
		t.Errorf("onto_go_heap_goal_bytes = %g, below the live heap %g", g2["onto_go_heap_goal_bytes"], g2["onto_go_heap_live_bytes"])
	}
	if g2["onto_go_gc_pause_seconds_count"] <= g1["onto_go_gc_pause_seconds_count"] {
		t.Errorf("onto_go_gc_pause_seconds_count went %g -> %g across a forced collection", g1["onto_go_gc_pause_seconds_count"], g2["onto_go_gc_pause_seconds_count"])
	}
	if inf := g2[`onto_go_gc_pause_seconds_bucket{le="+Inf"}`]; inf != g2["onto_go_gc_pause_seconds_count"] {
		t.Errorf("the +Inf pause bucket holds %g, the count is %g", inf, g2["onto_go_gc_pause_seconds_count"])
	}
	if g2["onto_go_goroutines"] < 2 {
		t.Errorf("onto_go_goroutines = %g, want >= 2 (this test and its server)", g2["onto_go_goroutines"])
	}

	// /stats and /metrics are the same counters: the JSON body must agree
	// with the scrape taken around it.
	resp2, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if float64(st.Queries) != m["onto_queries_total"] {
		t.Errorf("/stats queries %d != scrape %g", st.Queries, m["onto_queries_total"])
	}
	if float64(st.Cache.Hits) != m["onto_cache_hits_total"] {
		t.Errorf("/stats cache hits %d != scrape %g", st.Cache.Hits, m["onto_cache_hits_total"])
	}
	if st.UptimeSeconds <= 0 {
		t.Error("/stats uptime_seconds missing")
	}
	if st.Engine.Generation < 1 {
		t.Errorf("/stats engine generation = %d, want >= 1", st.Engine.Generation)
	}

	// The boot fixpoint ran before any instrument existed; the reasoner kept
	// its figures, and the gauge, the /stats field and the line ontoserve
	// logs at boot must all be that one record.
	boot := srv.Reasoner().MaterializeStats()
	var logged struct {
		inferred, rounds, heads, bulk int
		seconds                       float64
	}
	if _, err := fmt.Sscanf(boot.String(), "materialized %d inferred triples in %fs (%d rounds, %d heads, %d bulk-loaded)",
		&logged.inferred, &logged.seconds, &logged.rounds, &logged.heads, &logged.bulk); err != nil {
		t.Fatalf("boot log line %q does not parse: %v", boot.String(), err)
	}
	if g := m["onto_reason_materialize_seconds"]; g <= 0 || g != st.Engine.MaterializeSeconds || math.Abs(g-logged.seconds) > 0.0005 {
		t.Errorf("materialize seconds: gauge %g, /stats %g, log line %g", g, st.Engine.MaterializeSeconds, logged.seconds)
	}
	// One mutation added one triple since boot and derived nothing, so the
	// boot figures still reconcile with the live counters: every inferred
	// triple and every round before the mutation's own belong to the boot.
	if logged.inferred != st.Inferred || logged.bulk > logged.inferred || logged.heads < logged.inferred || logged.rounds < 1 || logged.rounds >= st.Engine.Rounds {
		t.Errorf("boot log line %q does not reconcile with /stats inferred %d, engine rounds %d", boot.String(), st.Inferred, st.Engine.Rounds)
	}

	// The slow-query log (threshold 1ns: everything logs) carries one
	// ndjson record per query, tied to the request id.
	lines := bytes.Split(bytes.TrimSpace(slowBuf.Bytes()), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("slow-query log has %d records, want 4: %s", len(lines), slowBuf.Bytes())
	}
	explains, cached := 0, 0
	for _, line := range lines {
		var rec slowQueryRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad slow-query record %s: %v", line, err)
		}
		if rec.RequestID == "" || rec.BGP == "" || rec.Mode != ModeMaterialized || rec.TS == "" {
			t.Errorf("incomplete slow-query record: %+v", rec)
		}
		if rec.Explain {
			explains++
		}
		if rec.Cached {
			cached++
		}
	}
	if explains != 1 || cached != 2 {
		t.Errorf("slow-query log: %d explain / %d cached records, want 1 / 2", explains, cached)
	}

	// The write path's unit, reconciled against exact traffic: every
	// content-changing request — whatever its shape — is one generation, one
	// feed frame and, under fsync=always, one fsync; a request that changes
	// nothing or is rejected is none of them.
	w0 := scrape(t, url+"/metrics")
	for _, w := range []struct {
		body    string
		code    int
		changes bool
	}{
		{`{"add":[{"subject":"kombi","predicate":"type","object":"car"},{"subject":"kombi","predicate":"locatedIn","object":"rome"}]}`, 200, true},
		{`{"add":[{"subject":"kombi","predicate":"locatedIn","object":"milan"}],"remove":[{"subject":"kombi","predicate":"locatedIn","object":"rome"}]}`, 200, true},
		{`{"remove":[{"subject":"kombi","predicate":"type","object":"car"},{"subject":"kombi","predicate":"locatedIn","object":"milan"},{"subject":"kombi","predicate":"locatedIn","object":"milan"}]}`, 200, true},
		{`{"add":[{"subject":"rome","predicate":"partOf","object":"italy"}],"remove":[{"subject":"kombi","predicate":"type","object":"car"}]}`, 200, false},
		{`{"add":[{"subject":"","predicate":"type","object":"car"}],"remove":[{"subject":"beetle","predicate":"type","object":"car"}]}`, 400, false},
	} {
		if resp, body := post("/triples", w.body); resp.StatusCode != w.code {
			t.Fatalf("write %s: %d %s, want %d", w.body, resp.StatusCode, body, w.code)
		}
	}
	w1 := scrape(t, url+"/metrics")
	const changing = 3
	if got := w1["onto_reason_generation"]; got != 1+changing || w1["onto_repl_feed_latest_generation"] != got {
		t.Errorf("after 1+%d content-changing requests: generation %g, the feed's latest %g; want both %d",
			changing, got, w1["onto_repl_feed_latest_generation"], 1+changing)
	}
	for _, name := range []string{"onto_wal_fsyncs_total", "onto_wal_fsync_seconds_count"} {
		if got := w1[name] - w0[name]; got != changing {
			t.Errorf("%s grew by %g over %d content-changing requests under fsync=always, want one each", name, got, changing)
		}
	}
	if got := w1["onto_wal_frames_total"] - w0["onto_wal_frames_total"]; got != changing+2 {
		t.Errorf("onto_wal_frames_total grew by %g, want %d: one record per content-changing request and one per dictionary growth (kombi, milan)", got, changing+2)
	}
	if got := w1["onto_mutations_total"] - w0["onto_mutations_total"]; got != 5 {
		t.Errorf("onto_mutations_total grew by %g, want 5 (every request counts, changing or not)", got)
	}

	// A rederiving remove: assert beetle's inferred vehicle type, then
	// retract it — type propagation puts it straight back. The reasoner's
	// counters and the /stats engine block are one set of counts, so they
	// agree with the rederivation included.
	for _, body := range []string{
		`{"add":[{"subject":"beetle","predicate":"type","object":"vehicle"}]}`,
		`{"remove":[{"subject":"beetle","predicate":"type","object":"vehicle"}]}`,
	} {
		if resp, b := post("/triples", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("write %s: %d %s", body, resp.StatusCode, b)
		}
	}
	w2 := scrape(t, url+"/metrics")
	resp3, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st3 StatsResponse
	if err := json.NewDecoder(resp3.Body).Decode(&st3); err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if st3.Engine.Rederived != 1 {
		t.Errorf("/stats engine rederived = %d, want 1 after the rederiving remove", st3.Engine.Rederived)
	}
	if w2["onto_reason_rounds_total"] != float64(st3.Engine.Rounds) || w2["onto_reason_derived_total"] != float64(st3.Engine.Derived) {
		t.Errorf("scrape rounds %g / derived %g, /stats engine rounds %d / derived %d; want equal",
			w2["onto_reason_rounds_total"], w2["onto_reason_derived_total"], st3.Engine.Rounds, st3.Engine.Derived)
	}
}

// newLocalServer starts srv on a loopback listener torn down with the test.
func newLocalServer(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return fmt.Sprintf("http://%s", ln.Addr())
}

// TestStageClockReconciles holds every view of the request clock to the one
// reading it came from, on a durable server behind a real listener: each
// EXPLAIN body's stages sum to its total, each handler's onto_stage_seconds
// sums add up to its latency histogram's sum and count every request once
// per stage, and the time no stage claimed — the tail after a handler's last
// mark — is at most 2 µs (4 µs under the race detector) for at least 95 % of
// the cached reads, cold reads and fsync=always writes alike. The tail is
// checked request by request, off the other stage's buckets, so one
// deschedule on a loaded box costs one request its place under the bound
// instead of swinging a share of the sum.
func TestStageClockReconciles(t *testing.T) {
	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := base.AddBatch(carCorpus(t).Triples()); err != nil {
		t.Fatal(err)
	}
	url := newLocalServer(t, newTestServer(t, Config{Base: base, Durable: eng}))
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s %v", path, body, resp.StatusCode, b, err)
		}
		return b
	}

	const n = 200
	// The tail bound, an other bucket's upper edge. The race detector slows
	// the instrumented tail about fivefold (0.2–0.3 µs becomes 1–2 µs), so
	// under it the bound is one bucket up: still short of an unmarked 5 µs.
	tail := 2e-6
	if raceEnabled {
		tail = 4e-6
	}
	kinds := []struct {
		name, handler, total string
		send                 func(i int)
	}{
		{"cached read", "/query", "onto_query_seconds", func(int) { post("/query", `{"bgp":"?x type vehicle"}`) }},
		{"cold read", "/query", "onto_query_seconds", func(i int) {
			// A new limit is a new cache key: every one of these evaluates.
			post("/query", fmt.Sprintf(`{"bgp":"?x type ?c . ?c subClassOf vehicle","limit":%d}`, 1000+i))
		}},
		{"durable write", "/triples", "onto_mutation_seconds", func(i int) {
			post("/triples", fmt.Sprintf(`{"add":[{"subject":"car%d","predicate":"type","object":"pickup"}]}`, i))
		}},
	}
	post("/query", `{"bgp":"?x type vehicle"}`) // the cached reads' one miss
	requests := map[string]float64{"/query": 1}
	m0 := scrape(t, url+"/metrics")
	for _, k := range kinds {
		for i := 0; i < n; i++ {
			k.send(i)
		}
		requests[k.handler] += n
		m1 := scrape(t, url+"/metrics")
		other := `onto_stage_seconds_sum{handler="` + k.handler + `",stage="other"}`
		tot := m1[k.total+"_sum"] - m0[k.total+"_sum"]
		share := (m1[other] - m0[other]) / tot
		short := `onto_stage_seconds_bucket{handler="` + k.handler + `",stage="other",le="` + strconv.FormatFloat(tail, 'g', -1, 64) + `"}`
		fast := m1[short] - m0[short]
		if tot <= 0 || fast < 0.95*n {
			t.Errorf("%d %ss: %g had other at most %g µs, want at least 95%%", n, k.name, fast, tail*1e6)
		}
		split := ""
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			key := `onto_stage_seconds_sum{handler="` + k.handler + `",stage="` + st.String() + `"}`
			if _, ok := m1[key]; ok {
				split += fmt.Sprintf(" %s %.1f", st, (m1[key]-m0[key])/n*1e6)
			}
		}
		t.Logf("%d %ss: %.1f µs each =%s; other %.2f%%, at most %g µs in %g", n, k.name, tot/n*1e6, split, 100*share, tail*1e6, fast)
		m0 = m1
	}

	for i := 0; i < 20; i++ {
		var ex ExplainResponse
		if err := json.Unmarshal(post("/query?explain=1", `{"bgp":"?x type ?c . ?c subClassOf vehicle"}`), &ex); err != nil {
			t.Fatal(err)
		}
		sum := int64(0)
		for name, ns := range ex.Stages {
			if name != "total" {
				sum += ns
			}
		}
		if len(ex.Stages) != 7 || ex.Stages["total"] <= 0 || sum != ex.Stages["total"] {
			t.Fatalf("explain stages %v: %d stages summing to %d, want decode…encode and other summing to total", ex.Stages, len(ex.Stages)-1, sum)
		}
	}
	requests["/query"] += 20

	m := scrape(t, url+"/metrics")
	for handler, total := range map[string]string{"/query": "onto_query_seconds", "/triples": "onto_mutation_seconds"} {
		if got := m[total+"_count"]; got != requests[handler] {
			t.Errorf("%s_count = %g, want %g", total, got, requests[handler])
		}
		stages, sum := 0, 0.0
		for k, v := range m {
			if !strings.HasPrefix(k, `onto_stage_seconds_count{handler="`+handler+`"`) {
				continue
			}
			stages++
			if v != requests[handler] {
				t.Errorf("%s = %g, want %g", k, v, requests[handler])
			}
			sum += m[strings.Replace(k, "_count{", "_sum{", 1)]
		}
		if want := map[string]int{"/query": 6, "/triples": 7}[handler]; stages != want {
			t.Errorf("%s has %d stage series, want %d", handler, stages, want)
		}
		if rel := math.Abs(sum-m[total+"_sum"]) / m[total+"_sum"]; !(rel <= 1e-9) {
			t.Errorf("%s: stage sums add to %gs, %s_sum is %gs (relative error %g)", handler, sum, total, m[total+"_sum"], rel)
		}
	}
}
