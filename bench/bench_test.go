package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// testSpec keeps the class, site and region counts of the real corpus (the
// mixed_open population needs that many distinct texts) on few instances.
var testSpec = corpusSpec{Name: "test", Instances: 600, Tail: 20, Classes: 120, MaxParents: 2, Sites: 89, Regions: 7}

// testCorpus is built once: classifying the 120-class hierarchy takes over
// a second and no test changes a corpus.
var testCorpus = sync.OnceValue(func() *corpus {
	c, err := newCorpus(testSpec)
	if err != nil {
		panic(err)
	}
	return c
})

func streamHash(warm, ops []op) [32]byte {
	h := sha256.New()
	for _, part := range [][]op{warm, ops} {
		for i := range part {
			h.Write([]byte{byte(part[i].kind), 0})
			h.Write(part[i].body)
			h.Write([]byte{'\n'})
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	c := testCorpus()
	for i := range workloads {
		w := &workloads[i]
		gen := func(seed int64) [32]byte {
			return streamHash(w.gen(c, rand.New(rand.NewSource(seed)), 3000))
		}
		if gen(7) != gen(7) {
			t.Errorf("%s: the same seed gave two different request streams", w.name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

// TestRankFixesCost pins the property that makes runs on different seeds
// comparable: the shape and class of the text at every Zipf rank do not
// depend on the seed.
func TestRankFixesCost(t *testing.T) {
	c := testCorpus()
	for _, name := range []string{"read_hot", "mixed_open"} {
		w := workloadByName(name)
		a, _ := w.gen(c, rand.New(rand.NewSource(1)), 10)
		b, _ := w.gen(c, rand.New(rand.NewSource(2)), 10)
		if len(a) != len(b) {
			t.Fatalf("%s: %d texts on seed 1, %d on seed 2", name, len(a), len(b))
		}
		for rank := range a {
			if a[rank].key.kind != b[rank].key.kind || a[rank].key.class != b[rank].key.class {
				t.Fatalf("%s rank %d: %+v on seed 1, %+v on seed 2", name, rank, a[rank].key, b[rank].key)
			}
		}
		seen := map[string]bool{}
		for _, o := range a {
			if seen[string(o.body)] {
				t.Fatalf("%s: text %s twice in the population", name, o.body)
			}
			seen[string(o.body)] = true
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {1, 10}, {0.11, 2}} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	if got := dueAt(0, 250); got != 0 {
		t.Errorf("op 0 due at %v, want 0", got)
	}
	if got := dueAt(250, 250); got != time.Second {
		t.Errorf("op 250 at 250/s due at %v, want 1s", got)
	}
	if got := dueAt(1, 500); got != 2*time.Millisecond {
		t.Errorf("op 1 at 500/s due at %v, want 2ms", got)
	}
	// An op sent 3 ms late and answered 1 ms after that took 4 ms for the
	// user who was due to send it: latency counts from the due time.
	start := time.Now()
	due := start.Add(dueAt(5, 500))
	sent := due.Add(3 * time.Millisecond)
	done := sent.Add(time.Millisecond)
	if late, lat := ms(sent.Sub(due)), ms(done.Sub(due)); late != 3 || lat != 4 {
		t.Errorf("lateness %v ms and latency %v ms, want 3 and 4", late, lat)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; Python gives 1.5, 12", q1, q3)
	}
	sp := summarise([]float64{10, 20, 10, 20, 10, 20, 10, 20, 10, 20})
	if sp.setA != 10 || sp.setB != 20 || sp.disagreement != 1 {
		t.Errorf("interleaved sets: %+v", sp)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP onto_query_seconds POST /query handler latency.
# TYPE onto_query_seconds histogram
onto_query_seconds_bucket{le="1e-06"} 0
onto_query_seconds_bucket{le="+Inf"} 12
onto_query_seconds_sum 0.0036
onto_query_seconds_count 12
# TYPE onto_wal_frames_total counter
onto_wal_frames_total 31369
onto_store_shard_triples{shard="3"} 77
onto_durable_write_amplification 3.41
`
	m, err := parseMetrics([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["onto_query_seconds_sum"] != 0.0036 || m["onto_query_seconds_count"] != 12 || m["onto_wal_frames_total"] != 31369 {
		t.Errorf("parsed %v", m)
	}
	if _, labelled := m["onto_store_shard_triples"]; labelled || len(m) != 4 {
		t.Errorf("labelled series must be skipped: %v", m)
	}
	before := promSample{"onto_query_seconds_sum": 0.0012, "onto_query_seconds_count": 4}
	if got := histMean(before, m, "onto_query_seconds"); math.Abs(got-0.0003) > 1e-12 {
		t.Errorf("histMean = %v, want 0.0003", got)
	}
	if got := histMean(m, m, "onto_query_seconds"); got != 0 {
		t.Errorf("histMean over no observations = %v, want 0", got)
	}
	if _, err := parseMetrics([]byte("onto_x notanumber\n")); err == nil {
		t.Error("a malformed value must be an error")
	}
}

func TestParseStats(t *testing.T) {
	body := `{"asserted":205370,"inferred":1186868,"total":1392238,"engine":{"rounds":9,"derived":1186868,"overdeleted":3,"rederived":2,"generation":0},"cache":{"entries":64,"bytes":487000,"hits":100,"misses":64,"invalidations":5},"durability":{"seq":7,"fsyncs":2,"checkpoints":6,"merges":3,"write_amplification":3.41,"recovery_seconds":0.12},"replication":{"role":"primary","feed":{"appends":17}},"queries":164,"mutations":0}`
	s, err := parseStats([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if s.Asserted != 205370 || s.Engine.Overdeleted != 3 || s.Cache.Hits != 100 || s.Cache.Invalidations != 5 ||
		s.Durability.Checkpoints != 6 || s.Durability.Merges != 3 || s.Durability.RecoverySeconds != 0.12 {
		t.Errorf("parsed %+v", s)
	}
	if _, err := parseStats([]byte(`{"asserted":1}`)); err == nil {
		t.Error("a memory-only server's /stats must be refused")
	}
}

func TestParseHeapProfile(t *testing.T) {
	text := `heap profile: 1: 16 [4: 64] @ heap/1048576
1: 16 [4: 64] @ 0x46b2a5 0x46b1d4
#	0x46b2a4	main.f+0x24	/x/main.go:9

# runtime.MemStats
# Alloc = 810120
# TotalAlloc = 5232810120
# Sys = 8344840
# Mallocs = 8834
# Frees = 370
# HeapAlloc = 176123904
# HeapSys = 3735552
# NumGC = 17
# NumForcedGC = 1
`
	h, err := parseHeapProfile([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if h != (heapSample{TotalAlloc: 5232810120, HeapAlloc: 176123904, Mallocs: 8834, NumGC: 17}) {
		t.Errorf("parsed %+v", h)
	}
	if _, err := parseHeapProfile([]byte("# TotalAlloc = 5\n")); err == nil {
		t.Error("a profile without the other memstats lines must be an error")
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	line := "4242 (onto serve) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 317 45 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615\n"
	st, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if st.userSeconds != 3.17 || st.sysSeconds != 0.45 {
		t.Errorf("cpu = %+v, want 3.17 s user and 0.45 s system", st)
	}
	if _, err := parseProcStat([]byte("1 (x) S 1 2 3")); err == nil {
		t.Error("a truncated stat line must be an error")
	}
	hwm, err := parseVmHWM([]byte("Name:\tontoserve\nVmPeak:\t  900000 kB\nVmHWM:\t  615424 kB\nVmRSS:\t  400000 kB\n"))
	if err != nil || hwm != 601 {
		t.Errorf("VmHWM = %v MiB, %v; want 601", hwm, err)
	}
}

func TestParseListenAddrs(t *testing.T) {
	log := "ontoserve: 2026/09/26 17:11:11 recovered 205370 triples from /d in 0.108s (1 segment tiers, log seq 4012, fsync=always)\n" +
		"ontoserve: 2026/09/26 17:11:11 pprof on http://127.0.0.1:40123/debug/pprof/\n"
	if api, pprof := parseListenAddrs([]byte(log)); api != "" || pprof != "http://127.0.0.1:40123" {
		t.Errorf("before the serving line: api %q pprof %q", api, pprof)
	}
	log += "ontoserve: 2026/09/26 17:11:14 serving 205370 asserted + 1186868 inferred triples on http://127.0.0.1:35001\n"
	if api, pprof := parseListenAddrs([]byte(log)); api != "http://127.0.0.1:35001" || pprof != "http://127.0.0.1:40123" {
		t.Errorf("api %q pprof %q", api, pprof)
	}
}

func TestParseQueryResponse(t *testing.T) {
	ok := "{\"vars\":[\"x\"]}\n{\"bind\":{\"x\":\"a\"}}\n{\"bind\":{\"x\":\"b\"}}\n{\"done\":true,\"solutions\":2,\"truncated\":false,\"cached\":true,\"elapsed_us\":0}\n"
	tr, err := parseQueryResponse([]byte(ok))
	if err != nil || tr.Solutions != 2 || !tr.Cached {
		t.Errorf("trailer %+v, %v", tr, err)
	}
	for name, body := range map[string]string{
		"no trailer":     "{\"vars\":[\"x\"]}\n{\"bind\":{\"x\":\"a\"}}\n",
		"trailer error":  "{\"vars\":[]}\n{\"done\":true,\"solutions\":0,\"error\":\"query interrupted\"}\n",
		"row count":      "{\"vars\":[\"x\"]}\n{\"bind\":{\"x\":\"a\"}}\n{\"done\":true,\"solutions\":2}\n",
		"cut mid-stream": "{\"vars\":[\"x\"]}\n{\"bind\":{\"x\":",
		"empty":          "",
	} {
		if _, err := parseQueryResponse([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// bruteForce recounts a key from the instance states, the slow way.
type bruteForce struct {
	c      *corpus
	states map[int]*instState
}

func newBruteForce(c *corpus) *bruteForce {
	b := &bruteForce{c: c, states: map[int]*instState{}}
	for i := 0; i < c.spec.total(); i++ {
		b.states[i] = defaultState(c.spec, i)
	}
	return b
}

func (b *bruteForce) count(key readKey) int {
	if key.kind == opQ4 {
		n := 0
		for s := 0; s < b.c.spec.Sites; s++ {
			if uint8(b.c.spec.regionOf(s)) == key.arg {
				n++
			}
		}
		return n
	}
	n := 0
	for _, st := range b.states {
		n += b.c.count(st, key)
	}
	return n
}

func (b *bruteForce) asserted() int {
	n := len(b.c.schema)
	for _, st := range b.states {
		n += st.triples()
	}
	return n
}

func TestOracleAgreesWithRecount(t *testing.T) {
	c := testCorpus()
	for _, name := range []string{"write_durable", "mixed_open"} {
		w := workloadByName(name)
		_, ops := w.gen(c, rand.New(rand.NewSource(3)), 1500)
		orc, brute := newOracle(c), newBruteForce(c)
		rng := rand.New(rand.NewSource(4))
		check := func(key readKey, limit int) {
			t.Helper()
			want := brute.count(key)
			sols, trunc := want, false
			if limit > 0 && want > limit {
				sols, trunc = limit, true
			}
			if err := orc.endRead(orc.beginRead(key), limit, sols, trunc); err != nil {
				t.Fatalf("%s: oracle rejects the recounted answer for %+v: %v", name, key, err)
			}
			if err := orc.endRead(orc.beginRead(key), 0, want+1, false); err == nil {
				t.Fatalf("%s: oracle accepts %d solutions for %+v, one too many", name, want+1, key)
			}
		}
		for i := range ops {
			o := &ops[i]
			if o.kind.isRead() {
				check(o.key, o.limit)
				continue
			}
			orc.beginWrite(o)
			if err := orc.endWrite(o, true, o.added, o.removed); err != nil {
				t.Fatal(err)
			}
			for j := range o.changes {
				ch := &o.changes[j]
				if ch.after == nil {
					delete(brute.states, ch.inst)
				} else {
					brute.states[ch.inst] = ch.after
				}
			}
			if i%50 == 0 {
				class, site := uint8(rng.Intn(c.spec.Classes)), uint8(rng.Intn(c.spec.Sites))
				check(readKey{kind: opQ1, class: class}, q1Limit)
				check(readKey{kind: opQ2, class: class, arg: site}, 0)
				check(readKey{kind: opQ3, class: class, arg: uint8(c.spec.regionOf(int(site)))}, q3Limit)
				check(readKey{kind: opQ4, arg: uint8(rng.Intn(c.spec.Regions))}, 0)
			}
		}
		if got, want := orc.assertedCount(), brute.asserted(); got != want {
			t.Errorf("%s: oracle holds %d asserted triples, the recount %d", name, got, want)
		}
		for i := range ops {
			if o := &ops[i]; !o.kind.isRead() {
				fresh := newOracle(c)
				fresh.beginWrite(o)
				if err := fresh.endWrite(o, true, o.added+1, o.removed); err == nil {
					t.Errorf("%s: oracle accepts a wrong added count", name)
				}
				break
			}
		}
	}
}

// TestOracleOverlap: a read in flight together with a write on its key may
// see the count before, during or after the write, and nothing else.
func TestOracleOverlap(t *testing.T) {
	c := testCorpus()
	s := newSim(c, rand.New(rand.NewSource(5)))
	orc := newOracle(c)
	move := s.moveSite()
	ch := move.changes[0]
	class := ch.before.types[0]
	from := readKey{kind: opQ2, class: class, arg: ch.before.sites[0]}
	to := readKey{kind: opQ2, class: class, arg: ch.after.sites[0]}
	base := orc.current(from)

	r := orc.beginRead(from) // read first, write arrives while it is in flight
	orc.beginWrite(&move)
	if err := orc.endRead(r, 0, base-1, false); err != nil {
		t.Errorf("a read overlapping the move may already miss the instance: %v", err)
	}
	r = orc.beginRead(to) // write pending when the read starts
	if err := orc.endRead(r, 0, orc.current(to)+1, false); err != nil {
		t.Errorf("a read overlapping the move may already see the instance: %v", err)
	}
	r = orc.beginRead(from)
	if err := orc.endRead(r, 0, base-2, false); err == nil {
		t.Error("one move cannot take two instances away")
	}
	if err := orc.endWrite(&move, true, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := orc.endRead(orc.beginRead(from), 0, base, false); err == nil {
		t.Error("after the acknowledgement the old count is stale and must be refused")
	}
	if err := orc.endRead(orc.beginRead(from), 0, base-1, false); err != nil {
		t.Errorf("after the acknowledgement: %v", err)
	}
}

func TestWritesKeepTheirDistance(t *testing.T) {
	c := testCorpus()
	for _, name := range []string{"write_durable", "mixed_open"} {
		_, ops := workloadByName(name).gen(c, rand.New(rand.NewSource(6)), 4000)
		last := map[int]int{} // instance → index among writes of the last write touching it
		nwrite := 0
		for i := range ops {
			if ops[i].kind.isRead() {
				continue
			}
			for _, ch := range ops[i].changes {
				if prev, ok := last[ch.inst]; ok && nwrite-prev < overlapWindow {
					t.Fatalf("%s: instance %d written by writes %d and %d, closer than %d", name, ch.inst, prev, nwrite, overlapWindow)
				}
				last[ch.inst] = nwrite
			}
			nwrite++
		}
		if nwrite == 0 {
			t.Fatalf("%s: no writes generated", name)
		}
	}
}

// TestSmoke builds cmd/ontoserve, boots it for real (listeners on
// 127.0.0.1:0, addresses parsed from its log) on the 1e4-instance corpus,
// and runs every workload at no more than 500 ops, two of them traced; it
// also holds BENCHMARK.json to the names the harness prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	t.Cleanup(killEverything)
	env, err := newEnv(smoke1e4, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	env.tracedOps = 200
	file, err := readBenchmarkFile(env.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness runs %d", len(file.Workloads), len(workloads))
	}
	for i := range workloads {
		if i < len(file.Workloads) && file.Workloads[i].Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness's is %q", i, file.Workloads[i].Name, workloads[i].name)
		}
		w := smokeSized(&workloads[i], 1)
		traced := w.name == "read_cold" || w.name == "write_durable"
		res, err := env.runWorkload(w, 1, 1, traced)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() || res.attempted != w.opsPerSecond {
			t.Errorf("%s: attempted %d of %d, failed %d, problems %v", w.name, res.attempted, w.opsPerSecond, res.failed, res.problems)
		}
		if len(res.endToEnd) != len(file.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(res.endToEnd), len(file.EndToEnd))
		}
		for _, m := range file.EndToEnd {
			if got, ok := res.endToEnd[m.Name]; !ok || got.Unit != m.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end %s = %+v (present %v), BENCHMARK.json wants a positive value in %s", w.name, m.Name, got, ok, m.Unit)
			}
			if m.Bound < boundFloors[m.Name] {
				t.Errorf("BENCHMARK.json bound of %s is %v, below its floor %v", m.Name, m.Bound, boundFloors[m.Name])
			}
		}
		if !traced {
			continue
		}
		if len(res.perLayer) != len(file.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", w.name, len(res.perLayer), len(file.PerLayer))
		}
		for _, m := range file.PerLayer {
			if got, ok := res.perLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), BENCHMARK.json wants unit %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
	}
}
