package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// benchEnv is what one harness invocation works in: the checkout, the built
// server, the corpus and its golden data directory. Everything the harness
// writes goes under buildDir, inside the checkout.
type benchEnv struct {
	root     string
	buildDir string // <root>/.bench_build
	tmp      string // this invocation's scratch directory, removed at exit
	bin      string
	binHash  string
	corpus   *corpus
	golden   string // holds data/ (the data directory) and corpus.triples
	// tracedOps is how many ops of the stream a traced run replays with
	// spans; the same number again is replayed without, for the overhead.
	tracedOps int
	probe     *probe
	logf      func(format string, args ...any)
}

// newEnv builds the server and, unless this checkout already holds one for
// the same binary and corpus, the golden data directory.
func newEnv(spec corpusSpec, logf func(string, ...any)) (*benchEnv, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &benchEnv{root: root, buildDir: filepath.Join(root, ".bench_build"), logf: logf, tracedOps: 5000}
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmp, err = os.MkdirTemp(e.buildDir, "run-"); err != nil {
		return nil, err
	}
	trackDir(e.tmp)
	e.bin = filepath.Join(e.buildDir, "ontoserve")
	start := time.Now()
	if e.binHash, err = buildServer(root, e.bin); err != nil {
		return nil, err
	}
	logf("built cmd/ontoserve (%s) in %.1fs", e.binHash, time.Since(start).Seconds())
	pinHarness(logf)
	if e.corpus, err = newCorpus(spec); err != nil {
		return nil, err
	}
	e.probe = newProbe()
	e.golden = filepath.Join(e.buildDir, fmt.Sprintf("golden-%s-%s", spec.Name, e.binHash))
	if _, err := os.Stat(filepath.Join(e.golden, "DONE")); err != nil {
		start = time.Now()
		if err := e.buildGolden(); err != nil {
			return nil, fmt.Errorf("building the golden data directory: %w", err)
		}
		logf("built golden data directory %s in %.1fs", filepath.Base(e.golden), time.Since(start).Seconds())
	}
	return e, nil
}

func (e *benchEnv) close() { removeDir(e.tmp) }

// buildGolden produces the directory every workload boots from: a pristine
// boot on the annotation snapshot, one checkpoint, then spec.Tail small
// mutations left in the log tail, then a clean shutdown. A recovery from it
// therefore folds a segment, bulk-restores, replays a tail and
// re-materializes — the restart cost setup_s is there to watch.
func (e *benchEnv) buildGolden() error {
	// Built beside its final name and renamed when complete, so an
	// interrupted build is never mistaken for a golden directory.
	work := filepath.Join(e.tmp, "golden")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	snapshot := filepath.Join(work, "corpus.triples")
	if err := e.corpus.writeSnapshot(snapshot); err != nil {
		return err
	}
	srv, err := startServer(e.bin, filepath.Join(e.tmp, "golden.log"),
		"-annotations", snapshot, "-data-dir", filepath.Join(work, "data"), "-fsync", "batch", "-checkpoint-mib", "-1")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		srv.kill()
		return fmt.Errorf("%w\n%s", err, srv.logTail())
	}
	c := newConn()
	defer c.close()
	status, body, err := c.post(srv.api+"/checkpoint", nil)
	if err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("POST /checkpoint: status %d, %v: %s", status, err, bytes.TrimSpace(body)))
	}
	sp := e.corpus.spec
	for i := sp.Instances; i < sp.total(); i++ {
		var w writeBody
		for _, t := range e.corpus.instanceTriples(i) {
			w.add = appendTriple(w.add, t.Subject, t.Predicate, t.Object)
		}
		status, body, err := c.post(srv.api+"/triples", w.bytes())
		if err != nil || status != http.StatusOK {
			return fail(fmt.Errorf("POST /triples (tail %d): status %d, %v: %s", i, status, err, bytes.TrimSpace(body)))
		}
	}
	st, err := newScraper(srv).get(srv.api + "/stats")
	if err != nil {
		return fail(err)
	}
	stats, err := parseStats(st)
	if err != nil {
		return fail(err)
	}
	if want := e.corpus.asserted(sp.total()); stats.Asserted != want {
		return fail(fmt.Errorf("golden store holds %d asserted triples, the corpus model %d", stats.Asserted, want))
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("shutting down the golden boot: %w\n%s", err, srv.logTail())
	}
	if err := os.WriteFile(filepath.Join(work, "DONE"), nil, 0o644); err != nil {
		return err
	}
	_ = os.RemoveAll(e.golden)
	return os.Rename(work, e.golden)
}

// serverArgs are the flags a workload's server runs with.
func (e *benchEnv) serverArgs(w *workloadDef, dataDir string) []string {
	return []string{
		// Required by the flag parser; never read, since the directory holds state.
		"-annotations", filepath.Join(e.golden, "corpus.triples"),
		"-data-dir", dataDir,
		"-fsync", "always",
		"-cache", strconv.Itoa(w.cacheMiB),
		"-checkpoint-mib", strconv.Itoa(w.checkpointMiB),
	}
}

// instance is one set-up server.
type instance struct {
	srv     *child
	dir     string  // its private directory: data/ and the stderr log
	seconds float64 // set-up time
	bootCPU float64 // CPU seconds the process had used when set-up ended
}

// discard kills the server and removes its directory.
func (in *instance) discard() {
	in.srv.kill()
	removeDir(in.dir)
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(srv *child) error {
	sc := newScraper(srv)
	defer sc.close()
	var err error
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if _, err = sc.get(srv.api + "/healthz"); err == nil {
			return nil
		}
		select {
		case <-srv.waited:
			return fmt.Errorf("ontoserve exited: %v", srv.waitErr)
		default:
		}
	}
	return fmt.Errorf("/healthz not 200 within 30s: %w", err)
}

// setUp is what setup_s times: copy the golden directory, spawn ontoserve
// on the copy, wait for the first 200 from /healthz (recovery and
// re-materialization are behind it), run the workload's warm-up.
func (e *benchEnv) setUp(w *workloadDef, warm []op, orc *oracle) (*instance, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	trackDir(dir)
	data := filepath.Join(dir, "data")
	if err := copyDir(filepath.Join(e.golden, "data"), data); err != nil {
		return nil, err
	}
	srv, err := startServer(e.bin, filepath.Join(dir, "ontoserve.log"), e.serverArgs(w, data)...)
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv, dir: dir}
	if err := waitHealthy(srv); err != nil {
		err = fmt.Errorf("%w\n%s", err, srv.logTail())
		in.discard()
		return nil, err
	}
	if res := drive(srv.api, warm, 0, orc); res.failed > 0 {
		err := fmt.Errorf("warm-up: %d of %d ops failed: %v\n%s", res.failed, len(warm), res.errs, srv.logTail())
		in.discard()
		return nil, err
	}
	in.seconds = time.Since(start).Seconds()
	boot, _ := srv.cpu()
	in.bootCPU = boot.cpuSeconds()
	return in, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	problems  []string // failed checks beyond per-op failures
	endToEnd  map[string]metric
	perLayer  map[string]metric // counts always; times only from a traced run
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// setupRepeats is how many times an untraced run sets the server up; it
// reports the median, and measures on the last.
const setupRepeats = 3

// runWorkload runs one workload once: generate the stream from seed, set
// up, measure the phase between two scrapes, check, tear down. With trace
// it sets up once and adds the in-process traced replay.
func (e *benchEnv) runWorkload(w *workloadDef, seed int64, seconds int, trace bool) (*runResult, error) {
	n := w.opsPerSecond * seconds
	genN := n
	if trace {
		genN = max(n, 2*e.tracedOps)
	}
	warm, stream := w.gen(e.corpus, rand.New(rand.NewSource(seed)), genN)
	ops := stream[:n]
	orc := newOracle(e.corpus)

	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	var in *instance
	setups := make([]float64, 0, repeats)
	probes := []float64{e.probe.sample()}
	for i := 0; i < repeats; i++ {
		if in != nil {
			in.discard()
		}
		var err error
		if in, err = e.setUp(w, warm, orc); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, in.seconds)
		probes = append(probes, e.probe.sample())
	}
	defer func() { in.discard() }()
	e.logf("%s: set-up times %.3fs, probe %.1fms", w.name, setups, probes)

	sc := newScraper(in.srv)
	defer sc.close()
	before, err := sc.take(false)
	if err != nil {
		return nil, fmt.Errorf("scrape before the phase: %w\n%s", err, in.srv.logTail())
	}
	stolen := stolenSeconds()
	phase := drive(in.srv.api, ops, w.rate, orc)
	stolen = stolenSeconds() - stolen
	after, err := sc.take(true)
	if err != nil {
		return nil, fmt.Errorf("scrape after the phase: %w\n%s", err, in.srv.logTail())
	}
	probePhase := (probes[len(probes)-1] + e.probe.sample()) / 2
	live, err := sc.liveHeap()
	if err != nil {
		return nil, fmt.Errorf("heap after the phase: %w", err)
	}
	rss, err := in.srv.rssPeakMiB()
	if err != nil {
		return nil, err
	}

	res := &runResult{workload: w.name, seed: seed, attempted: len(ops), failed: phase.failed}
	res.problems = append(res.problems, phase.errs...)
	if got, want := after.stats.Asserted, orc.assertedCount(); got != want {
		res.problems = append(res.problems, fmt.Sprintf("/stats asserted = %d after the phase, the model holds %d", got, want))
	}
	if msg := after.stats.Durability.Error; msg != "" {
		res.problems = append(res.problems, "durable engine reports a sticky error: "+msg)
	}

	recoverAfterKill := 0.0
	if w.name == "write_durable" {
		secs, problems, err := e.durabilityCheck(w, in, ops, orc, seed)
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
		recoverAfterKill = secs
		res.problems = append(res.problems, problems...)
	}

	nops := float64(len(ops))
	res.endToEnd = map[string]metric{
		"alloc_kib_per_op": {float64(after.heap.TotalAlloc-before.heap.TotalAlloc) / 1024 / nops, "KiB"},
		"heap_live_mib":    {float64(live) / (1 << 20), "MiB"},
		"setup_s":          {median(setups), "s"},
	}
	res.perLayer = countMetrics(w, phase, before, after, in, rss, recoverAfterKill)
	res.perLayer["machine.probe_setup_ms"] = metric{median(probes), "ms"}
	res.perLayer["machine.probe_phase_ms"] = metric{probePhase, "ms"}
	res.perLayer["machine.steal_share"] = metric{stolen / (phase.wall.Seconds() * float64(max(1, len(cpus.server)))), "ratio"}
	if trace {
		tm, err := e.tracedRun(w, warm, stream, seed)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for name, m := range tm {
			res.perLayer[name] = m
		}
	}
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// countMetrics derives the per-layer metrics that come from the client's
// own record and from the before/after scrapes of the untraced phase.
func countMetrics(w *workloadDef, phase *phaseResult, before, after *snapshot, in *instance, rss, recoverAfterKill float64) map[string]metric {
	nops := float64(len(phase.ops))
	reads := phase.latencies(func(o *op) bool { return o.kind.isRead() })
	writes := phase.latencies(func(o *op) bool { return !o.kind.isRead() })
	nwrites := float64(len(writes))
	all := phase.latencies(func(*op) bool { return true })
	d := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	per := func(x, n float64) float64 {
		if n <= 0 {
			return 0
		}
		return x / n
	}

	hits := float64(after.stats.Cache.Hits - before.stats.Cache.Hits)
	misses := float64(after.stats.Cache.Misses - before.stats.Cache.Misses)
	population := 0
	for _, n := range phase.textBytes {
		population += n
	}
	removes := 0.0
	for i := range phase.ops {
		if phase.ops[i].removed > 0 {
			removes++
		}
	}
	queryMean := histMean(before.metrics, after.metrics, "onto_query_seconds") * 1000
	mutationMean := histMean(before.metrics, after.metrics, "onto_mutation_seconds") * 1000
	handlerMean := per(queryMean*float64(len(reads))+mutationMean*float64(len(writes)), nops)
	fsyncs := float64(after.stats.Durability.Fsyncs - before.stats.Durability.Fsyncs)

	m := map[string]metric{
		"client.ops_s":        {(nops - float64(phase.failed)) / phase.wall.Seconds(), "1/s"},
		"client.p50_ms":       {percentile(all, 0.50), "ms"},
		"client.p95_ms":       {percentile(all, 0.95), "ms"},
		"client.p99_ms":       {percentile(all, 0.99), "ms"},
		"client.max_ms":       {percentile(all, 1), "ms"},
		"client.read_p50_ms":  {percentile(reads, 0.50), "ms"},
		"client.write_p50_ms": {percentile(writes, 0.50), "ms"},
		"client.late_p99_ms":  {percentile(append([]float64(nil), phase.late...), 0.99), "ms"},

		"process.rss_peak_mib":       {rss, "MiB"},
		"process.gc_cycles":          {float64(after.heap.NumGC - before.heap.NumGC), "count"},
		"process.mallocs_per_op":     {float64(after.heap.Mallocs-before.heap.Mallocs) / nops, "count"},
		"process.boot_cpu_s":         {in.bootCPU, "s"},
		"process.cpu_ms_per_op":      {(after.cpu.cpuSeconds() - before.cpu.cpuSeconds()) * 1000 / nops, "ms"},
		"process.cpu_user_ms_per_op": {(after.cpu.userSeconds - before.cpu.userSeconds) * 1000 / nops, "ms"},
		"process.cpu_sys_ms_per_op":  {(after.cpu.sysSeconds - before.cpu.sysSeconds) * 1000 / nops, "ms"},

		"server.cache_hit_ratio":        {per(hits, hits+misses), "ratio"},
		"server.cache_invalidations":    {float64(after.stats.Cache.Invalidations - before.stats.Cache.Invalidations), "count"},
		"server.cache_entries":          {float64(after.stats.Cache.Entries), "count"},
		"server.cache_mib":              {float64(after.stats.Cache.Bytes) / (1 << 20), "MiB"},
		"server.cache_population_ratio": {float64(population) / float64(w.cacheMiB<<20), "ratio"},
		"server.query_mean_ms":          {queryMean, "ms"},
		"server.mutation_mean_ms":       {mutationMean, "ms"},
		"server.http_overhead_ms":       {percentile(all, 0.50) - handlerMean, "ms"},

		"store.triples":      {after.metrics["onto_store_triples"], "count"},
		"store.dict_symbols": {after.metrics["onto_store_dict_symbols"], "count"},

		"reason.rounds":                 {d("onto_reason_rounds_total"), "count"},
		"reason.rounds_per_write":       {per(d("onto_reason_rounds_total"), nwrites), "count"},
		"reason.derived_per_write":      {per(d("onto_reason_derived_total"), nwrites), "count"},
		"reason.overdeleted_per_remove": {per(float64(after.stats.Engine.Overdeleted-before.stats.Engine.Overdeleted), removes), "count"},
		"reason.rederived_per_remove":   {per(float64(after.stats.Engine.Rederived-before.stats.Engine.Rederived), removes), "count"},
		"reason.inferred_triples":       {after.metrics["onto_store_inferred_triples"], "count"},

		"durable.wal_frames":           {d("onto_wal_frames_total"), "count"},
		"durable.fsyncs_per_write":     {per(fsyncs, nwrites), "count"},
		"durable.fsync_mean_ms":        {histMean(before.metrics, after.metrics, "onto_wal_fsync_seconds") * 1000, "ms"},
		"durable.frames_per_commit":    {histMean(before.metrics, after.metrics, "onto_wal_commit_frames"), "count"},
		"durable.wal_bytes_per_write":  {per(d("onto_wal_bytes_total"), nwrites), "B"},
		"durable.checkpoints":          {float64(after.stats.Durability.Checkpoints - before.stats.Durability.Checkpoints), "count"},
		"durable.checkpoint_mean_ms":   {histMean(before.metrics, after.metrics, "onto_checkpoint_seconds") * 1000, "ms"},
		"durable.merges":               {float64(after.stats.Durability.Merges - before.stats.Durability.Merges), "count"},
		"durable.write_amplification":  {after.stats.Durability.WriteAmplification, "ratio"},
		"durable.segment_mib":          {after.metrics["onto_durable_segment_bytes"] / (1 << 20), "MiB"},
		"durable.recover_boot_s":       {before.stats.Durability.RecoverySeconds, "s"},
		"durable.recover_after_kill_s": {recoverAfterKill, "s"},

		"repl.feed_appends_per_write": {per(d("onto_repl_feed_appends_total"), nwrites), "count"},

		"obs.scrape_ms":    {after.scrapeMS, "ms"},
		"obs.scrape_bytes": {float64(after.scrapeBytes), "B"},
	}
	return m
}

// durabilityCheck is the end of write_durable: SIGKILL the server, boot it
// again on the same directory, and require the asserted count and a seeded
// sample of 1000 instances the phase added or removed to be exactly as
// acknowledged. SIGKILL leaves the page cache alone, so this checks the log
// protocol (acknowledged ⇒ written and replayable), not the device.
func (e *benchEnv) durabilityCheck(w *workloadDef, in *instance, ops []op, orc *oracle, seed int64) (float64, []string, error) {
	in.srv.kill()
	start := time.Now()
	srv, err := startServer(e.bin, filepath.Join(in.dir, "ontoserve-rebooted.log"), e.serverArgs(w, filepath.Join(in.dir, "data"))...)
	if err != nil {
		return 0, nil, err
	}
	in.srv = srv // the caller's teardown now stops this one
	if err := waitHealthy(srv); err != nil {
		return 0, nil, fmt.Errorf("%w\n%s", err, srv.logTail())
	}
	seconds := time.Since(start).Seconds()

	var problems []string
	sc := newScraper(srv)
	defer sc.close()
	b, err := sc.get(srv.api + "/stats")
	if err != nil {
		return 0, nil, err
	}
	stats, err := parseStats(b)
	if err != nil {
		return 0, nil, err
	}
	if want := orc.assertedCount(); stats.Asserted != want {
		problems = append(problems, fmt.Sprintf("after SIGKILL and recovery /stats asserted = %d, acknowledged writes leave %d", stats.Asserted, want))
	}

	// The last acknowledged state of every instance the phase wrote.
	final := map[int]*change{}
	var insts []int
	for i := range ops {
		for j := range ops[i].changes {
			ch := &ops[i].changes[j]
			if _, seen := final[ch.inst]; !seen {
				insts = append(insts, ch.inst)
			}
			final[ch.inst] = ch
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	c := newConn()
	defer c.close()
	bad := 0
	for _, inst := range insts[:min(1000, len(insts))] {
		ch := final[inst]
		st, want := ch.after, 1
		if st == nil {
			st, want = ch.before, 0 // removed: its triples must be gone
		}
		bgp := instName(inst) + " type " + className(int(st.types[0]))
		status, body, err := c.post(srv.api+"/query", []byte(`{"bgp":"`+bgp+`","mode":"plain"}`))
		if err != nil {
			return 0, nil, err
		}
		t, perr := parseQueryResponse(body)
		if status != http.StatusOK || perr != nil || t.Solutions != want {
			if bad++; bad <= 5 {
				problems = append(problems, fmt.Sprintf("after SIGKILL and recovery %q has %d solutions (status %d, %v), acknowledged state says %d", bgp, t.Solutions, status, perr, want))
			}
		}
	}
	if bad > 5 {
		problems = append(problems, fmt.Sprintf("... and %d more sampled instances", bad-5))
	}
	if len(insts) == 0 {
		return 0, nil, errors.New("the phase wrote nothing to sample")
	}
	return seconds, problems, nil
}
