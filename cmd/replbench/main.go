// Command replbench measures the replicated serving tier's fleet-level
// throughput and staleness (repro/internal/repl): it boots one primary and
// a growing fleet of read replicas in-process — each node a full server on
// its own loopback TCP listener, each replica booted from GET /repl/snapshot
// and fed by GET /repl/deltas exactly as a separate process would be — and
// drives closed-loop uncached /query load at every fleet size while a
// background mutator writes through the primary.
//
// Usage:
//
//	replbench -out FILE [-triples 100000] [-replicas 1,2,4] [-duration 10s]
//	replbench -smoke -out FILE
//
// For each fleet size the harness records aggregate and per-node QPS and
// the replication-lag percentiles sampled during the run (the staleness
// bound /stats advertises as lag_generations), then writes one JSON
// document with the whole table plus the scaling ratio from the smallest
// to the largest fleet. Queries run with the result cache disabled so
// every request plans, joins and marshals from scratch — the harness
// measures serving capacity, not cache hit rate.
//
// Aggregate QPS of CPU-bound queries can only scale with nodes when the
// nodes have cores to scale onto; the document records runtime.NumCPU()
// next to the ratio so a single-core result is read as what it is.
// -smoke shrinks the corpus and duration for CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// options is the parsed flag set of one replbench invocation.
type options struct {
	triples   int
	fleets    []int
	duration  time.Duration
	workers   int
	mutEvery  time.Duration
	out       string
	retain    int
	queryWait time.Duration
}

// run is main with its dependencies at the surface, for tests.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("replbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	triples := fs.Int("triples", 100_000, "corpus size in type-annotation triples")
	fleetsFlag := fs.String("replicas", "1,2,4", "comma-separated fleet sizes to measure")
	duration := fs.Duration("duration", 10*time.Second, "measured load per fleet size")
	workers := fs.Int("workers", 4, "closed-loop query workers per replica")
	mutEvery := fs.Duration("mutate-interval", 50*time.Millisecond, "cadence of background writes through the primary (0 disables)")
	out := fs.String("out", "", "file the results document is written to (required)")
	retain := fs.Int("repl-retain", 0, "primary delta retention in frames (0 picks the default)")
	smoke := fs.Bool("smoke", false, "CI preset: 5000 triples, 2s per fleet")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: replbench -out FILE [-triples n] [-replicas 1,2,4] [-duration 10s]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "replbench: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "replbench: -out names no file for the results document")
		return 2
	}
	opts := options{
		triples:   *triples,
		duration:  *duration,
		workers:   *workers,
		mutEvery:  *mutEvery,
		out:       *out,
		retain:    *retain,
		queryWait: 60 * time.Second,
	}
	if *smoke {
		opts.triples = 5_000
		opts.duration = 2 * time.Second
	}
	for _, part := range strings.Split(*fleetsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "replbench: -replicas wants positive sizes, got %q\n", part)
			return 2
		}
		opts.fleets = append(opts.fleets, n)
	}
	if len(opts.fleets) == 0 {
		fmt.Fprintln(stderr, "replbench: -replicas names no fleet sizes")
		return 2
	}

	logger := log.New(stderr, "replbench: ", log.LstdFlags)
	doc, err := bench(opts, logger)
	if err != nil {
		fmt.Fprintf(stderr, "replbench: %v\n", err)
		return 1
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "replbench: %v\n", err)
		return 1
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(opts.out, blob, 0o644); err != nil {
		fmt.Fprintf(stderr, "replbench: %v\n", err)
		return 1
	}
	logger.Printf("wrote %s", opts.out)
	return 0
}

// resultDoc is the results document.
type resultDoc struct {
	// Bench names the snapshot; Date is the run day (UTC).
	Bench string `json:"bench"`
	Date  string `json:"date"`
	// Triples is the corpus size; Cores is runtime.NumCPU() — the context
	// any scaling ratio must be read in.
	Triples int `json:"triples"`
	Cores   int `json:"cores"`
	// DurationS and WorkersPerNode describe the load shape.
	DurationS       float64 `json:"duration_s"`
	WorkersPerNode  int     `json:"workers_per_node"`
	MutateEveryMS   int64   `json:"mutate_interval_ms"`
	UncachedQueries bool    `json:"uncached_queries"`
	// Fleets is one row per measured fleet size.
	Fleets []fleetResult `json:"fleets"`
	// ScalingMinToMax is aggregate QPS at the largest fleet over aggregate
	// QPS at the smallest.
	ScalingMinToMax float64 `json:"scaling_min_to_max"`
}

// fleetResult is the measurement of one fleet size.
type fleetResult struct {
	Replicas int `json:"replicas"`
	// QPS is the fleet's aggregate uncached query throughput; PerNodeQPS
	// the mean per replica.
	QPS        float64 `json:"qps"`
	PerNodeQPS float64 `json:"per_node_qps"`
	Queries    int64   `json:"queries"`
	Errors     int64   `json:"errors"`
	// LagP50 through LagMax are the replication-lag samples (generations
	// behind the primary) observed across the fleet during the run — the
	// staleness bound /stats reports as lag_generations.
	LagP50 uint64 `json:"staleness_gen_p50"`
	LagP95 uint64 `json:"staleness_gen_p95"`
	LagP99 uint64 `json:"staleness_gen_p99"`
	LagMax uint64 `json:"staleness_gen_max"`
	// Mutations is how many background writes the primary served during
	// the measurement window.
	Mutations int64 `json:"mutations"`
}

// node is one serving process of the harness: a server on its own loopback
// listener, plus the replica state when it is not the primary.
type node struct {
	srv    *server.Server
	url    string
	rep    *repl.Replica
	cancel context.CancelFunc
	done   chan error
}

// close stops the node's listener and feed loop.
func (n *node) close() {
	n.cancel()
	<-n.done
}

// startServer serves srv on a fresh loopback listener.
func startServer(srv *server.Server) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ctx, ln) }()
	return n, nil
}

// bench runs the whole measurement: corpus, primary, one fleet per size.
func bench(opts options, logger *log.Logger) (*resultDoc, error) {
	base, sample, err := corpus(opts.triples)
	if err != nil {
		return nil, err
	}
	logger.Printf("corpus: %d triples, %d sampled classes", base.Len(), len(sample))

	psrv, err := server.New(server.Config{Base: base, ReplRetain: opts.retain})
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	primary, err := startServer(psrv)
	if err != nil {
		return nil, err
	}
	defer primary.close()
	logger.Printf("primary on %s (generation %d)", primary.url, psrv.Reasoner().Generation())

	doc := &resultDoc{
		Bench:           "replbench",
		Date:            time.Now().UTC().Format("2006-01-02"),
		Triples:         opts.triples,
		Cores:           runtime.NumCPU(),
		DurationS:       opts.duration.Seconds(),
		WorkersPerNode:  opts.workers,
		MutateEveryMS:   opts.mutEvery.Milliseconds(),
		UncachedQueries: true,
	}
	for _, size := range opts.fleets {
		fr, err := benchFleet(primary, size, sample, opts, logger)
		if err != nil {
			return nil, fmt.Errorf("fleet of %d: %w", size, err)
		}
		doc.Fleets = append(doc.Fleets, *fr)
		logger.Printf("fleet of %d: %.0f qps aggregate (%.0f per node), staleness p99 %d generations",
			size, fr.QPS, fr.PerNodeQPS, fr.LagP99)
	}
	if len(doc.Fleets) > 1 {
		first, last := doc.Fleets[0], doc.Fleets[len(doc.Fleets)-1]
		if first.QPS > 0 {
			doc.ScalingMinToMax = last.QPS / first.QPS
		}
		logger.Printf("scaling %d -> %d replicas: %.2fx on %d core(s)",
			first.Replicas, last.Replicas, doc.ScalingMinToMax, doc.Cores)
	}
	return doc, nil
}

// benchFleet boots size replicas off the primary, waits for catch-up, then
// runs the measured load window: opts.workers closed-loop query workers per
// replica, a background mutator on the primary, and a lag sampler across
// the fleet.
func benchFleet(primary *node, size int, sample []string, opts options, logger *log.Logger) (*fleetResult, error) {
	replicas := make([]*node, 0, size)
	defer func() {
		for _, n := range replicas {
			n.close()
		}
	}()
	for i := 0; i < size; i++ {
		rep, err := repl.New(repl.Options{Primary: primary.url})
		if err != nil {
			return nil, fmt.Errorf("booting replica %d: %w", i, err)
		}
		// The cache is disabled so the measurement is uncached serving
		// capacity; the feed still invalidates nothing-to-invalidate, the
		// same code path a production replica runs.
		rsrv, err := server.New(server.Config{Base: rep.Base(), Replica: rep, CacheMaxBytes: -1})
		if err != nil {
			return nil, fmt.Errorf("replica %d server: %w", i, err)
		}
		n, err := startServer(rsrv)
		if err != nil {
			return nil, err
		}
		runCtx, runCancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { runDone <- rep.Run(runCtx, rsrv.Reasoner()) }()
		inner := n.cancel
		n.rep = rep
		n.cancel = func() { runCancel(); <-runDone; inner() }
		replicas = append(replicas, n)
	}
	if err := waitCaughtUp(primary, replicas, opts.queryWait); err != nil {
		return nil, err
	}
	logger.Printf("fleet of %d caught up at generation %d", size, primary.srv.Reasoner().Generation())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Background mutator: one fresh instance assertion per interval through
	// the primary, so the feed carries real frames during the measurement
	// and the lag sampler has something to observe.
	var mutations atomic.Int64
	if opts.mutEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			tick := time.NewTicker(opts.mutEvery)
			defer tick.Stop()
			i := 0
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				class := sample[i%len(sample)]
				body, _ := json.Marshal(server.MutateRequest{Add: []server.TripleJSON{{
					Subject:   "replbench/mut-" + strconv.Itoa(i),
					Predicate: store.TypePredicate,
					Object:    class,
				}}})
				resp, err := client.Post(primary.url+"/triples", "application/json", bytes.NewReader(body))
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						mutations.Add(1)
					}
				}
				i++
			}
		}()
	}

	// Lag sampler: the fleet's staleness, read off the same counters /stats
	// serves (the harness is in-process; sampling over HTTP would tax the
	// very nodes being measured).
	var lagMu sync.Mutex
	var lags []uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			pg := primary.srv.Reasoner().Generation()
			lagMu.Lock()
			for _, n := range replicas {
				st := n.rep.Status()
				lag := uint64(0)
				if pg > st.AppliedGeneration {
					lag = pg - st.AppliedGeneration
				}
				lags = append(lags, lag)
			}
			lagMu.Unlock()
		}
	}()

	// Query workers: closed loop, one uncached query at a time per worker,
	// round-robin over the sampled classes.
	var queries, errors atomic.Int64
	start := time.Now()
	deadline := start.Add(opts.duration)
	for ri, n := range replicas {
		for w := 0; w < opts.workers; w++ {
			wg.Add(1)
			go func(n *node, seed int) {
				defer wg.Done()
				client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
				rng := rand.New(rand.NewSource(int64(seed)))
				for time.Now().Before(deadline) {
					class := sample[rng.Intn(len(sample))]
					body, _ := json.Marshal(server.QueryRequest{BGP: "?x " + store.TypePredicate + " " + class})
					resp, err := client.Post(n.url+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						errors.Add(1)
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errors.Add(1)
						continue
					}
					queries.Add(1)
				}
			}(n, ri*opts.workers+w)
		}
	}
	// Wait out the measurement window, then stop the background load.
	time.Sleep(time.Until(deadline))
	cancel()
	wg.Wait()
	elapsed := time.Since(start)

	lagMu.Lock()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	fr := &fleetResult{
		Replicas:  size,
		Queries:   queries.Load(),
		Errors:    errors.Load(),
		Mutations: mutations.Load(),
		LagP50:    percentile(lags, 50),
		LagP95:    percentile(lags, 95),
		LagP99:    percentile(lags, 99),
	}
	if len(lags) > 0 {
		fr.LagMax = lags[len(lags)-1]
	}
	lagMu.Unlock()
	fr.QPS = float64(fr.Queries) / elapsed.Seconds()
	fr.PerNodeQPS = fr.QPS / float64(size)
	if fr.Queries == 0 {
		return nil, fmt.Errorf("no queries completed (%d errors)", fr.Errors)
	}
	return fr, nil
}

// percentile reads the p-th percentile off sorted samples (nearest-rank).
func percentile(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// waitCaughtUp blocks until every replica's applied generation reaches the
// primary's current one.
func waitCaughtUp(primary *node, replicas []*node, timeout time.Duration) error {
	target := primary.srv.Reasoner().Generation()
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		for _, n := range replicas {
			if n.rep.Status().AppliedGeneration < target {
				behind++
			}
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d replica(s) still behind generation %d after %s", behind, target, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// corpus builds the serving corpus the server benchmarks use: a random
// 120-class hierarchy, n type annotations round-robin over the classes, and
// the hierarchy as subClassOf triples. It returns the base store and a
// sample of classes to query.
func corpus(n int) (*store.Store, []string, error) {
	rng := rand.New(rand.NewSource(9))
	tb := workload.RandomHierarchyTBox(rng, workload.HierarchyParams{Classes: 120, MaxParents: 2})
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		return nil, nil, err
	}
	classes := tb.DefinedNames()
	sort.Strings(classes)

	base := store.New()
	batch := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		batch = append(batch, store.Triple{
			Subject:   class + "/item-" + strconv.Itoa(i),
			Predicate: store.TypePredicate,
			Object:    class,
		})
	}
	if _, err := base.AddBatch(batch); err != nil {
		return nil, nil, err
	}
	if _, err := base.AddBatch(reason.OntologyTriples(oi)); err != nil {
		return nil, nil, err
	}

	sample := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		sample = append(sample, classes[i*len(classes)/40])
	}
	return base, sample, nil
}
