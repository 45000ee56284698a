// Command bench is the repository's one benchmark: it builds cmd/ontoserve,
// boots it as a child process on a recovered data directory, drives it over
// loopback HTTP, checks every answer against a model, and prints every
// metric by name and unit. See README.md in this directory.
//
//	bench --workload read_hot --seed 1 --seconds 10 --trace 0
//	bench --workload all --seed 1
//	bench --calibrate 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run())
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func run() int {
	workload := flag.String("workload", "all", "workload to run: read_hot, read_cold, write_durable, mixed_open or all")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", defaultSeconds, "nominal length of the measured phase; the op count is the workload's rate times this")
	trace := flag.Int("trace", 0, "1 adds the in-process traced replay and reports the per-layer metrics instead of the end-to-end ones")
	calibrate := flag.Int("calibrate", 0, "run the suite this many times (at least 10) on unchanged code and print the repeatability report")
	smoke := flag.Bool("smoke", false, "use the 1e4-instance corpus and at most 500 ops per workload")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}

	// One P for the harness, the rest for the server (see serverProcs).
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killEverything()
		os.Exit(130)
	}()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	}
	spec := serving1e5
	if *smoke {
		spec = smoke1e4
	}
	env, err := newEnv(spec, logf)
	if err != nil {
		logf("%v", err)
		killEverything()
		return 1
	}
	defer env.close()
	if *calibrate > 0 {
		fmt.Printf("# Calibration of the benchmark's bounds\n\nOutput of `bash bench/run.sh --calibrate %d --seconds %d`.\n\n    %s\n", *calibrate, *seconds, env.describe())
		return env.calibrate(*calibrate, *seconds)
	}
	fmt.Printf("# env %s seed=%d\n", env.describe(), *seed)

	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	} else if w := workloadByName(*workload); w != nil {
		defs = append(defs, w)
	} else {
		logf("unknown workload %q", *workload)
		return 2
	}
	code := 0
	for _, w := range defs {
		if *smoke {
			w = smokeSized(w, *seconds)
		}
		res, err := env.runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			logf("%s: %v", w.name, err)
			killEverything()
			return 1
		}
		if !res.print(*trace == 1) {
			code = 1
		}
	}
	return code
}

// smokeSized caps a workload at 500 ops for -smoke and the smoke test.
func smokeSized(w *workloadDef, seconds int) *workloadDef {
	s := *w
	s.opsPerSecond = max(1, min(w.opsPerSecond, 500/seconds))
	return &s
}

// describe records what the numbers depend on besides the code.
func (e *benchEnv) describe() string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d harness_gomaxprocs=%d harness_cpus=%v server_gomaxprocs=%d server_cpus=%v go=%s commit=%s server_binary=%s corpus=%s connections=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpus.harness, serverProcs(), cpus.server, runtime.Version(), commit, e.binHash, e.corpus.spec.Name, connections)
}

// print writes every metric of the run by name and unit, then the one-line
// JSON result the driver reads, and reports whether the run was correct.
func (r *runResult) print(trace bool) bool {
	section := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("# %s %s (seed %d)\n", r.workload, title, r.seed)
		for _, name := range names {
			fmt.Printf("%-32s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	section("end-to-end", r.endToEnd)
	section("per-layer", r.perLayer)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED CHECK: %s\n", r.workload, p)
	}
	if r.workload == "mixed_open" && r.perLayer["client.late_p99_ms"].Value > 5 {
		fmt.Fprintf(os.Stderr, "bench: mixed_open: the generator ran late (p99 %.2f ms > 5 ms): this run's latencies describe the harness, not the server\n",
			r.perLayer["client.late_p99_ms"].Value)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.endToEnd}
	if trace {
		out.Metrics = r.perLayer
	}
	line, _ := json.Marshal(out)
	fmt.Printf("%s\n", line)
	return r.correct()
}
