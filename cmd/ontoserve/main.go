// Command ontoserve serves a materialized ontology store over HTTP: it
// loads a corpus (an annotation snapshot plus an optional TBox), forward
// chains the RDFS-style rule set of repro/internal/reason to a fixpoint,
// and exposes the BGP query layer, batched mutations, statistics and
// snapshots as the JSON API of repro/internal/server (documented with curl
// transcripts in API.md at the repository root).
//
// Usage:
//
//	ontoserve -paper [-addr :8080]
//	ontoserve -annotations data.triples [-f ontology.tbox] [-rules extra.rules]
//	ontoserve -annotations data.triples -addr 127.0.0.1:0 -cache 512 -timeout 2s
//	ontoserve -paper -data-dir /var/lib/ontoserve [-fsync batch] [-checkpoint-mib 128]
//	ontoserve -replicate-from http://primary:8080 [-addr :8081]
//
// -paper serves the paper's own example corpus (the quickest way to poke
// the API); otherwise -annotations names a store snapshot (one JSON triple
// per line, as written by Store.Snapshot or GET /snapshot) and -f a TBox in
// the tboxio text format whose subsumption closure is asserted as
// subClassOf triples next to the annotations, exactly as ontoaudit
// -materialize does. -rules appends user Horn rules (one "head :- body .
// body" per line) to the built-in RDFS set. The server stores every
// conclusion but the instance types RDFS propagates up the class hierarchy
// and the property triples it propagates up the property hierarchy, which it
// answers from the stored subClassOf and subPropertyOf closures (API.md,
// "Closed typing and properties"); a -rules body or head that could read or
// unlock them makes it store them as well.
//
// -data-dir makes the asserted store durable (repro/internal/durable): on
// boot the server recovers the directory's checkpoint segment and
// write-ahead log, and every POST /triples mutation is group-committed to
// the log before it is acknowledged. The flag-named corpora seed the store
// ONLY when recovery finds a pristine directory; once the directory holds
// state, the log is the single source of truth, the schema included, and
// only -rules still configures anything (re-asserting the corpus on every
// boot would resurrect corpus triples a client had durably removed). Point
// -data-dir at a fresh directory to reseed — including after a boot that
// crashed mid-seed, which leaves the directory partially seeded. -fsync
// picks the durability/latency trade (always, batch — an fsync every 10 ms —
// or off) and -checkpoint-mib how much log growth triggers compaction into a
// fresh segment (0 or negative: none); POST /checkpoint forces one. The
// directory's log is also the replication feed: only a primary with
// -data-dir serves GET /repl/snapshot and GET /repl/deltas, and a replica's
// position survives the primary's restart on the same directory.
//
// -replicate-from makes the process a read replica of another ontoserve
// started with -data-dir (repro/internal/repl): it boots from the primary's
// GET /repl/snapshot, follows GET /repl/deltas — the primary's log —,
// re-derives the inferred overlay locally, and serves queries read-only —
// POST /triples and POST /checkpoint answer 403 naming the primary, and
// /healthz reports the replication lag so load balancers can eject stale
// nodes. A replica takes no corpus flags, -f included (the log ships the
// schema), and no -data-dir (the primary is the source of truth; a restarted
// replica re-snapshots), but -rules still applies and MUST match the
// primary's so both sides derive the same overlay.
//
// GET /metrics always serves the process's instruments — traffic counters,
// latency histograms split by stage, WAL/checkpoint state, reasoner and
// cache counters — as a Prometheus text scrape. -slow-query
// logs every query at least that slow as one JSON line, to the file named
// by -slow-query-log or to stderr. -pprof-addr serves net/http/pprof on a
// separate listener, keeping the profiling surface off the API address.
//
// A corpus snapshot that fails to parse refuses to serve at all — store.Restore
// asserts nothing from a malformed snapshot, so a malformed tail can never put
// a partially restored corpus behind the API.
//
// The process runs until SIGINT/SIGTERM, then shuts down gracefully:
// replicas' parked long polls are answered, other in-flight requests finish,
// and the log is flushed and fsynced — as it is on any error exit once the
// data directory is open.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"net/http"
	"net/http/pprof"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/reason"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tboxio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main with its dependencies at the surface, so tests can drive the
// flag handling and corpus loading without spawning a process.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("ontoserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	paper := fs.Bool("paper", false, "serve the paper's own example corpus")
	annotations := fs.String("annotations", "", "path to a store snapshot (JSON triples) to serve")
	file := fs.String("f", "", "path to a TBox in the tboxio text format; its hierarchy is asserted as subClassOf triples")
	rulesFile := fs.String("rules", "", "file of extra Horn rules appended to the built-in RDFS set")
	timeout := fs.Duration("timeout", 5*time.Second, "per-query evaluation timeout")
	maxSolutions := fs.Int("max-solutions", 100_000, "cap on solutions streamed per query")
	cacheMiB := fs.Int("cache", 256, "query-result cache budget in MiB of retained responses (0 or negative disables)")
	dataDir := fs.String("data-dir", "", "directory for the write-ahead log and checkpoint segments, and the log /repl serves replicas; empty serves purely from memory, with no /repl")
	fsyncMode := fs.String("fsync", "always", "when the log reaches stable storage: always (group commit per mutation), batch (every 10ms in the background), off (rotation and close only)")
	checkpointMiB := fs.Int("checkpoint-mib", durable.DefaultCheckpointBytes>>20, "log growth in MiB that triggers automatic compaction into a segment (0 or negative disables; POST /checkpoint still works)")
	slowQuery := fs.Duration("slow-query", 0, "log queries at least this slow as ndjson records (0 disables the slow-query log)")
	slowQueryLog := fs.String("slow-query-log", "", "file the slow-query log appends to; empty logs to stderr")
	pprofAddr := fs.String("pprof-addr", "", "listen address for net/http/pprof on its own listener (empty disables profiling)")
	replicateFrom := fs.String("replicate-from", "", "base URL of a primary started with -data-dir to replicate from; makes this process a read-only replica")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ontoserve (-paper | -annotations <file> | -replicate-from <url>) [-f <tbox>] [-rules <file>] [-addr host:port] [options]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// An explicit -h/-help is not a usage error.
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ontoserve: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if !*paper && *annotations == "" && *replicateFrom == "" {
		fmt.Fprintln(stderr, "ontoserve: need a corpus; pass -paper, -annotations or -replicate-from")
		fs.Usage()
		return 2
	}
	if *replicateFrom != "" && (*paper || *annotations != "" || *file != "" || *dataDir != "") {
		// A replica's corpus, schema included, is the primary's snapshot and
		// nothing else, and it keeps no durable state (a restarted replica
		// re-snapshots); seeding or journaling it locally would fork it from
		// the primary.
		fmt.Fprintln(stderr, "ontoserve: -replicate-from excludes -paper, -annotations, -f and -data-dir (the primary is the source of truth)")
		fs.Usage()
		return 2
	}

	policy, err := durable.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintf(stderr, "ontoserve: %v\n", err)
		return 2
	}
	logger := log.New(stderr, "ontoserve: ", log.LstdFlags)

	// One registry spans the process: the durable engine registers its WAL
	// and checkpoint instruments on it at Open, the server everything else
	// at New, and GET /metrics serves the union.
	reg := obs.NewRegistry()

	// The base store exists before any corpus loading so that, with a data
	// directory, durable.Open can recover into it and install its journal
	// first — every triple loaded afterwards flows through the log. A
	// replica's base comes from the primary's snapshot instead.
	base := store.New()
	var rep *repl.Replica
	if *replicateFrom != "" {
		var err error
		rep, err = repl.New(repl.Options{Primary: *replicateFrom, Logger: logger})
		if err != nil {
			fmt.Fprintf(stderr, "ontoserve: %v\n", err)
			return 1
		}
		base = rep.Base()
		logger.Printf("booted from %s at generation %d (%d asserted triples)",
			*replicateFrom, rep.Status().AppliedGeneration, base.Len())
	}
	var eng *durable.Engine
	if *dataDir != "" {
		eng, err = durable.Open(base, durable.Options{
			Dir:             *dataDir,
			Fsync:           policy,
			CheckpointBytes: budget(*checkpointMiB),
			Metrics:         reg,
		})
		if err != nil {
			fmt.Fprintf(stderr, "ontoserve: opening %s: %v\n", *dataDir, err)
			return 1
		}
		// However run ends from here on, the log tail is flushed and fsynced:
		// an error exit must not cost acknowledged writes their durability.
		// The clean exit closes the engine itself, to report the result; this
		// second Close is then a no-op.
		defer eng.Close()
		logger.Printf("recovered %d triples from %s in %.3fs (%d segment tiers, log seq %d, fsync=%s)",
			base.Len(), *dataDir, eng.RecoveryDuration().Seconds(), eng.Stats().Segments, eng.LastSeq(), policy)
	}

	// Corpus flags seed the store only when the data directory is pristine
	// (or there is no data directory at all). Once the directory holds
	// state, the log is the single source of truth: re-asserting the corpus
	// on every boot would resurrect corpus triples a client durably removed
	// through POST /triples.
	seed := rep == nil && (eng == nil || eng.LastSeq() == 0)
	if eng != nil && eng.LastSeq() != 0 {
		logger.Printf("data directory already holds state; corpus flags seed no triples and -rules still configures the rules (wipe %s to reseed)", *dataDir)
	}
	cfg, err := buildConfig(base, seed, *paper, *annotations, *file, *rulesFile)
	if err != nil {
		fmt.Fprintf(stderr, "ontoserve: %v\n", err)
		return 1
	}
	cfg.Durable = eng
	if rep != nil {
		// Replica is an interface: a nil *repl.Replica in it would not be nil.
		cfg.Replica = rep
	}
	cfg.QueryTimeout = *timeout
	cfg.MaxSolutions = *maxSolutions
	cfg.CacheMaxBytes = budget(*cacheMiB)
	cfg.Metrics = reg
	if *slowQuery > 0 {
		cfg.SlowQueryThreshold = *slowQuery
		if *slowQueryLog != "" {
			f, err := os.OpenFile(*slowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(stderr, "ontoserve: opening slow-query log: %v\n", err)
				return 1
			}
			defer f.Close()
			cfg.SlowQueryLog = f
		} else {
			cfg.SlowQueryLog = stderr
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ontoserve: %v\n", err)
		return 1
	}
	logger.Print(srv.Reasoner().MaterializeStats())

	// Profiling, when asked for, goes on its own listener so the pprof
	// surface (heap dumps, CPU profiles) is never reachable through the
	// address the API is published on.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "ontoserve: pprof listener: %v\n", err)
			return 1
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("pprof server: %v", err)
			}
		}()
		defer psrv.Close()
		logger.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if rep != nil {
		// The feed loop applies deltas through the server's reasoner, which
		// re-derives the inferred overlay and invalidates the query cache
		// exactly as a local mutation would. Run retries every failure
		// itself and returns only when ctx is done.
		go func() { _ = rep.Run(ctx, srv.Reasoner()) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "ontoserve: %v\n", err)
		return 1
	}
	logger.Printf("serving %d asserted + %d inferred triples on http://%s",
		srv.Reasoner().Base().Len(), srv.Reasoner().InferredCount(), ln.Addr())
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(stderr, "ontoserve: %v\n", err)
		return 1
	}
	if eng != nil {
		// Flush and fsync the log tail so the clean shutdown loses nothing,
		// whatever the fsync policy.
		if err := eng.Close(); err != nil {
			fmt.Fprintf(stderr, "ontoserve: closing the durable engine: %v\n", err)
			return 1
		}
	}
	logger.Printf("shut down cleanly")
	return 0
}

// budget converts a MiB flag into the byte budget of a config field whose
// zero picks a default: a flag of 0 or less disables, which the field spells
// as a negative value.
func budget(mib int) int64 {
	if mib <= 0 {
		return -1
	}
	return int64(mib) << 20
}

// buildConfig assembles the server config around base. With seed true the
// flag-named corpora are asserted into base (which may carry a journal —
// assertion then flows through the log like any other write): the paper
// example or a snapshot file, plus the TBox's hierarchy as subClassOf
// triples. With seed false — the directory was recovered, its log is the
// single source of truth and already holds the schema — no triple is
// asserted and no TBox is read; only the rule set is configured.
func buildConfig(base *store.Store, seed, paper bool, annotations, tboxFile, rulesFile string) (server.Config, error) {
	var cfg server.Config

	if paper && seed {
		input := core.PaperInput()
		oi, err := store.NewOntologyIndex(input.TBox)
		if err != nil {
			return cfg, fmt.Errorf("classifying the paper TBox: %w", err)
		}
		if _, err := base.AddBatch(input.Annotations.Triples()); err != nil {
			return cfg, err
		}
		if _, err := base.AddBatch(reason.OntologyTriples(oi)); err != nil {
			return cfg, err
		}
	}
	if annotations != "" && seed {
		f, err := os.Open(annotations)
		if err != nil {
			return cfg, err
		}
		// Restore is all-or-nothing, so a malformed snapshot asserts
		// nothing in the served (and journaled) base.
		_, err = store.Restore(base, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return cfg, fmt.Errorf("restoring %s: %w (refusing to serve a partially restored corpus; fix the snapshot and restart)", annotations, err)
		}
	}
	if tboxFile != "" && seed {
		f, err := os.Open(tboxFile)
		if err != nil {
			return cfg, err
		}
		tb, perr := tboxio.Parse(f)
		if cerr := f.Close(); perr == nil {
			perr = cerr
		}
		if perr != nil {
			return cfg, fmt.Errorf("parsing %s: %w", tboxFile, perr)
		}
		oi, err := store.NewOntologyIndex(tb)
		if err != nil {
			return cfg, fmt.Errorf("classifying %s: %w", tboxFile, err)
		}
		if _, err := base.AddBatch(reason.OntologyTriples(oi)); err != nil {
			return cfg, err
		}
	}

	rules := reason.RDFSRules()
	if rulesFile != "" {
		text, err := os.ReadFile(rulesFile)
		if err != nil {
			return cfg, err
		}
		user, err := reason.ParseRules(string(text))
		if err != nil {
			return cfg, fmt.Errorf("%s: %w", rulesFile, err)
		}
		rules = append(rules, user...)
	}
	cfg.Base = base
	cfg.Rules = rules
	return cfg, nil
}
