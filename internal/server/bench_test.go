package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchCorpus builds the E5c-shaped serving corpus: a random 120-class
// hierarchy, n type annotations round-robin over the classes, and the
// hierarchy itself as subClassOf triples. It returns the base store and a
// sample of classes to query.
func benchCorpus(b *testing.B, n int) (*store.Store, []string) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	tb := workload.RandomHierarchyTBox(rng, workload.HierarchyParams{Classes: 120, MaxParents: 2})
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		b.Fatal(err)
	}
	classes := tb.DefinedNames()
	sort.Strings(classes)

	base := store.New()
	batch := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		batch = append(batch, store.Triple{
			Subject:   classNameItem(class, i),
			Predicate: store.TypePredicate,
			Object:    class,
		})
	}
	if _, err := base.AddBatch(batch); err != nil {
		b.Fatal(err)
	}
	if _, err := base.AddBatch(reason.OntologyTriples(oi)); err != nil {
		b.Fatal(err)
	}

	sample := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		sample = append(sample, classes[i*len(classes)/40])
	}
	return base, sample
}

func classNameItem(class string, i int) string {
	return class + "/item-" + strconv.Itoa(i)
}

// BenchmarkServerQuery measures POST /query end to end through the handler
// with parallel clients at 1e5 triples: "cached" serves a warm result cache
// (the steady state of read-heavy traffic), "uncached" runs with the cache
// disabled so every request plans, joins and marshals from scratch. PR 4's
// acceptance bar (cached ≥5× faster than uncached) was set against the
// tuple-at-a-time evaluator; the batched engine since made the uncached
// path itself several times faster, so the gap the cache covers is
// narrower — both figures are tracked in EXPERIMENTS.md.
// "uncached-limit" is the miss path of templated, LIMIT-ed retrieval: a
// fan-out join (a class's subclasses, then their instances) cut at 100 rows,
// so -benchmem shows what a truncated miss allocates once the abandoned
// operator tree is handed back.
func BenchmarkServerQuery(b *testing.B) {
	const scale = 100_000
	for _, mode := range []struct {
		name  string
		cache int64
		req   func(class string) QueryRequest
	}{
		{"cached", 1 << 30, func(class string) QueryRequest { return QueryRequest{BGP: "?x type " + class} }},
		{"uncached", -1, func(class string) QueryRequest { return QueryRequest{BGP: "?x type " + class} }},
		{"uncached-limit", -1, func(class string) QueryRequest {
			return QueryRequest{BGP: "?c " + reason.SubClassOfPredicate + " " + class + " . ?x type ?c", Limit: 100}
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			base, sample := benchCorpus(b, scale)
			s, err := New(Config{Base: base, CacheMaxBytes: mode.cache})
			if err != nil {
				b.Fatal(err)
			}
			bodies := make([][]byte, len(sample))
			for i, class := range sample {
				body, err := json.Marshal(mode.req(class))
				if err != nil {
					b.Fatal(err)
				}
				bodies[i] = body
			}
			// Warm: every sampled query evaluated once (populates the cache
			// in cached mode, levels the playing field in uncached mode).
			for _, body := range bodies {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("warmup query failed: %d %s", rec.Code, rec.Body)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies[i%len(bodies)])))
					if rec.Code != http.StatusOK {
						b.Fatalf("query failed: %d", rec.Code)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkServerMutation measures POST /triples incremental maintenance
// at 1e5 triples — the write path the cache invalidation rides on — for the
// three shapes of request: add asserts one fresh instance (propagating its
// superclass annotations), two-sided re-files one instance under another
// class (one add and one remove in one write), remove-8 retracts eight
// instance annotations at once (asserted off the clock).
func BenchmarkServerMutation(b *testing.B) {
	base, sample := benchCorpus(b, 100_000)
	s, err := New(Config{Base: base})
	if err != nil {
		b.Fatal(err)
	}
	classes := [2]string{sample[len(sample)/2], sample[len(sample)/3]}
	typed := func(subject, class string) TripleJSON {
		return TripleJSON{Subject: subject, Predicate: store.TypePredicate, Object: class}
	}
	post := func(b *testing.B, req MutateRequest) {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/triples", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("mutation failed: %d %s", rec.Code, rec.Body)
		}
	}
	b.Run("add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, MutateRequest{Add: []TripleJSON{typed("bench/new-"+strconv.Itoa(i), classes[0])}})
		}
	})
	b.Run("two-sided", func(b *testing.B) {
		post(b, MutateRequest{Add: []TripleJSON{typed("bench/mover", classes[1])}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, MutateRequest{
				Add:    []TripleJSON{typed("bench/mover", classes[i%2])},
				Remove: []TripleJSON{typed("bench/mover", classes[(i+1)%2])},
			})
		}
	})
	b.Run("remove-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var eight []TripleJSON
			for k := 0; k < 8; k++ {
				eight = append(eight, typed("bench/gone-"+strconv.Itoa(8*i+k), classes[0]))
			}
			post(b, MutateRequest{Add: eight})
			b.StartTimer()
			post(b, MutateRequest{Remove: eight})
		}
	})
}

// BenchmarkObsOverhead guards the observability tax, in the one package that
// already imports every layer it touches. The query pair runs the 3-pattern
// join of internal/query's BenchmarkQueryJoin3 (each instance typed and
// placed in one of 89 sites, each site in one of 7 regions) with tracing off
// (the default every production query takes: per-operator stat pointers nil,
// one branch per Next) and with a full execution trace attached; the
// acceptance bar is traced within 3% of plain. The ingest pair journals one
// batch (the first half of that corpus) through a durable engine with and
// without a metrics registry (WAL frame counters and fsync histograms live on
// that path).
// registry-hotpath pins the primitives themselves: Counter.Inc plus
// Histogram.Observe must stay allocation-free.
func BenchmarkObsOverhead(b *testing.B) {
	const n = 100_000
	ts := make([]store.Triple, 0, n)
	for j := 0; j < 89; j++ {
		ts = append(ts, store.Triple{Subject: "site-" + strconv.Itoa(j), Predicate: "partOf", Object: "region-" + strconv.Itoa(j%7)})
	}
	for i := 0; len(ts) < n; i++ {
		inst := "inst-" + strconv.Itoa(i)
		ts = append(ts,
			store.Triple{Subject: inst, Predicate: store.TypePredicate, Object: "class-" + strconv.Itoa(i%317)},
			store.Triple{Subject: inst, Predicate: "locatedIn", Object: "site-" + strconv.Itoa(i%89)})
	}
	s := store.New()
	if _, err := s.AddBatch(ts); err != nil {
		b.Fatal(err)
	}
	bgp := query.MustParseBGP("?x type class-5 . ?x locatedIn ?site . ?site partOf ?region")
	runJoin := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		solutions := 0
		for i := 0; i < b.N; i++ {
			var opts []query.Option
			if traced {
				var tr query.Trace
				opts = append(opts, query.WithTrace(&tr))
			}
			sols := query.Eval(s, bgp, opts...)
			for sols.Next() {
				solutions++
			}
			if err := sols.Err(); err != nil {
				b.Fatal(err)
			}
		}
		if solutions == 0 {
			b.Fatal("join produced no solutions")
		}
		b.ReportMetric(float64(solutions)/float64(b.N), "solutions/query")
	}
	b.Run("query-plain", func(b *testing.B) { runJoin(b, false) })
	b.Run("query-traced", func(b *testing.B) { runJoin(b, true) })

	ingest := func(b *testing.B, metered bool) {
		batch := ts[:n/2]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			base := store.New()
			opts := durable.Options{Dir: b.TempDir(), Fsync: durable.FsyncOff}
			if metered {
				opts.Metrics = obs.NewRegistry()
			}
			eng, err := durable.Open(base, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := base.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.Run("ingest-plain", func(b *testing.B) { ingest(b, false) })
	b.Run("ingest-metered", func(b *testing.B) { ingest(b, true) })

	b.Run("registry-hotpath", func(b *testing.B) {
		reg := obs.NewRegistry()
		c := reg.Counter("bench_ops_total", "Hot-path counter under benchmark.")
		h := reg.Histogram("bench_op_seconds", "Hot-path histogram under benchmark.", obs.LatencyBuckets())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(float64(i&1023) * 1e-6)
		}
	})
}
