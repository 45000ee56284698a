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

	"repro/internal/reason"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchCorpus builds the E5c-shaped serving corpus: a random 120-class
// hierarchy, n type annotations round-robin over the classes, and the
// hierarchy itself as subClassOf triples. It returns the base store, the
// ontology index, and a sample of classes to query.
func benchCorpus(b *testing.B, n int) (*store.Store, *store.OntologyIndex, []string) {
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
	return base, oi, sample
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
// narrower — both figures are tracked in BENCH_5.json and EXPERIMENTS.md.
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
			base, oi, sample := benchCorpus(b, scale)
			s, err := New(Config{Base: base, Ontology: oi, CacheMaxBytes: mode.cache})
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
// at 1e5 triples: each iteration asserts one fresh instance (propagating
// its superclass annotations) — the write path the cache invalidation
// rides on.
func BenchmarkServerMutation(b *testing.B) {
	base, oi, sample := benchCorpus(b, 100_000)
	s, err := New(Config{Base: base, Ontology: oi})
	if err != nil {
		b.Fatal(err)
	}
	class := sample[len(sample)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(MutateRequest{Add: []TripleJSON{
			{Subject: "bench/new-" + strconv.Itoa(i), Predicate: store.TypePredicate, Object: class},
		}})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/triples", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("mutation failed: %d %s", rec.Code, rec.Body)
		}
	}
}
