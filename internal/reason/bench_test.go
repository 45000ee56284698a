package reason

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// servingCorpus is the asserted corpus of the end-to-end harness's
// serving-1e5 data directory (bench/corpus.go), rebuilt here so the layer's
// own benchmark measures the materialization every harness boot pays for:
// the subClassOf closure of a random 120-class hierarchy, five property
// axioms chosen so each RDFS rule derives something, 89 sites in 7 regions,
// and 102 000 instances with one type and one locatedIn triple each.
func servingCorpus(tb testing.TB) []store.Triple {
	return servingCorpusN(tb, 120, 102_000)
}

// servingCorpusN is servingCorpus over a random hierarchy of the given
// number of classes and with the given number of instances; the property
// axioms, sites and regions are the harness's whatever the scale.
func servingCorpusN(tb testing.TB, classes, instances int) []store.Triple {
	tb.Helper()
	const sites, regions = 89, 7
	tbox := workload.RandomHierarchyTBox(rand.New(rand.NewSource(20060326)),
		workload.HierarchyParams{Classes: classes, MaxParents: 2})
	oi, err := store.NewOntologyIndex(tbox)
	if err != nil {
		tb.Fatal(err)
	}
	ts := OntologyTriples(oi)
	ts = append(ts,
		store.Triple{Subject: "locatedIn", Predicate: SubPropertyOfPredicate, Object: "within"},
		store.Triple{Subject: "locatedIn", Predicate: RangePredicate, Object: "Site"},
		store.Triple{Subject: "partOf", Predicate: SubPropertyOfPredicate, Object: "containedIn"},
		store.Triple{Subject: "containedIn", Predicate: SubPropertyOfPredicate, Object: "within"},
		store.Triple{Subject: "partOf", Predicate: DomainPredicate, Object: "Site"},
	)
	for s := 0; s < sites; s++ {
		ts = append(ts, store.Triple{Subject: "site-" + strconv.Itoa(s), Predicate: "partOf", Object: "region-" + strconv.Itoa(s%regions)})
	}
	for i := 0; i < instances; i++ {
		name := "inst-" + strconv.Itoa(i)
		ts = append(ts,
			store.Triple{Subject: name, Predicate: store.TypePredicate, Object: workload.ClassName(i % classes)},
			store.Triple{Subject: name, Predicate: "locatedIn", Object: "site-" + strconv.Itoa((i*37+i/sites)%sites)},
		)
	}
	return ts
}

// BenchmarkMaterializeServing measures the initial RDFS fixpoint over the
// harness's serving-1e5 corpus — the layer figure behind the harness's
// reason.materialize_s and most of its setup_s. Store ingest is excluded from
// the timing, and its garbage collected before the clock starts, so ns/op,
// B/op and allocs/op are Materialize's own.
func BenchmarkMaterializeServing(b *testing.B) {
	ts := servingCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var r *Reasoner
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r = nil
		s := store.New()
		if _, err := s.AddBatch(ts); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		var err error
		if r, err = Materialize(s, RDFSRules()); err != nil {
			b.Fatal(err)
		}
	}
	ms := r.MaterializeStats()
	if ms.Inferred == 0 || ms.Inferred != r.InferredCount() {
		b.Fatalf("materialize stats %+v for %d inferred triples", ms, r.InferredCount())
	}
	b.ReportMetric(float64(ms.Inferred), "inferred-triples")
	b.ReportMetric(float64(ms.BulkLoaded), "bulk-loaded-triples")
	b.ReportMetric(float64(ms.Heads)/float64(ms.Rounds), "heads/round")
	b.ReportMetric(float64(ms.Rounds), "rounds")
	// What the materialized store keeps alive per triple, asserted and
	// inferred together — the layer figure behind the harness's
	// heap_live_mib. The corpus slice is dropped first; the dictionary keeps
	// the strings it shares with it.
	triples := r.Base().Len() + r.InferredCount()
	ts = nil
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(r)
	b.ReportMetric(float64(mem.HeapAlloc)/float64(triples), "live-B/triple")
}

// BenchmarkMaterializedVsExpandedQuery measures the E5-style class retrieval
// of EXPERIMENTS.md's E5c table at 10⁵ triples both ways, in the streaming
// form a read-heavy service runs, over the E5c-shaped corpus: type
// annotations round-robin over a random 120-class hierarchy plus the
// hierarchy's subsumption closure as subClassOf triples. "expanded" is the
// query-time rewrite through the ontology index ({?x type class} under
// query.Expand, distinct subjects streamed via ProjectFunc), "materialized"
// streams the same distinct subjects off the reasoner's materialized POS
// indexes (Reasoner.InstancesFunc). The acceptance figure is the ns/op ratio
// between the two sub-benchmarks.
func BenchmarkMaterializedVsExpandedQuery(b *testing.B) {
	tbox := workload.RandomHierarchyTBox(rand.New(rand.NewSource(9)), workload.HierarchyParams{Classes: 120, MaxParents: 2})
	oi, err := store.NewOntologyIndex(tbox)
	if err != nil {
		b.Fatal(err)
	}
	classes := tbox.DefinedNames()
	sort.Strings(classes)
	ts := make([]store.Triple, 0, 100_000)
	for i := 0; i < cap(ts); i++ {
		class := classes[i%len(classes)]
		ts = append(ts, store.Triple{Subject: class + "/item-" + strconv.Itoa(i), Predicate: store.TypePredicate, Object: class})
	}
	s := store.New()
	if _, err := s.AddBatch(append(ts, OntologyTriples(oi)...)); err != nil {
		b.Fatal(err)
	}
	r, err := Materialize(s, RDFSRules())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("expanded", func(b *testing.B) {
		b.ReportAllocs()
		matched := 0
		for i := 0; i < b.N; i++ {
			bgp := query.BGP{query.Pat(query.Var("x"), query.Lit(store.TypePredicate), query.Lit(classes[i%len(classes)]))}
			err := query.Eval(s, bgp, query.Expand(oi)).ProjectFunc("x", func(string) bool {
				matched++
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if matched == 0 {
			b.Fatal("no instances matched")
		}
		b.ReportMetric(float64(matched)/float64(b.N), "instances/query")
	})
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		matched := 0
		for i := 0; i < b.N; i++ {
			r.InstancesFunc(classes[i%len(classes)], func(string) bool {
				matched++
				return true
			})
		}
		if matched == 0 {
			b.Fatal("no instances matched")
		}
		b.ReportMetric(float64(matched)/float64(b.N), "instances/query")
	})
}

// BenchmarkRetypeServing measures the write the harness's mixed_open issues
// against resident data: one Apply replacing the asserted class of an
// instance drawn from anywhere in the materialized serving corpus. The
// instance's inferred type facts under the old class's ancestors are
// overdeleted, those the new class still entails are put back and the rest
// of the new class's ancestors derived — some twenty removals from, and
// insertions into, the middle of (type, class) subject lists of up to 10⁵
// members, which is where a layout of sorted runs pays its copy
// (PERFLOG.md "Sorted runs").
func BenchmarkRetypeServing(b *testing.B) {
	const classes, instances = 120, 102_000 // as servingCorpus
	s := store.New()
	if _, err := s.AddBatch(servingCorpus(b)); err != nil {
		b.Fatal(err)
	}
	r, err := Materialize(s, RDFSRules())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	class := make(map[int]int) // instances moved off their corpus class i % classes
	typeOf := func(i, c int) []store.Triple {
		return []store.Triple{{Subject: "inst-" + strconv.Itoa(i), Predicate: store.TypePredicate, Object: workload.ClassName(c)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := rng.Intn(instances)
		from, ok := class[i]
		if !ok {
			from = i % classes
		}
		to := (from + 1 + rng.Intn(classes-1)) % classes
		if added, removed, err := r.Apply(typeOf(i, to), typeOf(i, from), nil); err != nil || added != 1 || removed != 1 {
			b.Fatalf("Apply(inst-%d: class %d → %d) = %d added, %d removed, %v", i, from, to, added, removed, err)
		}
		class[i] = to
	}
	st := r.Stats()
	b.ReportMetric(float64(st.Overdeleted)/float64(b.N), "overdeleted/op")
	b.ReportMetric(float64(st.Rederived)/float64(b.N), "rederived/op")
}

// BenchmarkClosedReads prices the harness's cold reads — Q2, ?x type C .
// ?x locatedIn S, and Q3, ?x type C . ?x locatedIn ?s . ?s partOf R, cycled
// over every class and site or region — over the serving corpus stored two
// ways: "materialized" under RDFSRules, every propagated type stored, and
// "closed" under MaterializeServing, the propagated types answered from the
// subClassOf closure. The acceptance figures are the two sub-benchmarks'
// ns/op and B/op ratios. Q1, ?x type C with the server's limit 100, reads
// as the server's drain does: limit + 1 rows, then Close.
func BenchmarkClosedReads(b *testing.B) {
	const classes, sites, regions = 120, 89, 7
	for _, mode := range []string{"materialized", "closed"} {
		s := store.New()
		if _, err := s.AddBatch(servingCorpus(b)); err != nil {
			b.Fatal(err)
		}
		materialize := Materialize
		if mode == "closed" {
			materialize = MaterializeServing
		}
		r, err := materialize(s, RDFSRules())
		if err != nil {
			b.Fatal(err)
		}
		for _, shape := range []string{"Q1", "Q2", "Q3"} {
			b.Run(mode+"/"+shape, func(b *testing.B) {
				b.ReportAllocs()
				rows := 0
				for i := 0; i < b.N; i++ {
					class := workload.ClassName(i % classes)
					text, limit := "?x type "+class, 100
					switch shape {
					case "Q2":
						text, limit = text+" . ?x locatedIn site-"+strconv.Itoa(i/classes%sites), 0
					case "Q3":
						text, limit = text+" . ?x locatedIn ?s . ?s partOf region-"+strconv.Itoa(i/classes%regions), 0
					}
					sols := query.Eval(r.View(), query.MustParseBGP(text), query.Materialized(), query.Limit(limit))
					n := 0
					for sb, ok := sols.NextBatch(); ok && (limit == 0 || n <= limit); sb, ok = sols.NextBatch() {
						n += sb.Len()
					}
					sols.Close()
					rows += n
				}
				b.ReportMetric(float64(rows)/float64(b.N), "rows/query")
			})
		}
	}
}
