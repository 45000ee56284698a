// Server walkthrough: the E5 retrieval scenario behind the HTTP front end.
// An E5-style corpus — a random class hierarchy with type annotations
// round-robin over its classes — is materialized to a fixpoint and served
// by repro/internal/server (the engine inside cmd/ontoserve); the program
// then acts as an HTTP client against the real listener: a class-retrieval
// query evaluates once and is answered from the result cache on repeat, a
// mutation batch re-materializes incrementally and invalidates exactly the
// cached results its delta touches, and the changed answer proves the
// cache never outlives the data. This is the request lifecycle of
// DESIGN.md's serving-layer section, observed from the outside; API.md
// documents the wire format.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"

	"repro/internal/reason"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	// The E5 corpus: a 30-class hierarchy, 20 instances per class, and the
	// hierarchy itself asserted as subClassOf triples for the RDFS rules to
	// chain over.
	rng := rand.New(rand.NewSource(42))
	corpus := workload.SyntheticCorpus(rng, workload.CorpusParams{
		Hierarchy:         workload.HierarchyParams{Classes: 30, MaxParents: 2},
		InstancesPerClass: 20,
	})
	index, err := store.NewOntologyIndex(corpus.TBox)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := corpus.Store.AddBatch(reason.OntologyTriples(index)); err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(server.Config{Base: corpus.Store})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, shutdown := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("ontoserve-style server on %s: %d asserted + %d inferred triples\n\n",
		base, srv.Reasoner().Base().Len(), srv.Reasoner().InferredCount())

	// Pick a class with proper subsumees, so materialization has something
	// to say: the mutation below asserts an instance of the subclass and
	// the superclass query retrieves it through its inferred annotation.
	class, sub := "", ""
	for _, c := range corpus.Classes {
		if subs := index.Subsumees(c); len(subs) > 2 {
			class = c
			for _, s := range subs {
				if s != c {
					sub = s
					break
				}
			}
			break
		}
	}

	// Act 1 — retrieval. The first query plans, joins and marshals; the
	// trailer says cached:false.
	fmt.Printf("POST /query {?x type %s} (materialized mode)\n", class)
	rows, trailer := postQuery(base, class)
	fmt.Printf("  %d instances, cached=%v, %dµs server-side\n", len(rows), trailer.Cached, trailer.ElapsedUS)

	// Act 2 — the cache. The same query again is answered by replaying the
	// marshaled rows (query.Canonical keys the entry, so pattern-reordered
	// respellings with the same variable names hit too).
	rows2, trailer2 := postQuery(base, class)
	fmt.Printf("re-POST same query: %d instances, cached=%v\n\n", len(rows2), trailer2.Cached)

	// Act 3 — mutation. Assert a fresh instance of the subclass; the engine
	// propagates its superclass annotations and the delta invalidates the
	// cached retrieval.
	mutation := server.MutateRequest{Add: []server.TripleJSON{{
		Subject: "walkthrough/new-arrival", Predicate: store.TypePredicate, Object: sub,
	}}}
	mbody, _ := json.Marshal(mutation)
	resp, err := http.Post(base+"/triples", "application/json", bytes.NewReader(mbody))
	if err != nil {
		log.Fatal(err)
	}
	var mres server.MutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mres); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("POST /triples add {walkthrough/new-arrival type %s} (%s ⊑ %s)\n", sub, sub, class)
	fmt.Printf("  added=%d, store now %d asserted + %d inferred\n", mres.Added, mres.Asserted, mres.Inferred)

	// Act 4 — invalidation observed. The same query misses the cache and
	// the new instance is in the answer.
	rows3, trailer3 := postQuery(base, class)
	fmt.Printf("re-POST /query: %d instances, cached=%v (delta invalidated the entry)\n", len(rows3), trailer3.Cached)
	for _, r := range rows3 {
		if r == "walkthrough/new-arrival" {
			fmt.Printf("  the new arrival is retrieved through its inferred %q annotation\n", class)
		}
	}

	// Act 5 — bookkeeping and graceful shutdown.
	sresp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	var stats server.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	sresp.Body.Close()
	fmt.Printf("\nGET /stats: %d queries, %d mutations, cache %d hits / %d misses / %d invalidations\n",
		stats.Queries, stats.Mutations, stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Invalidations)

	shutdown()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("graceful shutdown complete")
}

// postQuery retrieves a class's instances in materialized mode.
func postQuery(base, class string) ([]string, server.QueryTrailer) {
	return postQueryText(base, "?x type "+class)
}

// postQueryText POSTs a BGP and decodes the ndjson stream into the bound
// values of its single variable plus the trailer.
func postQueryText(base, bgp string) ([]string, server.QueryTrailer) {
	body, _ := json.Marshal(server.QueryRequest{BGP: bgp})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var (
		rows    []string
		trailer server.QueryTrailer
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.Contains(line, `"done"`):
			if err := json.Unmarshal([]byte(line), &trailer); err != nil {
				log.Fatal(err)
			}
		case strings.Contains(line, `"bind"`):
			var row server.QueryRow
			if err := json.Unmarshal([]byte(line), &row); err != nil {
				log.Fatal(err)
			}
			for _, v := range row.Bind {
				rows = append(rows, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if trailer.Error != "" {
		log.Fatalf("query ended early: %s", trailer.Error)
	}
	sort.Strings(rows)
	return rows, trailer
}
