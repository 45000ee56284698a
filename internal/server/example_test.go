package server_test

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/reason"
	"repro/internal/server"
	"repro/internal/store"
)

// ExampleServer materializes a two-class corpus and serves one query over
// HTTP: the inferred "beetle is a vehicle" annotation is answered straight
// off the indexes.
func ExampleServer() {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "car", Predicate: reason.SubClassOfPredicate, Object: "vehicle"},
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
	}); err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{Base: base})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"bgp": "?x type vehicle"}`))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, `"bind"`) {
			fmt.Println(line)
		}
	}
	// Output:
	// {"bind":{"x":"beetle"}}
}
