package repl_test

// Wire golden: the exact bytes and X-Repl-* headers of both replication
// endpoints for one fixed history. The protocol has two ends and a change to
// either must not move a byte the other reads; this file is the pin. It
// drives a real server through its public handler, so it does not care which
// package the handlers live in.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/reason"
	"repro/internal/store"
)

// goldenHistory applies the fixed write history to a primary's reasoner: a
// one-sided add, a two-sided write (a triple on both sides included), a
// remove, and a batch — generations 1 through 4.
func goldenHistory(t *testing.T, r *reason.Reasoner) {
	t.Helper()
	typ := func(s, o string) store.Triple {
		return store.Triple{Subject: s, Predicate: store.TypePredicate, Object: o}
	}
	for i, w := range []struct{ add, remove []store.Triple }{
		{add: []store.Triple{typ("item-2", "c0")}},
		{add: []store.Triple{typ("item-3", "c1"), typ("item-4", "c1")}, remove: []store.Triple{typ("item-4", "c1"), typ("item-0", "c0")}},
		{remove: []store.Triple{{Subject: "c1", Predicate: "subClassOf", Object: "c2"}}},
		{add: []store.Triple{typ("item \"5\"", "c2"), {Subject: "c2", Predicate: "subClassOf", Object: "c3"}}},
	} {
		if _, _, err := r.Apply(w.add, w.remove, nil); err != nil {
			t.Fatal(err)
		}
		if got := r.Generation(); got != uint64(i+1) {
			t.Fatalf("write %d left the primary at generation %d", i+1, got)
		}
	}
}

// toggle applies n more writes to r, each of them a change — asserting a
// marker triple, then retracting it — so r's generation advances by n.
func toggle(t *testing.T, r *reason.Reasoner, n int) {
	t.Helper()
	marker := []store.Triple{{Subject: "marker", Predicate: store.TypePredicate, Object: "c0"}}
	want := r.Generation() + uint64(n)
	for i := 0; i < n; i++ {
		adds, removes := marker, []store.Triple(nil)
		if i%2 == 1 {
			adds, removes = nil, marker
		}
		if _, _, err := r.Apply(adds, removes, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Generation(); got != want {
		t.Fatalf("%d toggles left the primary at generation %d, want %d", n, got, want)
	}
}

// wireTranscript renders one response the way the golden states it: status,
// the content headers and every X-Repl-* header in sorted order, a blank
// line, the body. The epoch is random per feed, so its value is replaced by
// the word EPOCH (its presence and position are still pinned).
func wireTranscript(rec *httptest.ResponseRecorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n", rec.Code)
	var names []string
	for name := range rec.Header() {
		if strings.HasPrefix(name, "X-Repl-") || name == "Content-Type" || name == "Content-Length" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Header().Get(name)
		if name == "X-Repl-Epoch" && v != "" {
			v = "EPOCH"
		}
		fmt.Fprintf(&b, "%s: %s\n", name, v)
	}
	b.WriteString("\n")
	b.Write(rec.Body.Bytes())
	return b.String()
}

func TestWireGolden(t *testing.T) {
	psrv, _ := newPrimary(t)
	goldenHistory(t, psrv.Reasoner())
	// The same history followed by a full retention window of writes: from=0
	// has fallen out of the window.
	aged, agedTS := newPrimary(t)
	goldenHistory(t, aged.Reasoner())
	toggle(t, aged.Reasoner(), feedStats(t, agedTS.URL).Retain)

	get := func(h http.Handler, target string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return wireTranscript(rec)
	}
	for _, tc := range []struct {
		name, target string
		handler      http.Handler
		want         string
	}{
		{"snapshot", "/repl/snapshot", psrv.Handler(), `200
Content-Length: 332
Content-Type: application/x-ndjson
X-Repl-Epoch: EPOCH
X-Repl-Generation: 4
X-Repl-Triples: 6

{"Subject":"c0","Predicate":"subClassOf","Object":"c1"}
{"Subject":"c2","Predicate":"subClassOf","Object":"c3"}
{"Subject":"item \"5\"","Predicate":"type","Object":"c2"}
{"Subject":"item-1","Predicate":"type","Object":"c1"}
{"Subject":"item-2","Predicate":"type","Object":"c0"}
{"Subject":"item-3","Predicate":"type","Object":"c1"}
`},
		{"deltas", "/repl/deltas?from=0", psrv.Handler(), `200
Content-Type: application/x-ndjson
X-Repl-Epoch: EPOCH

{"gen":1,"add":[{"s":"item-2","p":"type","o":"c0"}]}
{"gen":2,"add":[{"s":"item-3","p":"type","o":"c1"},{"s":"item-4","p":"type","o":"c1"}],"remove":[{"s":"item-4","p":"type","o":"c1"},{"s":"item-0","p":"type","o":"c0"}]}
{"gen":3,"remove":[{"s":"c1","p":"subClassOf","o":"c2"}]}
{"gen":4,"add":[{"s":"item \"5\"","p":"type","o":"c2"},{"s":"c2","p":"subClassOf","o":"c3"}]}
{"done":true,"gen":4,"oldest":1}
`},
		{"deltas paged", "/repl/deltas?from=0&max=2", psrv.Handler(), `200
Content-Type: application/x-ndjson
X-Repl-Epoch: EPOCH

{"gen":1,"add":[{"s":"item-2","p":"type","o":"c0"}]}
{"gen":2,"add":[{"s":"item-3","p":"type","o":"c1"},{"s":"item-4","p":"type","o":"c1"}],"remove":[{"s":"item-4","p":"type","o":"c1"},{"s":"item-0","p":"type","o":"c0"}]}
{"done":true,"gen":4,"oldest":1}
`},
		{"deltas caught up", "/repl/deltas?from=4", psrv.Handler(), `200
Content-Type: application/x-ndjson
X-Repl-Epoch: EPOCH

{"done":true,"gen":4,"oldest":1}
`},
		{"deltas gone", "/repl/deltas?from=0", aged.Handler(), `410
Content-Type: application/json

{"error":"generation 0 has fallen out of the retained delta window (oldest retained is 5); fetch a fresh /repl/snapshot"}
`},
		{"deltas bad from", "/repl/deltas?from=x", psrv.Handler(), `400
Content-Type: application/json

{"error":"from must be a generation number: strconv.ParseUint: parsing \"x\": invalid syntax"}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := get(tc.handler, tc.target); got != tc.want {
				t.Errorf("GET %s\n--- got ---\n%s\n--- want ---\n%s", tc.target, got, tc.want)
			}
		})
	}
}
