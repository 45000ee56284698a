package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/reason"
	"repro/internal/store"
)

// scrubTimings deletes the wall-clock fields of a decoded explain document.
func scrubTimings(v any) {
	switch t := v.(type) {
	case map[string]any:
		delete(t, "nanos")
		delete(t, "elapsed_us")
		delete(t, "stages")
		for _, c := range t {
			scrubTimings(c)
		}
	case []any:
		for _, c := range t {
			scrubTimings(c)
		}
	}
}

// TestAPIExplainTranscript keeps API.md's EXPLAIN transcript honest: it
// replays the documented request on the documented corpus (what
// `ontoserve -paper` asserts: the paper's annotations plus its TBox hierarchy)
// and compares every field but the timings with the documented response —
// plan, estimates, per-operator rows and probes, pool round trips.
func TestAPIExplainTranscript(t *testing.T) {
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### EXPLAIN")
	if !ok {
		t.Fatal("API.md has no EXPLAIN section")
	}
	_, block, _ := strings.Cut(section, "```console\n")
	block, _, ok = strings.Cut(block, "\n```")
	if !ok {
		t.Fatal("API.md's EXPLAIN section has no fenced transcript")
	}
	// The transcript is one curl command (continued over lines) and the
	// one-line response.
	cut := strings.LastIndexByte(block, '\n')
	command, documented := block[:cut], block[cut+1:]
	if !strings.Contains(command, "/query?explain=1") {
		t.Fatalf("documented command does not POST /query?explain=1: %s", command)
	}
	_, body, _ := strings.Cut(command, "-d '")
	body, _, ok = strings.Cut(body, "'")
	if !ok {
		t.Fatalf("documented command has no -d '<body>': %s", command)
	}

	input := core.PaperInput()
	oi, err := store.NewOntologyIndex(input.TBox)
	if err != nil {
		t.Fatal(err)
	}
	base := store.New()
	for _, batch := range [][]store.Triple{input.Annotations.Triples(), reason.OntologyTriples(oi)} {
		if _, err := base.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{Base: base})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?explain=1", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d: %s", rec.Code, rec.Body)
	}
	var got, want any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(documented), &want); err != nil {
		t.Fatalf("documented response is not JSON: %v\n%s", err, documented)
	}
	scrubTimings(got)
	scrubTimings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("API.md's EXPLAIN transcript is stale; re-capture it.\nserver:     %s\ndocumented: %s", rec.Body, documented)
	}
}
