package repl

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestNewValidatesPrimaryURL: a primary that is not an http(s) URL with a
// host is refused by New, naming the value — not discovered by the first
// request as an "unsupported protocol scheme". url.Parse alone accepts every
// one of these.
func TestNewValidatesPrimaryURL(t *testing.T) {
	for _, primary := range []string{
		"",
		"localhost",
		"localhost:8080",
		"127.0.0.1:8080",
		"//localhost:8080",
		"http://",
		"http:///repl",
		"ftp://primary:8080",
		"http//primary:8080",
		"http://bad host:8080",
	} {
		rep, err := New(Options{Primary: primary})
		if err == nil {
			t.Fatalf("New accepted primary %q: %+v", primary, rep.Status())
		}
		if !strings.Contains(err.Error(), `"`+primary+`"`) || strings.Contains(err.Error(), "booting from") {
			t.Errorf("primary %q: error %q should name the value and come before any request", primary, err)
		}
	}
	// A well-formed URL passes validation and fails at the fetch instead
	// (nothing listens on port 1).
	for _, primary := range []string{"http://127.0.0.1:1", "https://127.0.0.1:1/"} {
		if _, err := New(Options{Primary: primary}); err == nil || !strings.Contains(err.Error(), "booting from") {
			t.Errorf("primary %q: err = %v, want the boot fetch to be what fails", primary, err)
		}
	}
}

// TestMetricSeries pins the names of the series each end registers:
// dashboards and the bench harness read them by name.
func TestMetricSeries(t *testing.T) {
	reg := obs.NewRegistry()
	newLog(t).srv.RegisterMetrics(reg)
	(&Replica{}).RegisterMetrics(reg)
	var out strings.Builder
	if _, err := reg.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"onto_repl_feed_latest_generation",
		"onto_repl_applied_generation", "onto_repl_lag_generations", "onto_repl_connected",
		"onto_repl_reconnects_total", "onto_repl_resnapshots_total", "onto_repl_digest_mismatches_total",
	} {
		if !strings.Contains(out.String(), "\n"+name+" ") {
			t.Errorf("series %s is not exposed:\n%s", name, &out)
		}
	}
}
