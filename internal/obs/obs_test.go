package obs_test

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func scrape(t *testing.T, r *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.String()
}

func TestCounterAndGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("t_events_total", "Events.")
	g := r.Gauge("t_depth", "Depth.")
	c.Inc()
	c.Add(41)
	g.Set(2.5)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	out := scrape(t, r)
	for _, want := range []string{
		"# HELP t_events_total Events.\n# TYPE t_events_total counter\nt_events_total 42\n",
		"# HELP t_depth Depth.\n# TYPE t_depth gauge\nt_depth 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *obs.Counter
	var g *obs.Gauge
	var h *obs.Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

// TestHistogramBucketBoundaries pins the le convention: a value equal to a
// bound lands in that bucket (inclusive upper bounds), one epsilon above
// lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("t_lat", "Latency.", []float64{1, 2, 4})
	h.Observe(1)    // bucket le=1
	h.Observe(1.01) // bucket le=2
	h.Observe(2)    // bucket le=2
	h.Observe(4)    // bucket le=4
	h.Observe(4.5)  // +Inf
	s := h.Snapshot()
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if got, want := s.Sum, 1+1.01+2+4+4.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Cumulative exposition: le="4" must count everything up to 4.
	out := scrape(t, r)
	for _, want := range []string{
		`t_lat_bucket{le="1"} 1`,
		`t_lat_bucket{le="2"} 3`,
		`t_lat_bucket{le="4"} 4`,
		`t_lat_bucket{le="+Inf"} 5`,
		`t_lat_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrency hammers registration-time instruments from many
// goroutines while scraping concurrently; run under -race this is the
// registry's thread-safety proof, and the final counts must be exact.
func TestRegistryConcurrency(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("t_hits_total", "Hits.")
	h := r.Histogram("t_lat", "Latency.", obs.LatencyBuckets())
	vec := r.CounterVec("t_codes_total", "Codes.", "code")
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i%1000) * 1e-6)
				vec.With("200").Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_, _ = r.WriteTo(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*each {
		t.Errorf("counter = %d, want %d", c.Value(), workers*each)
	}
	if got := h.Snapshot().Count; got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
	if got := vec.With("200").Value(); got != workers*each {
		t.Errorf("vec counter = %d, want %d", got, workers*each)
	}
}

// TestExpositionByteStable is the determinism property: two registries
// holding the same instrument states — registered in different orders —
// must expose byte-identical scrapes, and scraping twice must be
// byte-identical too.
func TestExpositionByteStable(t *testing.T) {
	build := func(order []int) *obs.Registry {
		r := obs.NewRegistry()
		steps := []func(){
			func() { r.Counter("t_b_total", "B.", obs.L("shard", "1")).Add(7) },
			func() { r.Counter("t_b_total", "B.", obs.L("shard", "0")).Add(3) },
			func() { r.Counter("t_a_total", "A.").Add(1) },
			func() { r.Histogram("t_h", "H.", []float64{1, 2}).Observe(1.5) },
			func() { r.GaugeFunc("t_g", "G.", func() float64 { return 4.25 }) },
		}
		for _, i := range order {
			steps[i]()
		}
		return r
	}
	r1 := build([]int{0, 1, 2, 3, 4})
	r2 := build([]int{4, 3, 2, 1, 0})
	s1, s2 := scrape(t, r1), scrape(t, r2)
	if s1 != s2 {
		t.Errorf("registration order changed the scrape:\n--- a\n%s--- b\n%s", s1, s2)
	}
	if again := scrape(t, r1); again != s1 {
		t.Errorf("second scrape differs:\n--- first\n%s--- second\n%s", s1, again)
	}
	// Families must appear sorted by name.
	ia := strings.Index(s1, "t_a_total")
	ib := strings.Index(s1, "t_b_total")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("families not sorted by name:\n%s", s1)
	}
	// Series within a family sorted by label value.
	i0 := strings.Index(s1, `t_b_total{shard="0"} 3`)
	i1 := strings.Index(s1, `t_b_total{shard="1"} 7`)
	if i0 < 0 || i1 < 0 || i0 > i1 {
		t.Errorf("series not sorted by label:\n%s", s1)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("t_esc_total", "line one\nline \\two", obs.L("path", "a\"b\\c\nd")).Inc()
	out := scrape(t, r)
	if !strings.Contains(out, `# HELP t_esc_total line one\nline \\two`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `t_esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := obs.NewRegistry()
	r.Counter("t_dup_total", "D.")
	mustPanic("duplicate series", func() { r.Counter("t_dup_total", "D.") })
	mustPanic("kind clash", func() { r.Gauge("t_dup_total", "D.") })
	mustPanic("help clash", func() { r.Counter("t_dup_total", "other", obs.L("a", "b")) })
	mustPanic("bad name", func() { r.Counter("0bad", "B.") })
	mustPanic("bad label name", func() { r.Counter("t_ok_total", "B.", obs.L("0bad", "v")) })
	mustPanic("empty buckets", func() { r.Histogram("t_h0", "H.", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("t_h1", "H.", []float64{2, 1}) })
	mustPanic("vec arity", func() { r.CounterVec("t_v_total", "V.", "a").With("x", "y") })
}
