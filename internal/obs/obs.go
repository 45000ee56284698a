// Package obs is the engine's zero-dependency observability substrate: a
// concurrency-safe metrics registry of counters, gauges and log-bucketed
// histograms, exposed in the Prometheus text format, and the per-request
// stage clock. Every engine layer — the HTTP server, the reasoner, the
// durable log, the store — registers its instruments here, and GET /metrics
// serves one deterministic scrape of all of them. DESIGN.md "Observability"
// is its design: allocation-free and lock-free updates, nil instruments as
// no-ops, byte-deterministic exposition, and the clock's partition rule.
//
//	reg := obs.NewRegistry()
//	hits := reg.Counter("onto_cache_hits_total", "Cache lookups that hit.")
//	lat := reg.Histogram("onto_query_seconds", "Query latency.", obs.LatencyBuckets())
//	...
//	hits.Inc()
//	lat.Observe(time.Since(start).Seconds())
//	...
//	mux.Handle("/metrics", reg.Handler())
//
// clock.go holds Now, the one monotonic source, and Clock with its Stage
// enum; obs.go the registry, Counter, Gauge, the scrape-time GaugeFunc and
// CounterFunc, and CounterVec; histogram.go Histogram; expose.go the text
// encoder behind Registry.Handler; runtime.go Registry.RegisterRuntime, the
// heap, GC and goroutine series read from runtime/metrics at scrape time,
// the runtime's pause histogram re-bucketed onto LatencyBuckets. Per-query
// tracing is not here: it lives in repro/internal/query (WithTrace) and
// repro/internal/query/exec (OpStat), timed with Now.
//
// obs_test.go covers bucketing, determinism and concurrent updates under
// scrapes; clock_test.go the clock's exact partition, nil-safety and 0
// allocations (TestClockPartitions); FuzzExposition re-parses every rendered
// scrape; runtime_test.go the re-bucketing.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant name/value pair attached to an instrument at
// registration. Instruments sharing a family name but differing in labels
// are distinct series under one HELP/TYPE header, exactly as Prometheus
// renders a labeled family.
type Label struct {
	// Name must match the Prometheus label-name charset
	// ([a-zA-Z_][a-zA-Z0-9_]*); Value may be any string (escaped on
	// exposition).
	Name, Value string
}

// L builds a Label — sugar for registration call sites.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// kind is the exposition TYPE of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// String renders the TYPE the exposition format spells.
func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered instrument: its sorted label set and the hook
// that appends its sample lines.
type series struct {
	labelKey string // canonical sorted "k=v,k=v" form, the within-family sort key
	labels   []Label
	expose   func(buf []byte, name string, labels []Label) []byte
}

// family groups every series registered under one metric name; all of them
// must agree on help text and kind (enforced at registration).
type family struct {
	name   string
	help   string
	kind   kind
	series []series
}

// Registry holds a set of metric families and renders them as one
// Prometheus text scrape. Create one with NewRegistry; registration and
// exposition are safe for concurrent use with each other and with
// hot-path updates on the registered instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds one series under name, validating family consistency.
// Registration errors are programmer errors (duplicate series, one name
// used with two helps or kinds, malformed names) and panic.
func (r *Registry) register(name, help string, k kind, labels []Label, expose func(buf []byte, name string, labels []Label) []byte) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: metric name %q is not a valid Prometheus metric name", name))
	}
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: label name %q on metric %q is not a valid Prometheus label name", l.Name, name))
		}
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	key := labelKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.families[name] = f
	} else {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, k))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %q registered with two different help strings", name))
		}
		for _, s := range f.series {
			if s.labelKey == key {
				panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
			}
		}
	}
	f.series = append(f.series, series{labelKey: key, labels: ls, expose: expose})
}

// labelKey canonicalizes a sorted label set into the within-family sort key.
func labelKey(ls []Label) string {
	key := ""
	for i, l := range ls {
		if i > 0 {
			key += ","
		}
		key += l.Name + "=" + l.Value
	}
	return key
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing count. The nil Counter is a valid
// no-op, so uninstrumented layers call the same methods.
type Counter struct {
	v atomic.Int64
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, labels, func(buf []byte, fam string, ls []Label) []byte {
		return appendSample(buf, fam, "", ls, nil, float64(c.Value()))
	})
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which must be non-negative; counters never go down).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The nil Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Gauge registers and returns a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, labels, func(buf []byte, fam string, ls []Label) []byte {
		return appendSample(buf, fam, "", ls, nil, g.Value())
	})
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeFunc registers a gauge whose value is read by calling fn at scrape
// time — the form for values another layer already tracks (triple counts,
// uptime, sequence numbers). fn must be safe to call from any goroutine and
// should be cheap; it runs on every scrape.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func(buf []byte, fam string, ls []Label) []byte {
		return appendSample(buf, fam, "", ls, nil, fn())
	})
}

// CounterFunc registers a counter whose value is read by calling fn at
// scrape time — for monotone counts another layer already tracks (fsyncs,
// pool round trips). fn must be monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func(buf []byte, fam string, ls []Label) []byte {
		return appendSample(buf, fam, "", ls, nil, fn())
	})
}

// CounterVec is a family of counters whose label values are discovered at
// runtime (HTTP status codes, operator kinds). Children are created on
// first use and live forever; keep the value space small.
type CounterVec struct {
	reg        *Registry
	name, help string
	labelNames []string

	mu       sync.Mutex
	children map[string]*Counter
}

// CounterVec registers a runtime-labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	if len(labelNames) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label name", name))
	}
	return &CounterVec{
		reg:        r,
		name:       name,
		help:       help,
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*Counter),
	}
}

// With returns the child counter for the given label values (one per label
// name, in registration order), creating and registering it on first use.
// Callers on hot paths should cache the returned *Counter.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: CounterVec %q wants %d label values, got %d", v.name, len(v.labelNames), len(values)))
	}
	key := ""
	for i, val := range values {
		if i > 0 {
			key += "\x00"
		}
		key += val
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[key]; c != nil {
		return c
	}
	labels := make([]Label, len(values))
	for i, val := range values {
		labels[i] = Label{Name: v.labelNames[i], Value: val}
	}
	c := v.reg.Counter(v.name, v.help, labels...) //ontolint:ignore lockcheck fixed one-way order: CounterVec.mu always nests outside Registry.mu and registry code never calls back into a CounterVec, so the nesting cannot deadlock; holding mu across registration keeps first-use creation race-free (two concurrent With calls must not both register the series)
	v.children[key] = c
	return c
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// Since is a convenience for latency observations: it observes the seconds
// elapsed since start. The nil Histogram is a valid no-op.
func (h *Histogram) Since(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
