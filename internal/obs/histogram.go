package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// This file is the histogram instrument: log-bucketed distributions with
// atomic hot-path observation and cumulative Prometheus exposition.

// Histogram is a distribution of observations over fixed buckets. A value v
// falls into the first bucket whose upper bound is >= v (bounds are
// inclusive, the Prometheus `le` convention); values above every bound land
// in the implicit +Inf bucket. Observe is lock-free: one bucket increment,
// one count increment, one CAS loop for the sum. The nil Histogram is a
// valid no-op.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Histogram registers and returns a histogram series over the given bucket
// upper bounds, which must be sorted strictly ascending and non-empty
// (ExpBuckets, LatencyBuckets and SizeBuckets build standard schedules).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := newHistogram(name, bounds)
	r.register(name, help, kindHistogram, labels, func(buf []byte, fam string, ls []Label) []byte {
		return h.Snapshot().expose(buf, fam, ls)
	})
	return h
}

// newHistogram validates the bounds and builds the unregistered instrument.
func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds must be sorted strictly ascending", name))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free; safe for any number of
// concurrent observers.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Branch-predictable linear scan: bucket schedules are a few dozen
	// entries and most observations land in the first few buckets of a
	// latency histogram, so the scan beats a binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state, the
// form exposition reads. Counts[i] is the non-cumulative count of bucket i
// (Counts[len(Bounds)] is the +Inf bucket).
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds, sorted ascending.
	Bounds []float64
	// Counts holds one non-cumulative count per bucket, plus the +Inf
	// bucket at the end.
	Counts []int64
	// Count and Sum are the total observation count and value sum.
	Count int64
	Sum   float64
}

// Snapshot copies the histogram's current state. Concurrent observers may
// land between the bucket reads — each bucket's value is exact at its own
// read, the cross-bucket total is approximate under concurrency, exact on
// a quiescent histogram. The nil Histogram snapshots to the zero value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// expose appends the snapshot's cumulative bucket lines, sum and count in
// the Prometheus histogram convention.
func (s HistogramSnapshot) expose(buf []byte, name string, labels []Label) []byte {
	cum := int64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		buf = appendSample(buf, name+"_bucket", "", labels, &Label{Name: "le", Value: formatFloat(bound)}, float64(cum))
	}
	cum += s.Counts[len(s.Bounds)]
	buf = appendSample(buf, name+"_bucket", "", labels, &Label{Name: "le", Value: "+Inf"}, float64(cum))
	buf = appendSample(buf, name+"_sum", "", labels, nil, s.Sum)
	buf = appendSample(buf, name+"_count", "", labels, nil, float64(s.Count))
	return buf
}

// ExpBuckets builds n exponential bucket bounds: start, start*factor,
// start*factor², … — the log-bucketed schedule every latency and size
// histogram in the engine uses. start must be positive and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the standard latency schedule: 1µs to ~8.6s in
// doubling buckets (24 bounds), covering everything from a cache hit to a
// timed-out query in one histogram.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 2, 24) }

// SizeBuckets is the standard size/count schedule: 1 to ~1M in doubling
// buckets (21 bounds) — solution counts, batch sizes, delta sizes.
func SizeBuckets() []float64 { return ExpBuckets(1, 2, 21) }
