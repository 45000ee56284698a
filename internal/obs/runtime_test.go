package obs

import (
	"math"
	"runtime/metrics"
	"slices"
	"testing"
)

// TestRebucket: a runtime bucket's count lands in the first bound not below
// its upper edge — an edge equal to a bound stays in it, one past the last
// bound goes to +Inf — and the sum adds each observation's positive lower
// edge. A runtime without the metric scrapes as an empty histogram.
func TestRebucket(t *testing.T) {
	h := &metrics.Float64Histogram{
		Buckets: []float64{math.Inf(-1), 0, 1.5e-6, 2e-6, 3e-3, 20, math.Inf(1)},
		Counts:  []uint64{0, 4, 2, 1, 3, 5},
	}
	s := rebucket(h, []float64{1e-6, 2e-6, 4e-6, 1, 10})
	if want := []int64{0, 6, 0, 1, 0, 8}; !slices.Equal(s.Counts, want) {
		t.Errorf("counts %v, want %v", s.Counts, want)
	}
	if s.Count != 15 {
		t.Errorf("count %d, want 15", s.Count)
	}
	if want := 2*1.5e-6 + 2e-6 + 3*3e-3 + 5*20; math.Abs(s.Sum-want) > 1e-12 {
		t.Errorf("sum %g, want %g", s.Sum, want)
	}
	if s := rebucket(nil, LatencyBuckets()); s.Count != 0 || len(s.Counts) != len(LatencyBuckets())+1 {
		t.Errorf("a missing metric rebuckets to %+v, want an empty histogram", s)
	}
}
