package obs

import (
	"runtime/metrics"
	"sort"
)

// RegisterRuntime registers the process-level Go runtime series — live heap,
// the heap goal, completed GC cycles, GC pauses, goroutines — read from
// runtime/metrics at scrape time, which, unlike runtime.ReadMemStats, does
// not stop the world. The values belong to the process, not to any engine
// layer, so a process registers them once, on the registry its /metrics
// endpoint serves.
func (r *Registry) RegisterRuntime() {
	r.GaugeFunc("onto_go_heap_live_bytes",
		"Heap bytes the last completed GC cycle found reachable.",
		runtimeUint64("/gc/heap/live:bytes"))
	r.GaugeFunc("onto_go_heap_goal_bytes",
		"Heap size at which the GC aims to finish the current cycle.",
		runtimeUint64("/gc/heap/goal:bytes"))
	r.CounterFunc("onto_go_gc_cycles_total",
		"Completed GC cycles since the process started.",
		runtimeUint64("/gc/cycles/total:gc-cycles"))
	bounds := LatencyBuckets()
	r.register("onto_go_gc_pause_seconds",
		"Stop-the-world GC pauses since the process started; the sum counts each pause at its runtime bucket's lower edge.",
		kindHistogram, nil, func(buf []byte, fam string, ls []Label) []byte {
			s := [1]metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
			metrics.Read(s[:])
			var h *metrics.Float64Histogram
			if s[0].Value.Kind() == metrics.KindFloat64Histogram {
				h = s[0].Value.Float64Histogram()
			}
			return rebucket(h, bounds).expose(buf, fam, ls)
		})
	r.GaugeFunc("onto_go_goroutines",
		"Live goroutines.",
		runtimeUint64("/sched/goroutines:goroutines"))
}

// runtimeUint64 returns a scrape-time reader of one uint64-valued
// runtime/metrics sample; a name this toolchain's runtime does not export
// reads as 0.
func runtimeUint64(name string) func() float64 {
	return func() float64 {
		s := [1]metrics.Sample{{Name: name}}
		metrics.Read(s[:])
		if s[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(s[0].Value.Uint64())
	}
}

// rebucket moves a runtime histogram onto the given bounds: each runtime
// bucket's count goes to the first bound not below its upper edge (the +Inf
// bucket past the last), so no observation lands below its true value. The
// runtime keeps no sum; each observation adds its bucket's lower edge, or 0
// where that edge is not positive, which makes the sum a lower bound. A nil
// histogram (a runtime without the metric) is empty.
func rebucket(h *metrics.Float64Histogram, bounds []float64) HistogramSnapshot {
	s := HistogramSnapshot{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
	if h == nil {
		return s
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		s.Counts[sort.SearchFloat64s(bounds, h.Buckets[i+1])] += int64(c)
		s.Count += int64(c)
		if lo := h.Buckets[i]; lo > 0 {
			s.Sum += lo * float64(c)
		}
	}
	return s
}
