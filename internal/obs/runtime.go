package obs

import "runtime/metrics"

// RegisterRuntime registers the process-level Go runtime series — live heap,
// completed GC cycles, goroutines — read from runtime/metrics at scrape time,
// which, unlike runtime.ReadMemStats, does not stop the world. The values
// belong to the process, not to any engine layer, so a process registers them
// once, on the registry its /metrics endpoint serves.
func (r *Registry) RegisterRuntime() {
	r.GaugeFunc("onto_go_heap_live_bytes",
		"Heap bytes the last completed GC cycle found reachable.",
		runtimeUint64("/gc/heap/live:bytes"))
	r.CounterFunc("onto_go_gc_cycles_total",
		"Completed GC cycles since the process started.",
		runtimeUint64("/gc/cycles/total:gc-cycles"))
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
