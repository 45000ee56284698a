package exec

import "sync/atomic"

// This file is the executor's observability surface: per-operator span
// statistics an EXPLAIN trace attaches to scan and join nodes, and the
// package-wide pool round-trip counters the overhead guard and /metrics
// read. With no stat attached an operator pays one pointer load and branch
// per Next call; the pool counters are one atomic add per buffer round
// trip (per batch, never per row).

// OpStat accumulates one operator's execution statistics. The evaluator
// attaches one per operator through Step.Stat; the operator adds into it from
// the pulling goroutine, so the struct needs no atomics — read it after the
// stream ends (or accept a torn mid-flight read).
type OpStat struct {
	// Batches and Rows count the non-nil batches the operator returned and
	// the rows they carried.
	Batches int64 `json:"batches"`
	Rows    int64 `json:"rows"`
	// Probes counts index probes issued (joins only): one per child row per
	// QueryIDBatch call, counted once per expansion candidate.
	Probes int64 `json:"probes"`
	// Nanos is the wall time spent inside this operator's Next calls,
	// inclusive of time spent pulling its children — the EXPLAIN ANALYZE
	// convention, so a parent's time bounds its subtree's. It reads obs.Now,
	// the request clock's source.
	Nanos int64 `json:"nanos"`
}

// instrumentable is satisfied by the operators Lower builds — scans and
// joins; the reasoner-only leaves carry no OpStat.
type instrumentable interface{ setStat(*OpStat) }

func (s *scan) setStat(st *OpStat) { s.stat = st }
func (j *join) setStat(st *OpStat) { j.stat = st }

// poolGets and poolPuts count buffer-pool round trips package-wide — every
// Get and Put against the batch, block, column, probe, triple, row and
// operator pools. The pair is the executor's recycling health signal:
// steady-state gets-puts is the working set currently pinned by live
// iterators, and a drifting gap means abandoned trees are leaking buffers
// to the garbage collector.
var poolGets, poolPuts atomic.Int64

// PoolCounters returns the cumulative buffer-pool gets and puts. The
// counters are process-wide and monotone; concurrent evaluations
// interleave, so deltas taken around one query are exact only when it runs
// alone.
func PoolCounters() (gets, puts int64) {
	return poolGets.Load(), poolPuts.Load()
}
