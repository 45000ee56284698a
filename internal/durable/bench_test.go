package durable

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/store"
)

// BenchmarkIngestWAL measures what durability costs the ingest path: 1e5
// triples in 1000-triple batches, against the bare in-memory store and
// against a journaled store under each fsync policy. The "always/group"
// variant ingests the same work from 8 goroutines so concurrent committers
// share fsyncs — the group-commit effect the log is built around.
func BenchmarkIngestWAL(b *testing.B) {
	const total, batch = 100_000, 1000
	batches := make([][]store.Triple, 0, total/batch)
	for off := 0; off < total; off += batch {
		ts := make([]store.Triple, 0, batch)
		for i := off; i < off+batch; i++ {
			ts = append(ts, store.Triple{
				Subject:   fmt.Sprintf("subject-%d", i%5000),
				Predicate: fmt.Sprintf("predicate-%d", i%17),
				Object:    fmt.Sprintf("object-%d", i),
			})
		}
		batches = append(batches, ts)
	}

	ingest := func(b *testing.B, st *store.Store, workers int) {
		b.Helper()
		if workers <= 1 {
			for _, ts := range batches {
				if _, err := st.AddBatch(ts); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		var wg sync.WaitGroup
		next := make(chan []store.Triple)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ts := range next {
					if _, err := st.AddBatch(ts); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		for _, ts := range batches {
			next <- ts
		}
		close(next)
		wg.Wait()
	}

	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ingest(b, store.New(), 1)
		}
		b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "triples/s")
	})
	for _, bench := range []struct {
		name    string
		policy  FsyncPolicy
		workers int
	}{
		{"wal-off", FsyncOff, 1},
		{"wal-batch", FsyncBatch, 1},
		{"wal-always", FsyncAlways, 1},
		{"wal-always-group", FsyncAlways, 8},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := store.New()
				eng, err := Open(st, Options{Dir: b.TempDir(), Fsync: bench.policy, CheckpointBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				ingest(b, st, bench.workers)
				b.StopTimer()
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

// benchCorpus is the deterministic n-triple recovery corpus: components recur
// so the dictionary is a realistic fraction of the triple count.
func benchCorpus(n int) []store.Triple {
	ts := make([]store.Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, store.Triple{
			Subject:   fmt.Sprintf("subject-%d", i%(n/5+1)),
			Predicate: fmt.Sprintf("predicate-%d", i%23),
			Object:    fmt.Sprintf("object-%d", i),
		})
	}
	return ts
}

// buildRecoveryDir ingests n triples through an engine and returns the
// directory. With checkpoint true the corpus is folded into a single base
// segment (the WAL tail left behind is empty); with checkpoint false the
// whole corpus stays in the log.
func buildRecoveryDir(b *testing.B, n int, checkpoint bool) string {
	b.Helper()
	dir := b.TempDir()
	st := store.New()
	eng, err := Open(st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(n)
	for off := 0; off < len(corpus); off += 10_000 {
		end := off + 10_000
		if end > len(corpus) {
			end = len(corpus)
		}
		if _, err := st.AddBatch(corpus[off:end]); err != nil {
			b.Fatal(err)
		}
	}
	if checkpoint {
		if err := eng.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchmarkRecover times Open over a store of n triples, end to end (file I/O
// included). There is one way the engine rebuilds a store — compose the
// directory's patches, load the result through store.RestoreSorted — and two
// directory shapes it meets:
//
//   - bulk: the corpus checkpointed into one base segment, the log tail
//     empty; the fold is a segment load.
//   - wal-only: the same corpus left entirely in the log; the fold decodes
//     every record and sorts the window's events (last event per triple
//     wins) before the same load.
//
// The gap between the two is what a checkpoint buys a restart.
func benchmarkRecover(b *testing.B, n int) {
	for _, variant := range []struct {
		name       string
		checkpoint bool
	}{
		{"bulk", true},
		{"wal-only", false},
	} {
		dir := buildRecoveryDir(b, n, variant.checkpoint)
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := store.New()
				eng, err := Open(st, Options{Dir: dir, Fsync: FsyncOff, mergeRatio: -1})
				if err != nil {
					b.Fatal(err)
				}
				if st.Len() != n {
					b.Fatalf("recovered %d triples, want %d", st.Len(), n)
				}
				b.StopTimer()
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
				// A real recovery boots into a fresh heap; without this,
				// iterations after the first pay collection of the previous
				// iteration's dead store inside the timed region.
				runtime.GC()
				b.StartTimer()
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

func BenchmarkRecover1e5(b *testing.B) { benchmarkRecover(b, 100_000) }
func BenchmarkRecover1e6(b *testing.B) { benchmarkRecover(b, 1_000_000) }

// BenchmarkCheckpointDelta pins the O(delta) checkpoint property: against a
// 1e5-triple base already folded into a segment, each iteration journals a
// 1000-triple burst and checkpoints it. The reported segment bytes per op
// are the size of the delta, not the corpus — the old full-dump design paid
// the whole corpus here every time — and B/op is what folding and publishing
// that delta allocates.
func BenchmarkCheckpointDelta(b *testing.B) {
	const base, burst = 100_000, 1000
	dir := b.TempDir()
	st := store.New()
	eng, err := Open(st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	corpus := benchCorpus(base)
	for off := 0; off < len(corpus); off += 10_000 {
		if _, err := st.AddBatch(corpus[off : off+10_000]); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	segBefore := eng.Stats().CheckpointBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := make([]store.Triple, 0, burst)
		for j := 0; j < burst; j++ {
			ts = append(ts, store.Triple{
				Subject:   fmt.Sprintf("delta-subject-%d", (i*burst+j)%5000),
				Predicate: "delta-predicate",
				Object:    fmt.Sprintf("delta-object-%d", i*burst+j),
			})
		}
		b.StartTimer()
		if _, err := st.AddBatch(ts); err != nil {
			b.Fatal(err)
		}
		if err := eng.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Stats().CheckpointBytes-segBefore)/float64(b.N), "segbytes/op")
}

// BenchmarkMergeRun measures one merge of the chain BenchmarkCheckpointDelta
// builds: a 1e5-triple base segment and a 1000-triple delta. Each iteration
// loads and folds the two files and publishes the merged segment, as
// Engine.mergeRun does, over a real directory; the inputs stay, so every
// iteration merges the same pair. B/op is what the merge allocates.
func BenchmarkMergeRun(b *testing.B) {
	const base, burst = 100_000, 1000
	dir := b.TempDir()
	st := store.New()
	eng, err := Open(st, Options{Dir: dir, Fsync: FsyncOff, CheckpointBytes: -1, mergeRatio: -1})
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(base + burst)
	for _, part := range [][]store.Triple{corpus[:base], corpus[base:]} {
		if _, err := st.AddBatch(part); err != nil {
			b.Fatal(err)
		}
		if err := eng.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	chain := eng.Stats().Tiers
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	d := osDisk{dir}
	metas := make([]segMeta, len(chain))
	for i, tier := range chain {
		metas[i] = segMeta{start: tier.Start, end: tier.End}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, err := foldChain(d, metas, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := writeSegment(d, merged, nil); err != nil {
			b.Fatal(err)
		}
	}
}
