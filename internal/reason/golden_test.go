package reason

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// This file pins the reasoner's exact counts. The golden below was written
// against the engine before its term loop, its pipelines and its counters
// were each said once (PR 25), and must pass unchanged after: the boot
// figures, every Stats field after every write, every Delta's generation and
// list lengths, and the final provenance snapshot — over a 10⁴-instance
// serving corpus under a seeded schedule of adds, provenance flips, retypes,
// batch removes and a rederiving remove, and over bulk_test.go's adversarial
// schemas under seeded two-sided writes.

// goldenClasses and goldenInstances scale the serving corpus for the counts
// golden: a smaller hierarchy, because classifying the harness's 120 classes
// alone takes longer than the test may.
const goldenClasses, goldenInstances = 40, 10_000

// countsTranscript renders one reasoner's pinned figures while it runs a
// schedule: the boot line, then one line per write.
type countsTranscript struct {
	b      strings.Builder
	r      *Reasoner
	events *[]Delta
}

func newCountsTranscript(t *testing.T, name string, base *store.Store, rules []Rule) *countsTranscript {
	t.Helper()
	r, err := Materialize(base, rules)
	if err != nil {
		t.Fatal(err)
	}
	ct := &countsTranscript{r: r, events: recordDeltas(r)}
	ms := r.MaterializeStats()
	fmt.Fprintf(&ct.b, "%s: boot rounds=%d heads=%d bulk=%d inferred=%d stats=%+v\n",
		name, ms.Rounds, ms.Heads, ms.BulkLoaded, ms.Inferred, r.Stats())
	return ct
}

// apply runs one write and records its counts and its Delta, if any.
func (ct *countsTranscript) apply(t *testing.T, step int, adds, removes []store.Triple) {
	t.Helper()
	fired := len(*ct.events)
	added, removed, err := ct.r.Apply(adds, removes, nil)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	fmt.Fprintf(&ct.b, "  %d: +%d -%d stats=%+v", step, added, removed, ct.r.Stats())
	if len(*ct.events) == fired {
		ct.b.WriteString(" no delta\n")
		return
	}
	d := (*ct.events)[fired]
	fmt.Fprintf(&ct.b, " delta gen=%d added=%d removed=%d asserted_added=%d asserted_removed=%d\n",
		d.Gen, len(d.Added), len(d.Removed), added, removed)
}

// finish records the provenance snapshot's digest.
func (ct *countsTranscript) finish(t *testing.T) string {
	t.Helper()
	fmt.Fprintf(&ct.b, "  sha256=%x\n", sha256.Sum256(provenanceSnapshot(t, ct.r)))
	return ct.b.String()
}

// servingSchedule drives the serving corpus through six kinds of write, in
// turn: fresh instances, a provenance flip, a retype, a batch remove, the
// remove of the flipped triple (rederived: its support is still there) and
// a two-sided write.
func servingSchedule(t *testing.T) string {
	const classes, sites = goldenClasses, 89 // as servingCorpusN
	base := store.New()
	if _, err := base.AddBatch(servingCorpusN(t, classes, goldenInstances)); err != nil {
		t.Fatal(err)
	}
	ct := newCountsTranscript(t, "serving", base, RDFSRules())
	rng := rand.New(rand.NewSource(2500))
	inst := func(i int) string { return "inst-" + strconv.Itoa(i) }
	typeOf := func(i, c int) store.Triple {
		return store.Triple{Subject: inst(i), Predicate: store.TypePredicate, Object: workload.ClassName(c)}
	}
	site := func(i int) store.Triple {
		return store.Triple{Subject: inst(i), Predicate: "locatedIn", Object: "site-" + strconv.Itoa(rng.Intn(sites))}
	}
	class := func(i int) int { return i % classes }
	moved := map[int]int{}
	fresh := goldenInstances
	var flipped store.Triple
	for step := 0; step < 24; step++ {
		var adds, removes []store.Triple
		switch step % 6 {
		case 0:
			for k := 0; k < 3; k++ {
				adds = append(adds, typeOf(fresh, rng.Intn(classes)), site(fresh))
				fresh++
			}
		case 1:
			i := rng.Intn(goldenInstances)
			inferred := ct.r.Overlay().Query(store.Pattern{Subject: inst(i), Predicate: store.TypePredicate})
			if len(inferred) == 0 {
				t.Fatalf("step %d: %s has no inferred type", step, inst(i))
			}
			flipped = inferred[rng.Intn(len(inferred))]
			adds = []store.Triple{flipped}
		case 2:
			i := rng.Intn(goldenInstances)
			from, ok := moved[i]
			if !ok {
				from = class(i)
			}
			to := (from + 1 + rng.Intn(classes-1)) % classes
			adds, removes = []store.Triple{typeOf(i, to)}, []store.Triple{typeOf(i, from)}
			moved[i] = to
		case 3:
			for k := 0; k < 4; k++ {
				i := rng.Intn(goldenInstances)
				if _, ok := moved[i]; !ok {
					removes = append(removes, typeOf(i, class(i)))
				}
			}
			removes = append(removes, ct.r.Base().Query(store.Pattern{Subject: inst(rng.Intn(goldenInstances)), Predicate: "locatedIn"})...)
		case 4:
			removes = []store.Triple{flipped}
		case 5:
			adds = []store.Triple{typeOf(fresh, rng.Intn(classes)), site(fresh)}
			fresh++
			removes = []store.Triple{typeOf(fresh-4, rng.Intn(classes)), typeOf(fresh-2, rng.Intn(classes))}
		}
		ct.apply(t, step, adds, removes)
	}
	if st := ct.r.Stats(); st.Rederived == 0 || st.Overdeleted == 0 {
		t.Fatalf("the schedule rederived %d and overdeleted %d triples; it must exercise both", st.Rederived, st.Overdeleted)
	}
	return ct.finish(t)
}

// adversarialSchedules runs seeded two-sided writes over every adversarial
// schema of bulk_test.go.
func adversarialSchedules(t *testing.T) string {
	var out strings.Builder
	rng := rand.New(rand.NewSource(25))
	for _, c := range adversarialCases(t) {
		base := store.New()
		if _, err := base.AddBatch(c.asserted); err != nil {
			t.Fatal(err)
		}
		ct := newCountsTranscript(t, c.name, base, c.rules)
		pool := append(append([]store.Triple(nil), c.asserted...), c.pool...)
		for step := 0; step < 8; step++ {
			adds, removes := randomApply(rng, ct.r, func() store.Triple { return pool[rng.Intn(len(pool))] })
			ct.apply(t, step, adds, removes)
		}
		out.WriteString(ct.finish(t))
	}
	return out.String()
}

// TestReasonCountsGolden holds the reasoner's exact counts to countsGolden.
func TestReasonCountsGolden(t *testing.T) {
	got := servingSchedule(t) + adversarialSchedules(t)
	if got != countsGolden {
		gl, wl := strings.Split(got, "\n"), strings.Split(countsGolden, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
		t.Fatalf("counts transcript differs from the golden; the whole transcript:\n%s", got)
	}
}

// TestReasonMetricsReadStats is the regression test for the derived counter
// that under-counted: a remove whose triple is rederived adds to
// Stats.Derived, and the registered onto_reason_derived_total and
// onto_reason_rounds_total must read exactly what Stats reads.
func TestReasonMetricsReadStats(t *testing.T) {
	base := store.New()
	if _, err := base.AddBatch([]store.Triple{
		tr("car", SubClassOfPredicate, "vehicle"),
		tr("kitt", store.TypePredicate, "car"),
		tr("kitt", store.TypePredicate, "vehicle"),
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Materialize(base, RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg)
	if _, removed, err := r.Apply(nil, []store.Triple{tr("kitt", store.TypePredicate, "vehicle")}, nil); err != nil || removed != 1 {
		t.Fatalf("Apply = %d removed, %v; want 1, nil", removed, err)
	}
	st := r.Stats()
	if st.Rederived != 1 || st.Derived != 1 {
		t.Fatalf("stats %+v; want the retracted triple rederived and counted as derived", st)
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"onto_reason_derived_total": st.Derived, "onto_reason_rounds_total": st.Rounds} {
		line := name + " " + strconv.Itoa(want) + "\n"
		if !strings.Contains(buf.String(), line) {
			t.Errorf("scrape lacks %q (Stats %+v):\n%s", strings.TrimSpace(line), st, buf.String())
		}
	}
}

// countsGolden is the transcript the engine produced before PR 25.
const countsGolden = `serving: boot rounds=3 heads=94924 bulk=83679 inferred=83768 stats={Rounds:3 Heads:94924 Derived:83768 Overdeleted:0 Rederived:0}
  0: +6 -0 stats={Rounds:5 Heads:94949 Derived:83790 Overdeleted:0 Rederived:0} delta gen=1 added=28 removed=0 asserted_added=6 asserted_removed=0
  1: +1 -0 stats={Rounds:5 Heads:94949 Derived:83790 Overdeleted:0 Rederived:0} delta gen=2 added=1 removed=1 asserted_added=1 asserted_removed=0
  2: +1 -1 stats={Rounds:8 Heads:94986 Derived:83799 Overdeleted:10 Rederived:8} delta gen=3 added=10 removed=11 asserted_added=1 asserted_removed=1
  3: +0 -5 stats={Rounds:9 Heads:94986 Derived:83800 Overdeleted:35 Rederived:9} delta gen=4 added=1 removed=30 asserted_added=0 asserted_removed=5
  4: +0 -1 stats={Rounds:10 Heads:94986 Derived:83801 Overdeleted:35 Rederived:10} delta gen=5 added=1 removed=1 asserted_added=0 asserted_removed=1
  5: +2 -0 stats={Rounds:12 Heads:94994 Derived:83808 Overdeleted:35 Rederived:10} delta gen=6 added=9 removed=0 asserted_added=2 asserted_removed=0
  6: +6 -0 stats={Rounds:14 Heads:95020 Derived:83831 Overdeleted:35 Rederived:10} delta gen=7 added=29 removed=0 asserted_added=6 asserted_removed=0
  7: +1 -0 stats={Rounds:14 Heads:95020 Derived:83831 Overdeleted:35 Rederived:10} delta gen=8 added=1 removed=1 asserted_added=1 asserted_removed=0
  8: +1 -1 stats={Rounds:17 Heads:95031 Derived:83842 Overdeleted:36 Rederived:11} delta gen=9 added=12 removed=2 asserted_added=1 asserted_removed=1
  9: +0 -5 stats={Rounds:18 Heads:95031 Derived:83843 Overdeleted:60 Rederived:12} delta gen=10 added=1 removed=29 asserted_added=0 asserted_removed=5
  10: +0 -1 stats={Rounds:19 Heads:95034 Derived:83846 Overdeleted:62 Rederived:15} delta gen=11 added=3 removed=3 asserted_added=0 asserted_removed=1
  11: +2 -0 stats={Rounds:21 Heads:95036 Derived:83847 Overdeleted:62 Rederived:15} delta gen=12 added=3 removed=0 asserted_added=2 asserted_removed=0
  12: +6 -0 stats={Rounds:23 Heads:95056 Derived:83864 Overdeleted:62 Rederived:15} delta gen=13 added=23 removed=0 asserted_added=6 asserted_removed=0
  13: +1 -0 stats={Rounds:23 Heads:95056 Derived:83864 Overdeleted:62 Rederived:15} delta gen=14 added=1 removed=1 asserted_added=1 asserted_removed=0
  14: +1 -1 stats={Rounds:26 Heads:95070 Derived:83872 Overdeleted:65 Rederived:19} delta gen=15 added=9 removed=4 asserted_added=1 asserted_removed=1
  15: +0 -5 stats={Rounds:27 Heads:95070 Derived:83873 Overdeleted:92 Rederived:20} delta gen=16 added=1 removed=32 asserted_added=0 asserted_removed=5
  16: +0 -1 stats={Rounds:28 Heads:95080 Derived:83878 Overdeleted:96 Rederived:25} delta gen=17 added=5 removed=5 asserted_added=0 asserted_removed=1
  17: +2 -0 stats={Rounds:30 Heads:95089 Derived:83886 Overdeleted:96 Rederived:25} delta gen=18 added=10 removed=0 asserted_added=2 asserted_removed=0
  18: +6 -0 stats={Rounds:32 Heads:95111 Derived:83905 Overdeleted:96 Rederived:25} delta gen=19 added=25 removed=0 asserted_added=6 asserted_removed=0
  19: +1 -0 stats={Rounds:32 Heads:95111 Derived:83905 Overdeleted:96 Rederived:25} delta gen=20 added=1 removed=1 asserted_added=1 asserted_removed=0
  20: +1 -1 stats={Rounds:32 Heads:95111 Derived:83905 Overdeleted:105 Rederived:25} delta gen=21 added=1 removed=11 asserted_added=1 asserted_removed=1
  21: +0 -5 stats={Rounds:33 Heads:95111 Derived:83906 Overdeleted:129 Rederived:26} delta gen=22 added=1 removed=29 asserted_added=0 asserted_removed=5
  22: +0 -1 stats={Rounds:34 Heads:95139 Derived:83914 Overdeleted:136 Rederived:34} delta gen=23 added=8 removed=8 asserted_added=0 asserted_removed=1
  23: +2 -1 stats={Rounds:36 Heads:95152 Derived:83926 Overdeleted:140 Rederived:34} delta gen=24 added=14 removed=5 asserted_added=2 asserted_removed=1
  sha256=7beb819b8193aa85285bb902dd30c80bde1f1272d6e5390a1380f2c1ca132183
unclosed chain: boot rounds=4 heads=58 bulk=7 inferred=25 stats={Rounds:4 Heads:58 Derived:25 Overdeleted:0 Rederived:0}
  0: +2 -1 stats={Rounds:7 Heads:97 Derived:37 Overdeleted:4 Rederived:0} delta gen=1 added=14 removed=5 asserted_added=2 asserted_removed=1
  1: +0 -0 stats={Rounds:7 Heads:97 Derived:37 Overdeleted:4 Rederived:0} no delta
  2: +0 -2 stats={Rounds:7 Heads:97 Derived:37 Overdeleted:33 Rederived:0} delta gen=2 added=0 removed=31 asserted_added=0 asserted_removed=2
  3: +0 -2 stats={Rounds:7 Heads:97 Derived:37 Overdeleted:36 Rederived:0} delta gen=3 added=0 removed=5 asserted_added=0 asserted_removed=2
  4: +2 -1 stats={Rounds:10 Heads:103 Derived:42 Overdeleted:38 Rederived:0} delta gen=4 added=7 removed=3 asserted_added=2 asserted_removed=1
  5: +2 -2 stats={Rounds:12 Heads:110 Derived:46 Overdeleted:43 Rederived:0} delta gen=5 added=6 removed=7 asserted_added=2 asserted_removed=2
  6: +1 -1 stats={Rounds:15 Heads:114 Derived:49 Overdeleted:46 Rederived:0} delta gen=6 added=4 removed=4 asserted_added=1 asserted_removed=1
  7: +1 -0 stats={Rounds:17 Heads:115 Derived:50 Overdeleted:46 Rederived:0} delta gen=7 added=2 removed=0 asserted_added=1 asserted_removed=0
  sha256=242426801da8d2a49f75b25e72652ac33d23b87fdf028ba2905fad44905e7967
diamond: boot rounds=3 heads=5 bulk=3 inferred=4 stats={Rounds:3 Heads:5 Derived:4 Overdeleted:0 Rederived:0}
  0: +0 -0 stats={Rounds:3 Heads:5 Derived:4 Overdeleted:0 Rederived:0} no delta
  1: +0 -0 stats={Rounds:3 Heads:5 Derived:4 Overdeleted:0 Rederived:0} no delta
  2: +1 -2 stats={Rounds:7 Heads:96 Derived:17 Overdeleted:14 Rederived:3} delta gen=1 added=14 removed=16 asserted_added=1 asserted_removed=2
  3: +1 -1 stats={Rounds:9 Heads:98 Derived:18 Overdeleted:17 Rederived:3} delta gen=2 added=2 removed=4 asserted_added=1 asserted_removed=1
  4: +0 -0 stats={Rounds:9 Heads:98 Derived:18 Overdeleted:17 Rederived:3} no delta
  5: +1 -1 stats={Rounds:13 Heads:224 Derived:36 Overdeleted:28 Rederived:11} delta gen=3 added=19 removed=12 asserted_added=1 asserted_removed=1
  6: +0 -2 stats={Rounds:14 Heads:224 Derived:37 Overdeleted:36 Rederived:12} delta gen=4 added=1 removed=10 asserted_added=0 asserted_removed=2
  7: +3 -1 stats={Rounds:17 Heads:228 Derived:40 Overdeleted:36 Rederived:12} delta gen=5 added=6 removed=1 asserted_added=3 asserted_removed=1
  sha256=3955d92ad1d45049f07f2ca0c86a9d321b1d905e32e48cd5b9dc536f6b7a945c
cycle: boot rounds=3 heads=52 bulk=5 inferred=11 stats={Rounds:3 Heads:52 Derived:11 Overdeleted:0 Rederived:0}
  0: +0 -1 stats={Rounds:4 Heads:56 Derived:16 Overdeleted:11 Rederived:5} delta gen=1 added=5 removed=12 asserted_added=0 asserted_removed=1
  1: +0 -1 stats={Rounds:4 Heads:56 Derived:16 Overdeleted:16 Rederived:5} delta gen=2 added=0 removed=6 asserted_added=0 asserted_removed=1
  2: +0 -0 stats={Rounds:4 Heads:56 Derived:16 Overdeleted:16 Rederived:5} no delta
  3: +1 -2 stats={Rounds:5 Heads:56 Derived:16 Overdeleted:16 Rederived:5} delta gen=3 added=1 removed=2 asserted_added=1 asserted_removed=2
  4: +2 -2 stats={Rounds:8 Heads:60 Derived:19 Overdeleted:19 Rederived:5} delta gen=4 added=5 removed=5 asserted_added=2 asserted_removed=2
  5: +0 -1 stats={Rounds:8 Heads:60 Derived:19 Overdeleted:19 Rederived:5} delta gen=5 added=0 removed=1 asserted_added=0 asserted_removed=1
  6: +3 -1 stats={Rounds:10 Heads:64 Derived:21 Overdeleted:20 Rederived:5} delta gen=6 added=5 removed=2 asserted_added=3 asserted_removed=1
  7: +1 -3 stats={Rounds:13 Heads:72 Derived:26 Overdeleted:26 Rederived:5} delta gen=7 added=6 removed=9 asserted_added=1 asserted_removed=3
  sha256=abcd17b3bf989aa66c7bbe2830e9295050d46439102a60794937b56b64bba7d2
property above the edge predicates: boot rounds=5 heads=23 bulk=6 inferred=17 stats={Rounds:5 Heads:23 Derived:17 Overdeleted:0 Rederived:0}
  0: +1 -2 stats={Rounds:8 Heads:26 Derived:20 Overdeleted:13 Rederived:0} delta gen=1 added=4 removed=15 asserted_added=1 asserted_removed=2
  1: +0 -2 stats={Rounds:9 Heads:26 Derived:21 Overdeleted:18 Rederived:1} delta gen=2 added=1 removed=7 asserted_added=0 asserted_removed=2
  2: +1 -2 stats={Rounds:11 Heads:27 Derived:22 Overdeleted:20 Rederived:1} delta gen=3 added=2 removed=4 asserted_added=1 asserted_removed=2
  3: +0 -2 stats={Rounds:11 Heads:27 Derived:22 Overdeleted:21 Rederived:1} delta gen=4 added=0 removed=3 asserted_added=0 asserted_removed=2
  4: +0 -2 stats={Rounds:11 Heads:27 Derived:22 Overdeleted:21 Rederived:1} delta gen=5 added=0 removed=2 asserted_added=0 asserted_removed=2
  5: +2 -2 stats={Rounds:12 Heads:27 Derived:22 Overdeleted:22 Rederived:1} delta gen=6 added=2 removed=3 asserted_added=2 asserted_removed=2
  6: +0 -3 stats={Rounds:12 Heads:27 Derived:22 Overdeleted:22 Rederived:1} delta gen=7 added=0 removed=3 asserted_added=0 asserted_removed=3
  7: +0 -0 stats={Rounds:12 Heads:27 Derived:22 Overdeleted:22 Rederived:1} no delta
  sha256=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
asserted and derivable: boot rounds=1 heads=4 bulk=0 inferred=0 stats={Rounds:1 Heads:4 Derived:0 Overdeleted:0 Rederived:0}
  0: +1 -1 stats={Rounds:2 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=1 added=1 removed=1 asserted_added=1 asserted_removed=1
  1: +0 -1 stats={Rounds:2 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=2 added=0 removed=1 asserted_added=0 asserted_removed=1
  2: +0 -1 stats={Rounds:2 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=3 added=0 removed=1 asserted_added=0 asserted_removed=1
  3: +0 -2 stats={Rounds:2 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=4 added=0 removed=2 asserted_added=0 asserted_removed=2
  4: +1 -2 stats={Rounds:3 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=5 added=1 removed=2 asserted_added=1 asserted_removed=2
  5: +2 -2 stats={Rounds:4 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=6 added=2 removed=2 asserted_added=2 asserted_removed=2
  6: +0 -1 stats={Rounds:4 Heads:4 Derived:0 Overdeleted:0 Rederived:0} delta gen=7 added=0 removed=1 asserted_added=0 asserted_removed=1
  7: +0 -0 stats={Rounds:4 Heads:4 Derived:0 Overdeleted:0 Rederived:0} no delta
  sha256=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
three-atom user rule: boot rounds=3 heads=6 bulk=3 inferred=5 stats={Rounds:3 Heads:6 Derived:5 Overdeleted:0 Rederived:0}
  0: +0 -1 stats={Rounds:3 Heads:6 Derived:5 Overdeleted:1 Rederived:0} delta gen=1 added=0 removed=2 asserted_added=0 asserted_removed=1
  1: +1 -1 stats={Rounds:4 Heads:6 Derived:5 Overdeleted:2 Rederived:0} delta gen=2 added=1 removed=2 asserted_added=1 asserted_removed=1
  2: +0 -0 stats={Rounds:4 Heads:6 Derived:5 Overdeleted:2 Rederived:0} no delta
  3: +1 -0 stats={Rounds:6 Heads:7 Derived:6 Overdeleted:2 Rederived:0} delta gen=3 added=2 removed=0 asserted_added=1 asserted_removed=0
  4: +0 -1 stats={Rounds:6 Heads:7 Derived:6 Overdeleted:5 Rederived:0} delta gen=4 added=0 removed=4 asserted_added=0 asserted_removed=1
  5: +0 -1 stats={Rounds:6 Heads:7 Derived:6 Overdeleted:6 Rederived:0} delta gen=5 added=0 removed=2 asserted_added=0 asserted_removed=1
  6: +1 -2 stats={Rounds:7 Heads:7 Derived:6 Overdeleted:6 Rederived:0} delta gen=6 added=1 removed=2 asserted_added=1 asserted_removed=2
  7: +0 -0 stats={Rounds:7 Heads:7 Derived:6 Overdeleted:6 Rederived:0} no delta
  sha256=4d526452ee4bb54922e10d18002d1c34d28d30aaaf023da500ca17f61ea8ce52
propagation without transitivity: boot rounds=7 heads=10 bulk=2 inferred=10 stats={Rounds:7 Heads:10 Derived:10 Overdeleted:0 Rederived:0}
  0: +1 -1 stats={Rounds:11 Heads:13 Derived:13 Overdeleted:8 Rederived:0} delta gen=1 added=4 removed=9 asserted_added=1 asserted_removed=1
  1: +0 -3 stats={Rounds:11 Heads:13 Derived:13 Overdeleted:11 Rederived:0} delta gen=2 added=0 removed=6 asserted_added=0 asserted_removed=3
  2: +3 -3 stats={Rounds:18 Heads:20 Derived:20 Overdeleted:18 Rederived:0} delta gen=3 added=10 removed=10 asserted_added=3 asserted_removed=3
  3: +0 -0 stats={Rounds:18 Heads:20 Derived:20 Overdeleted:18 Rederived:0} no delta
  4: +1 -0 stats={Rounds:19 Heads:20 Derived:20 Overdeleted:18 Rederived:0} delta gen=4 added=1 removed=0 asserted_added=1 asserted_removed=0
  5: +0 -0 stats={Rounds:19 Heads:20 Derived:20 Overdeleted:18 Rederived:0} no delta
  6: +1 -0 stats={Rounds:23 Heads:23 Derived:23 Overdeleted:18 Rederived:0} delta gen=5 added=4 removed=0 asserted_added=1 asserted_removed=0
  7: +1 -0 stats={Rounds:25 Heads:25 Derived:25 Overdeleted:18 Rederived:0} delta gen=6 added=3 removed=0 asserted_added=1 asserted_removed=0
  sha256=2b05ca0a8c7f1abf03b8a1875ee12e53f78909d3a6739403a05d42afd2a77fd6
`
