package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// footprint is the structural size of one index, counted by walking it: the
// lead pages allocated and the directory's chunk slots, the leads filed in
// the pages' slots, (lead, mid) pairs and the capacity they sit in,
// how many of the pairs hold their one member inline, and the runs of the
// others — a slice header each and their element capacity. Nothing is kept
// beside a page, a pair or a run.
type footprint struct {
	pages, tableCap, leads, pairs, pairCap, inline, runs, elemCap int
}

// indexFootprint walks one index. The caller holds its store's lock or owns
// the store.
func indexFootprint(ix *index) footprint {
	var f footprint
	f.tableCap = cap(ix.chunks)
	for _, ch := range ix.chunks {
		if ch == nil {
			continue
		}
		f.tableCap += len(ch)
		for _, pg := range ch {
			if pg != nil {
				f.pages++
			}
		}
	}
	ix.ascend(0, func(_ uint32, e *leadEntry) bool {
		f.leads++
		f.pairs += len(e.entries)
		f.pairCap += cap(e.entries)
		for j := range e.entries {
			if run := e.entries[j].run; run != nil {
				f.runs++
				f.elemCap += cap(*run)
			} else {
				f.inline++
			}
		}
		return true
	})
	return f
}

// add sums two walks.
func (f *footprint) add(g footprint) {
	f.pages += g.pages
	f.tableCap += g.tableCap
	f.leads += g.leads
	f.pairs += g.pairs
	f.pairCap += g.pairCap
	f.inline += g.inline
	f.runs += g.runs
	f.elemCap += g.elemCap
}

// slots is how many leads the allocated pages hold room for.
func (f footprint) slots() int {
	return f.pages * len(leadPage{})
}

// occupancy is the share of the slots that hold a lead. At about one half a
// page costs what a map would for the same leads (24 bytes a slot against 48
// a mapped lead), so an index well below that is filed at a loss.
func (f footprint) occupancy() float64 {
	if f.pages == 0 {
		return 0
	}
	return float64(f.leads) / float64(f.slots())
}

// bytes prices the walk.
func (f footprint) bytes() int {
	return f.leadBytes() + f.pairCap*int(unsafe.Sizeof(midTrail{})) + f.runBytes()
}

// leadBytes is the share of bytes the lead level costs: the allocated pages,
// whole, and the directory's chunk slots.
func (f footprint) leadBytes() int {
	return f.pages*int(unsafe.Sizeof(leadPage{})) + f.tableCap*int(unsafe.Sizeof((*leadPage)(nil)))
}

// runBytes is the share of bytes the runs add beside their pairs.
func (f footprint) runBytes() int {
	return f.runs*int(unsafe.Sizeof([]uint32(nil))) + f.elemCap*int(unsafe.Sizeof(uint32(0)))
}

func (f footprint) String() string {
	return fmt.Sprintf("%d leads in %d slots (%.1f %% occupied), %d pairs (cap %d, %d inline), %d runs over %d element slots, %d bytes",
		f.leads, f.slots(), 100*f.occupancy(), f.pairs, f.pairCap, f.inline, f.runs, f.elemCap, f.bytes())
}

// materializedServingSet builds, in s's dictionary, the sorted id triples of
// a materialized serving corpus in miniature: a random hierarchy of classes
// with its subClassOf closure, and instances that each carry a type fact for
// their class and every ancestor of it, a locatedIn and the within it
// entails. It returns the triples and the mean number of type facts per
// instance.
func materializedServingSet(t testing.TB, s *Store, classes, instances int) ([]IDTriple, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(20060326))
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	typ, sub, located, within := id(TypePredicate), id("subClassOf"), id("locatedIn"), id("within")
	class := make([]SymbolID, classes)
	ancestors := make([][]int, classes) // transitive, self excluded
	var ts []IDTriple
	for c := range class {
		class[c] = id(fmt.Sprintf("class-%d", c))
		seen := map[int]bool{}
		for parents := 1 + rng.Intn(2); c > 0 && parents > 0; parents-- {
			parent := rng.Intn(c)
			seen[parent] = true
			for _, a := range ancestors[parent] {
				seen[a] = true
			}
		}
		for a := range seen {
			ancestors[c] = append(ancestors[c], a)
			ts = append(ts, IDTriple{S: class[c], P: sub, O: class[a]})
		}
	}
	const sites = 89
	site := make([]SymbolID, sites)
	for k := range site {
		site[k] = id(fmt.Sprintf("site-%d", k))
	}
	types := 0
	for i := 0; i < instances; i++ {
		inst, c, at := id(fmt.Sprintf("inst-%d", i)), i%classes, site[(i*37+i/sites)%sites]
		ts = append(ts, IDTriple{S: inst, P: typ, O: class[c]}, IDTriple{S: inst, P: located, O: at}, IDTriple{S: inst, P: within, O: at})
		for _, a := range ancestors[c] {
			ts = append(ts, IDTriple{S: inst, P: typ, O: class[a]})
		}
		types += 1 + len(ancestors[c])
	}
	SortIDTriples(ts)
	return ts, float64(types) / float64(instances)
}

// loadServingStore bulk-loads a store with materializedServingSet at the
// serving corpus's 120 classes.
func loadServingStore(t testing.TB, instances int) *Store {
	t.Helper()
	s := New()
	ts, typesPerInstance := materializedServingSet(t, s, 120, instances)
	if typesPerInstance < 9 || typesPerInstance > 13 {
		t.Fatalf("%.1f type facts per instance; the serving corpus has about 11", typesPerInstance)
	}
	if err := s.LoadSorted(ts); err != nil {
		t.Fatal(err)
	}
	return s
}

// storeFootprint walks every field of Store that is an index, found by type
// rather than by name, so an index added later is inside the budget without
// the walk having to hear about it. It returns the indexes' field names and
// footprints, and their sum.
func storeFootprint(s *Store) (names []string, fams []footprint, total footprint) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for v, i := reflect.ValueOf(s).Elem(), 0; i < v.NumField(); i++ {
		if v.Field(i).Type() != reflect.TypeOf(index{}) {
			continue
		}
		f := indexFootprint((*index)(unsafe.Pointer(v.Field(i).UnsafeAddr())))
		names, fams = append(names, v.Type().Field(i).Name), append(fams, f)
		total.add(f)
	}
	return names, fams, total
}

// TestIndexFootprint holds the index layout to its memory budget on the shape
// the serving harness boots: per triple, at most 0.35 (lead, mid) pairs and
// 16 structural bytes over all indexes, with a (lead, mid) pair at 16 bytes.
// A layout that files every triple under a near-unique (lead, mid) pair — an
// object-led index over type facts, one midTrail per (class, instance) — has
// more than one pair per triple and fails both; one that keeps anything per
// member beside the member itself — a position map over a class's instances,
// 16 bytes an entry — fails the bytes, and so does one that gives each
// single-member set a run of its own (a header and an element, 28 bytes, on
// two of an instance's three SPO pairs), or files each lead through a hash
// map again (24 bytes a lead beside its entry: 17.1 here).
func TestIndexFootprint(t *testing.T) {
	if size := unsafe.Sizeof(midTrail{}); size != 16 {
		t.Errorf("a (lead, mid) pair is %d bytes, budget 16: a mid, one inline member and a run pointer", size)
	}
	s := loadServingStore(t, 10_000)
	names, fams, total := storeFootprint(s)
	for i, f := range fams {
		t.Logf("%s: %v", names[i], f)
	}
	n := float64(s.Len())
	pairs, bytes := float64(total.pairs)/n, float64(total.bytes())/n
	t.Logf("%d triples: %.3f pairs and %.1f structural bytes per triple", s.Len(), pairs, bytes)
	if len(fams) < 2 || total.inline+total.elemCap < len(fams)*s.Len() {
		t.Fatalf("%d inline members and %d element slots for %d triples in %d indexes: the walk missed part of the index", total.inline, total.elemCap, s.Len(), len(fams))
	}
	if pairs > 0.35 {
		t.Errorf("%.3f (lead, mid) pairs per triple, budget 0.35", pairs)
	}
	if bytes > 16 {
		t.Errorf("%.1f structural bytes per triple, budget 16", bytes)
	}
}

// TestLonePredicateCostsOnePage: a store whose only predicate was minted at
// id 10⁵, after every other name, files its one POS lead in one page — on the
// write path and on the bulk path alike. The chunk table reaches the id; the
// chunks and pages do not, where flat pages up to the id would cost 24 bytes
// for every id below it and a flat page table 8 bytes for every 128.
func TestLonePredicateCostsOnePage(t *testing.T) {
	const late = 100_000
	s := New()
	for i := 0; i < late; i++ {
		if _, err := s.Intern(fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := s.Intern("late")
	if err != nil || pred != late {
		t.Fatalf("Intern(late) = %d, %v; want id %d", pred, err, late)
	}
	var ts []IDTriple
	for i := SymbolID(0); i < 50; i++ {
		ts = append(ts, IDTriple{S: i, P: pred, O: i + 1})
	}
	tx := s.Begin()
	for _, tr := range ts {
		if _, err := tx.AddID(tr); err != nil {
			t.Fatal(err)
		}
	}
	bulk := s.NewOverlay()
	if err := bulk.LoadSorted(ts); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"written": s, "bulk-loaded": bulk} {
		f := indexFootprint(&st.pos)
		t.Logf("%s: POS %v; lead level %d bytes", name, f, f.leadBytes())
		if f.leads != 1 || f.pages != 1 {
			t.Errorf("%s: POS files %d leads in %d pages, want 1 in 1", name, f.leads, f.pages)
		}
		if table := f.leadBytes() - int(unsafe.Sizeof(leadPage{})); table > 1024 {
			t.Errorf("%s: the POS directory costs %d bytes to reach id %d", name, table, late)
		}
	}
}

// BenchmarkIndexFootprint is TestIndexFootprint's walk at the harness's 10⁵
// instances, reported rather than judged: structural bytes and (lead, mid)
// pairs per triple for each index — with the share of the bytes the runs add
// and of the pairs that hold their member inline — and over both: the
// per-index table of PERFLOG.md "One member, inline", from
//
//	go test -run '^$' -bench IndexFootprint -benchtime 1x ./internal/store
//
// What is timed is the walk itself.
func BenchmarkIndexFootprint(b *testing.B) {
	s := loadServingStore(b, 100_000)
	b.ResetTimer()
	var names []string
	var fams []footprint
	var total footprint
	for i := 0; i < b.N; i++ {
		names, fams, total = storeFootprint(s)
	}
	n := float64(s.Len())
	for i, f := range fams {
		b.ReportMetric(float64(f.bytes())/n, names[i]+"-B/triple")
		b.ReportMetric(float64(f.runBytes())/n, names[i]+"-run-B/triple")
		b.ReportMetric(float64(f.pairs)/n, names[i]+"-pairs/triple")
		b.ReportMetric(float64(f.inline)/n, names[i]+"-inline/triple")
		b.ReportMetric(float64(f.leads), names[i]+"-leads")
		b.ReportMetric(float64(f.slots()), names[i]+"-slots")
		b.ReportMetric(f.occupancy(), names[i]+"-occupancy")
	}
	b.ReportMetric(float64(total.bytes())/n, "B/triple")
	b.ReportMetric(float64(total.pairs)/n, "pairs/triple")
}
