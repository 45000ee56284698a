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
// others — a slice header each and their element capacity — with the run
// table's slots and its free list's. Nothing is kept beside a page, a pair,
// a run or the table.
type footprint struct {
	pages, tableCap, leads, pairs, pairCap, inline, runs, elemCap, runSlots, freeCap int
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
	f.runSlots, f.freeCap = cap(ix.runs), cap(ix.free)
	ix.ascend(0, func(_ uint32, e *leadEntry) bool {
		f.leads++
		f.pairs += int(e.n)
		f.pairCap += int(e.c)
		for _, mt := range e.pairs() {
			if mt.v&runTag != 0 {
				f.runs++
				f.elemCap += cap(mt.elems(ix.runs))
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
	f.runSlots += g.runSlots
	f.freeCap += g.freeCap
}

// slots is how many leads the allocated pages hold room for.
func (f footprint) slots() int {
	return f.pages * len(leadPage{})
}

// occupancy is the share of the slots that hold a lead. At about one half a
// page costs what a map would for the same leads (16 bytes a slot against about
// 32 a mapped lead), so an index well below that is filed at a loss.
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

// runBytes is the share of bytes the runs add beside their pairs: their
// elements, and the run table, a slice header a slot, and its free list.
func (f footprint) runBytes() int {
	return f.elemCap*int(unsafe.Sizeof(uint32(0))) + f.runSlots*int(unsafe.Sizeof([]uint32(nil))) + f.freeCap*int(unsafe.Sizeof(uint32(0)))
}

func (f footprint) String() string {
	return fmt.Sprintf("%d leads in %d slots (%.1f %% occupied), %d pairs (cap %d, %d inline), %d runs over %d element slots, %d bytes",
		f.leads, f.slots(), 100*f.occupancy(), f.pairs, f.pairCap, f.inline, f.runs, f.elemCap, f.bytes())
}

// servingShape is one shape of the serving corpus in miniature: the
// materialized set, which files every instance type and within the
// reasoner derives, or the asserted set the server boots now, whose types
// and withins are answered from the closures instead (API.md "Closed typing
// and properties").
type servingShape struct {
	name         string
	materialized bool
}

var (
	materializedShape = servingShape{"materialized", true}
	bootShape         = servingShape{"boot", false}
)

// servingSet builds, in s's dictionary, the sorted id triples of a serving
// corpus of the shape in miniature: a random hierarchy of classes with its
// subClassOf closure, and instances that each carry a type fact for their
// class and a locatedIn — materialized, also one for every ancestor of the
// class and the within the locatedIn entails; as booted, with the sites
// partOf the corpus's seven regions instead. It returns the triples and the
// mean number of type facts per instance.
func servingSet(t testing.TB, s *Store, shape servingShape, classes, instances int) ([]IDTriple, float64) {
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
	const sites, regions = 89, 7
	site := make([]SymbolID, sites)
	for k := range site {
		site[k] = id(fmt.Sprintf("site-%d", k))
	}
	if !shape.materialized {
		partOf := id("partOf")
		for k := range site {
			ts = append(ts, IDTriple{S: site[k], P: partOf, O: id(fmt.Sprintf("region-%d", k%regions))})
		}
	}
	types := 0
	for i := 0; i < instances; i++ {
		inst, c, at := id(fmt.Sprintf("inst-%d", i)), i%classes, site[(i*37+i/sites)%sites]
		ts = append(ts, IDTriple{S: inst, P: typ, O: class[c]}, IDTriple{S: inst, P: located, O: at})
		types++
		if shape.materialized {
			ts = append(ts, IDTriple{S: inst, P: within, O: at})
			for _, a := range ancestors[c] {
				ts = append(ts, IDTriple{S: inst, P: typ, O: class[a]})
			}
			types += len(ancestors[c])
		}
	}
	SortIDTriples(ts)
	return ts, float64(types) / float64(instances)
}

// loadServingStore bulk-loads a store with servingSet of the shape at the
// serving corpus's 120 classes.
func loadServingStore(t testing.TB, shape servingShape, instances int) *Store {
	t.Helper()
	s := New()
	ts, typesPerInstance := servingSet(t, s, shape, 120, instances)
	if shape.materialized && (typesPerInstance < 9 || typesPerInstance > 13) {
		t.Fatalf("%.1f type facts per instance; the materialized serving corpus has about 11", typesPerInstance)
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

// TestIndexFootprint holds the index layout to its memory budget on two
// shapes of the serving corpus, each with its budget per triple over all
// indexes, the measured figure and about a tenth: the materialized set of
// about 11 types an instance, at most 0.255 (lead, mid) pairs and 14.3
// structural bytes (measured 0.232 and 13.01), and the set the server boots,
// a type and a locatedIn an instance, at most 1.06 pairs and 22.3 bytes
// (measured 0.962 and 20.31). A layout that files every triple under a
// near-unique (lead, mid) pair — an object-led index over type facts, one
// midTrail per (class, instance) — has more than one pair per triple and
// fails both; one that keeps anything per member beside the member itself —
// a position map over a class's instances, 16 bytes an entry — fails the
// bytes, and so does one that gives each single-member set a run of its own
// (a table slot and an element, 28 bytes, on two of an instance's three SPO
// pairs: 17.3), or widens the pair back to 16 bytes (14.9); on the booted
// set, where a lead holds two triples, so does a lead back at 24 bytes
// (24.3). The pair, the lead and the lead page are pinned to their sizes.
func TestIndexFootprint(t *testing.T) {
	for _, c := range []struct {
		what string
		size uintptr
		want uintptr
	}{
		{"a (lead, mid) pair: a mid and a member or a run's slot", unsafe.Sizeof(midTrail{}), 8},
		{"a lead: a pointer to its pairs, their number and capacity", unsafe.Sizeof(leadEntry{}), 16},
		{"a lead page: 128 leads, an allocator size class", unsafe.Sizeof(leadPage{}), 2048},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.size, c.want)
		}
	}
	for _, c := range []struct {
		shape        servingShape
		pairs, bytes float64
	}{
		{materializedShape, 0.255, 14.3},
		{bootShape, 1.06, 22.3},
	} {
		s := loadServingStore(t, c.shape, 10_000)
		names, fams, total := storeFootprint(s)
		for i, f := range fams {
			t.Logf("%s %s: %v", c.shape.name, names[i], f)
		}
		n := float64(s.Len())
		pairs, bytes := float64(total.pairs)/n, float64(total.bytes())/n
		t.Logf("%s: %d triples: %.3f pairs and %.2f structural bytes per triple", c.shape.name, s.Len(), pairs, bytes)
		if len(fams) < 2 || total.inline+total.elemCap < len(fams)*s.Len() {
			t.Fatalf("%s: %d inline members and %d element slots for %d triples in %d indexes: the walk missed part of the index", c.shape.name, total.inline, total.elemCap, s.Len(), len(fams))
		}
		if pairs > c.pairs {
			t.Errorf("%s: %.3f (lead, mid) pairs per triple, budget %.3f", c.shape.name, pairs, c.pairs)
		}
		if bytes > c.bytes {
			t.Errorf("%s: %.2f structural bytes per triple, budget %.1f", c.shape.name, bytes, c.bytes)
		}
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
// instances, reported rather than judged, for each shape of the serving
// corpus: structural bytes and (lead, mid) pairs per triple for each index —
// with the share of the bytes the runs add and of the pairs that hold their
// member inline — and over both: the per-index table of PERFLOG.md "One
// member, inline", from
//
//	go test -run '^$' -bench IndexFootprint -benchtime 1x ./internal/store
//
// What is timed is the walk itself.
func BenchmarkIndexFootprint(b *testing.B) {
	for _, shape := range []servingShape{materializedShape, bootShape} {
		b.Run(shape.name, func(b *testing.B) {
			s := loadServingStore(b, shape, 100_000)
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
		})
	}
}
