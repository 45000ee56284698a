package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// footprint is the structural size of one index family, counted by walking
// it: lead entries, (lead, mid) pairs and the capacity they sit in, trailing
// element capacity, and entries of the two kinds of spill map
// (leadEntry.idx over a lead's mids, idSet.idx over a set's members).
type footprint struct {
	leads, pairs, pairCap, elemCap, spill int
}

// What a map entry costs beyond the structs the walk prices with
// unsafe.Sizeof, from a heap profile of a loaded store: a map[uint32]int32
// entry (both spill maps) about 16 bytes, a map[uint32]*leadEntry entry about
// 24, bucket overhead included.
const (
	spillEntryBytes   = 16
	leadMapEntryBytes = 24
)

func familyFootprint(fam *indexFamily) footprint {
	var f footprint
	for i := range fam {
		sh := &fam[i]
		sh.mu.RLock()
		for _, e := range sh.m {
			f.leads++
			f.pairs += len(e.entries)
			f.pairCap += cap(e.entries)
			f.spill += len(e.idx)
			for j := range e.entries {
				f.elemCap += cap(e.entries[j].trail.elems)
				f.spill += len(e.entries[j].trail.idx)
			}
		}
		sh.mu.RUnlock()
	}
	return f
}

// bytes prices the walk.
func (f footprint) bytes() int {
	return f.leads*(int(unsafe.Sizeof(leadEntry{}))+leadMapEntryBytes) +
		f.pairCap*int(unsafe.Sizeof(midTrail{})) +
		f.elemCap*int(unsafe.Sizeof(uint32(0))) +
		f.spill*spillEntryBytes
}

func (f footprint) String() string {
	return fmt.Sprintf("%d leads, %d pairs (cap %d), %d element slots, %d spill-map entries, %d bytes",
		f.leads, f.pairs, f.pairCap, f.elemCap, f.spill, f.bytes())
}

// materializedServingSet builds, in s's dictionary, the sorted id triples of
// a materialized serving corpus in miniature: a random hierarchy of classes
// with its subClassOf closure, and instances that each carry a type fact for
// their class and every ancestor of it, a locatedIn and the within it
// entails. It returns the triples and the mean number of type facts per
// instance.
func materializedServingSet(t *testing.T, s *Store, classes, instances int) ([]IDTriple, float64) {
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

// TestIndexFootprint holds the index layout to its memory budget on the shape
// the serving harness boots: per triple, at most 0.35 (lead, mid) pairs and
// 56 structural bytes over all families. A layout that files every triple
// under a near-unique (lead, mid) pair — an object-led family over type
// facts, one 40-byte midTrail per (class, instance) — has more than one pair
// per triple and fails both.
func TestIndexFootprint(t *testing.T) {
	s := New()
	ts, typesPerInstance := materializedServingSet(t, s, 120, 10_000)
	if typesPerInstance < 9 || typesPerInstance > 13 {
		t.Fatalf("%.1f type facts per instance; the serving corpus has about 11", typesPerInstance)
	}
	if err := s.LoadSorted(ts); err != nil {
		t.Fatal(err)
	}
	// Every field of Store that is an index family, found by type rather than
	// by name, so a family added later is inside the budget without this test
	// having to hear about it.
	var total footprint
	families := 0
	for v, i := reflect.ValueOf(s).Elem(), 0; i < v.NumField(); i++ {
		if v.Field(i).Type() != reflect.TypeOf(indexFamily{}) {
			continue
		}
		f := familyFootprint((*indexFamily)(unsafe.Pointer(v.Field(i).UnsafeAddr())))
		t.Logf("%s: %v", v.Type().Field(i).Name, f)
		families++
		total.leads += f.leads
		total.pairs += f.pairs
		total.pairCap += f.pairCap
		total.elemCap += f.elemCap
		total.spill += f.spill
	}
	n := float64(s.Len())
	pairs, bytes := float64(total.pairs)/n, float64(total.bytes())/n
	t.Logf("%d triples: %.3f pairs and %.1f structural bytes per triple", s.Len(), pairs, bytes)
	if families < 2 || total.elemCap < families*s.Len() {
		t.Fatalf("%d element slots for %d triples in %d families: the walk missed part of the index", total.elemCap, s.Len(), families)
	}
	if pairs > 0.35 {
		t.Errorf("%.3f (lead, mid) pairs per triple, budget 0.35", pairs)
	}
	if bytes > 56 {
		t.Errorf("%.1f structural bytes per triple, budget 56", bytes)
	}
}
