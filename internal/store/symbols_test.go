package store

import (
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// list copies the table's names out, in id order.
func (nt nameTable) list() []string {
	out := make([]string, 0, nt.n)
	nt.spans(0, func(_ SymbolID, names []string) { out = append(out, names...) })
	return out
}

// corpusNames returns n distinct names shaped like a served corpus's
// dictionary: mostly instances, with classes, sites and tags among them.
func corpusNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		switch i % 100 {
		case 1:
			out[i] = "class-" + strconv.Itoa(i)
		case 2:
			out[i] = "site-" + strconv.Itoa(i)
		case 3:
			out[i] = "tag-" + strconv.Itoa(i)
		default:
			out[i] = "inst-" + strconv.Itoa(i)
		}
	}
	return out
}

// TestDictIndexMatchesMap holds the keyless index to a plain map over seeded
// interleavings of every interning and lookup entry point, from the minimum
// table through several doublings, then through a RestoreSorted of the
// dictionary it built.
func TestDictIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pool := corpusNames(800)
	interned := pool[:600] // the rest are only ever looked up: misses
	model := map[string]uint32{}
	mint := func(name string) SymbolID {
		id, ok := model[name]
		if !ok {
			id = uint32(len(model))
			model[name] = id
		}
		return id
	}
	mintTriple := func(tr Triple) IDTriple {
		return IDTriple{mint(tr.Subject), mint(tr.Predicate), mint(tr.Object)}
	}
	pick := func(names []string) string { return names[rng.Intn(len(names))] }
	triple := func(names []string) Triple { return Triple{pick(names), pick(names), pick(names)} }

	s := New()
	st := s.syms
	if len(st.index) != minIndex {
		t.Fatalf("an empty dictionary's index has %d slots, want %d", len(st.index), minIndex)
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(5); op {
		case 0:
			tr := triple(interned)
			if got, want := st.internTriple(tr), mintTriple(tr); got != want {
				t.Fatalf("step %d: internTriple(%v) = %v, want %v", step, tr, got, want)
			}
		case 1:
			ts := make([]Triple, 1+rng.Intn(8))
			var want []IDTriple
			for i := range ts {
				ts[i] = triple(interned)
				want = append(want, mintTriple(ts[i]))
			}
			got := st.internBatch(ts, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: internBatch triple %d = %v, want %v", step, i, got[i], want[i])
				}
			}
		case 2:
			name := pick(interned)
			if got, err := s.Intern(name); err != nil || got != mint(name) {
				t.Fatalf("step %d: Intern(%q) = %d, %v; want %d", step, name, got, err, model[name])
			}
		case 3:
			name := pick(pool)
			got, ok := st.lookup(name)
			want, wantOK := model[name]
			if got != want || ok != wantOK {
				t.Fatalf("step %d: lookup(%q) = %d, %v; want %d, %v", step, name, got, ok, want, wantOK)
			}
		case 4:
			tr := triple(pool)
			got, ok := st.lookupTriple(tr)
			sid, okS := model[tr.Subject]
			pid, okP := model[tr.Predicate]
			oid, okO := model[tr.Object]
			if want := (IDTriple{sid, pid, oid}); ok != (okS && okP && okO) || ok && got != want {
				t.Fatalf("step %d: lookupTriple(%v) = %v, %v; want %v, %v", step, tr, got, ok, want, okS && okP && okO)
			}
		}
	}
	if st.names.n != len(model) || len(st.index) != indexLen(len(model)) || len(st.index) < minIndex<<3 {
		t.Fatalf("%d names (model %d) in %d slots: want %d slots, at least three doublings", st.names.n, len(model), len(st.index), indexLen(len(model)))
	}
	t.Logf("%d names in %d slots after %d doublings", st.names.n, len(st.index), bits.Len(uint(len(st.index)/minIndex))-1)

	sameAsModel := func(what string, s *Store) {
		t.Helper()
		for _, name := range pool {
			got, ok := s.SymbolID(name)
			want, wantOK := model[name]
			if got != want || ok != wantOK {
				t.Fatalf("%s: SymbolID(%q) = %d, %v; want %d, %v", what, name, got, ok, want, wantOK)
			}
		}
	}
	sameAsModel("interned", s)

	r := New()
	if err := r.RestoreSorted(st.names.list(), nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(r.syms.index) != indexLen(len(model)) {
		t.Fatalf("restored index has %d slots, want %d", len(r.syms.index), indexLen(len(model)))
	}
	sameAsModel("restored", r)
	for _, name := range pool[600:] {
		if got, err := r.Intern(name); err != nil || got != mint(name) {
			t.Fatalf("Intern(%q) after restore = %d, %v; want %d", name, got, err, model[name])
		}
	}
	sameAsModel("restored, then interned", r)

	err := New().RestoreSorted([]string{"a", "b", "c", "b"}, nil, 0)
	if want := `store: restore dictionary repeats "b" as ids 1 and 3`; err == nil || err.Error() != want {
		t.Errorf("RestoreSorted of a repeated name: %v, want %s", err, want)
	}

	t.Run("concurrent", func(t *testing.T) {
		// Run under -race: lookups and resolutions race interning that
		// doubles the index several times over.
		names := corpusNames(5000)
		s := New()
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					name := names[rng.Intn(len(names))]
					if id, ok := s.SymbolID(name); ok {
						if got := s.NewResolver().Name(id); got != name {
							t.Errorf("SymbolID(%q) = %d, which resolves to %q", name, id, got)
							return
						}
					}
				}
			}(rand.New(rand.NewSource(int64(g))))
		}
		for i := 0; i < len(names); i += 3 {
			if i%2 == 0 {
				if id, err := s.Intern(names[i]); err != nil || id != SymbolID(i) {
					t.Errorf("Intern(%q) = %d, %v; want %d", names[i], id, err, i)
				}
			}
			tr := Triple{Subject: names[i], Predicate: names[min(i+1, len(names)-1)], Object: names[min(i+2, len(names)-1)]}
			if _, err := s.AddBatch([]Triple{tr}); err != nil {
				t.Error(err)
			}
		}
		close(done)
		wg.Wait()
		for i, name := range names {
			if id, ok := s.SymbolID(name); !ok || id != SymbolID(i) {
				t.Fatalf("SymbolID(%q) = %d, %v after interning; want %d", name, id, ok, i)
			}
		}
		if len(s.syms.index) != indexLen(len(names)) {
			t.Errorf("%d names in %d slots, want %d", len(names), len(s.syms.index), indexLen(len(names)))
		}
	})
}

// TestDictLookupDoesNotAllocate pins a name lookup, hit or miss, at zero
// allocations: the hash, the probe and the confirming compare all stay on
// the stack.
func TestDictLookupDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New()
	names := corpusNames(1000)
	for _, name := range names {
		if _, err := s.Intern(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		kind, name string
		ok         bool
	}{{"hit", names[500], true}, {"miss", "inst-unseen", false}} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.SymbolID(c.name); ok != c.ok {
				t.Fatalf("SymbolID(%q) found = %v, want %v", c.name, ok, c.ok)
			}
		}); allocs != 0 {
			t.Errorf("SymbolID %s allocates %.1f times per call", c.kind, allocs)
		}
		b := []byte(c.name)
		if allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.InternedName(b); ok != c.ok {
				t.Fatalf("InternedName(%q) found = %v, want %v", b, ok, c.ok)
			}
		}); allocs != 0 {
			t.Errorf("InternedName %s allocates %.1f times per call", c.kind, allocs)
		}
	}
}

// TestInternedNameAgreesWithSymbolID holds the byte-keyed lookup to the
// string-keyed one over seeded names — ASCII, multi-byte UTF-8, the empty
// string, and names minted between lookups, enough of them to double the
// index several times: InternedName(b) finds a name exactly when SymbolID
// does, and returns the dictionary's string, equal to b.
func TestInternedNameAgreesWithSymbolID(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "z", "0", " ", "é", "ß", "漢", "字", "😀", "\x00", "\xff"}
	name := func() string {
		n := rng.Intn(5)
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	s := New()
	var minted []string
	hits := 0
	for step := 0; step < 4000; step++ {
		if fresh := name(); fresh != "" && rng.Intn(3) == 0 {
			if _, err := s.Intern(fresh); err != nil {
				t.Fatal(err)
			}
			minted = append(minted, fresh)
		}
		probe := name()
		if len(minted) > 0 && rng.Intn(2) == 0 {
			probe = minted[rng.Intn(len(minted))]
		}
		b := []byte(probe)
		id, want := s.SymbolID(probe)
		got, ok := s.InternedName(b)
		if ok != want {
			t.Fatalf("step %d: InternedName(%q) found = %v, SymbolID found = %v", step, probe, ok, want)
		}
		if ok {
			hits++
		}
		if ok && (got != probe || s.NewResolver().Name(id) != got) {
			t.Fatalf("step %d: InternedName(%q) = %q, the dictionary names id %d %q", step, probe, got, id, s.NewResolver().Name(id))
		}
	}
	if hits < 1000 || hits > 3000 {
		t.Fatalf("%d of 4000 lookups hit; the schedule should mix hits and misses", hits)
	}
}

// TestNameTableAllocatesWhatItKeeps: minting 10⁵ names allocates about the
// 16 bytes of string header a name keeps — whole pages, which never move, and
// a directory of 8 bytes a page — where an append-grown slice allocated about
// 80.
func TestNameTableAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 100_000
	names := corpusNames(n)
	var nt nameTable
	_, bytes := allocated(func() {
		for _, name := range names {
			nt.add(name)
		}
	})
	per := float64(bytes) / n
	t.Logf("%d names in %d pages: %.2f bytes allocated a name", n, len(nt.pages), per)
	if nt.n != n || nt.at(n-1) != names[n-1] {
		t.Fatalf("the table holds %d names, the last %q", nt.n, nt.at(uint32(nt.n-1)))
	}
	if per > 16.5 {
		t.Errorf("%.2f bytes allocated a name, budget 16.5", per)
	}
}

// TestDictionaryFootprint holds the name→id index to at most 12 bytes a name
// at 10⁵ names, interned one by one or restored whole. The map it replaced
// cost about 34.
func TestDictionaryFootprint(t *testing.T) {
	const n = 100_000
	names := corpusNames(n)
	interned := New()
	for _, name := range names {
		if _, err := interned.Intern(name); err != nil {
			t.Fatal(err)
		}
	}
	restored := New()
	if err := restored.RestoreSorted(names, nil, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		s    *Store
	}{{"interned", interned}, {"restored", restored}} {
		slots := len(c.s.syms.index)
		per := float64(slots*int(unsafe.Sizeof(uint32(0)))) / n
		if per > 12 {
			t.Errorf("%s: the index costs %.2f bytes a name (%d slots for %d names), want at most 12", c.what, per, slots, n)
		}
		t.Logf("%d names %s: %d slots, %.2f bytes a name", n, c.what, slots, per)
	}
}

// TestRestoredLastPageIsReplacedWhole: a restored dictionary's last page is
// the restored array's own short tail. The name that finds it full gets a
// whole page in a new directory, while a reader of a snapshot taken before
// goes on resolving its ids: the restored array is never written, and every
// id resolves to its name.
func TestRestoredLastPageIsReplacedWhole(t *testing.T) {
	names := corpusNames(namePageLen + 10)
	dict := make([]string, len(names), len(names)+100)
	copy(dict, names)
	s := New()
	if err := s.RestoreSorted(dict, nil, 0); err != nil {
		t.Fatal(err)
	}
	before := s.NewResolver()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass < 20; pass++ {
			for id := len(names) - 20; id < len(names); id++ {
				if got := before.Name(SymbolID(id)); got != names[id] {
					t.Errorf("the snapshot resolves id %d to %q, want %q", id, got, names[id])
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if id, err := s.Intern("fresh" + strconv.Itoa(i)); err != nil || int(id) != len(names)+i {
			t.Fatalf("Intern = %d, %v; want id %d", id, err, len(names)+i)
		}
	}
	wg.Wait()
	if spare := dict[len(dict):cap(dict)]; slices.ContainsFunc(spare, func(s string) bool { return s != "" }) {
		t.Fatal("the table wrote into the restored array's spare capacity")
	}
	if pages := s.syms.names.pages; len(pages[len(pages)-1]) != namePageLen {
		t.Fatalf("the last page holds %d slots after the restored tail filled, want %d", len(pages[len(pages)-1]), namePageLen)
	}
	after := s.NewResolver()
	for id := 0; id < len(names)+20; id++ {
		want := "fresh" + strconv.Itoa(id-len(names))
		if id < len(names) {
			want = names[id]
		}
		if got := after.Name(SymbolID(id)); got != want {
			t.Fatalf("id %d resolves to %q, want %q", id, got, want)
		}
	}
}
