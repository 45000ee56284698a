package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// list copies the table's names out, in id order.
func (nv nameView) list() []string {
	out := make([]string, nv.n)
	for i := range out {
		out[i] = strings.Clone(nv.dirs.at(uint32(i)))
	}
	return out
}

// runOf encodes names as the one run a restore takes.
func runOf(names []string) []NameRun {
	var enc []byte
	for _, name := range names {
		enc = binary.AppendUvarint(enc, uint64(len(name)))
		enc = append(enc, name...)
	}
	return []NameRun{{N: len(names), Enc: enc}}
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
			want := mintTriple(tr)
			if got, err := st.internTriple(tr); err != nil || got != want {
				t.Fatalf("step %d: internTriple(%v) = %v, %v; want %v", step, tr, got, err, want)
			}
		case 1:
			ts := make([]Triple, 1+rng.Intn(8))
			var want []IDTriple
			for i := range ts {
				ts[i] = triple(interned)
				want = append(want, mintTriple(ts[i]))
			}
			got, err := st.internBatch(ts, nil)
			if err != nil {
				t.Fatalf("step %d: internBatch: %v", step, err)
			}
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
	if err := r.RestoreSorted(runOf(st.names.list()), nil, 0); err != nil {
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

	err := New().RestoreSorted(runOf([]string{"a", "b", "c", "b"}), nil, 0)
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

// TestNameTableAllocatesWhatItKeeps: minting 10⁵ corpus names allocates
// what the table keeps of each — its bytes, a byte of length and a four-byte
// offset, in pages that never move and a directory of each — and no object
// a name. The string-header pages it replaced kept 16 bytes a name beside
// the name's own string.
func TestNameTableAllocatesWhatItKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 100_000
	names := corpusNames(n)
	spelled := 0
	for _, name := range names {
		spelled += len(name)
	}
	var nt nameTable
	objects, bytes := allocated(func() {
		for _, name := range names {
			nt.add(name)
		}
	})
	per := float64(int(bytes)-spelled) / n
	t.Logf("%d names of %.2f bytes in %d pages: %.2f bytes allocated a name past its own, %d objects", n, float64(spelled)/n, len(nt.dirs.pages), per, objects)
	if nt.n != n || nt.dirs.at(n-1) != names[n-1] {
		t.Fatalf("the table holds %d names, the last %q", nt.n, nt.dirs.at(uint32(nt.n-1)))
	}
	if per > 6 {
		t.Errorf("%.2f bytes allocated a name past its own, budget 6", per)
	}
	if objects > n/500 {
		t.Errorf("%d objects allocated for %d names: one a name or more", objects, n)
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
	if err := restored.RestoreSorted(runOf(names), nil, 0); err != nil {
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

// TestRestoredRunsAreNeverWritten: a restored dictionary's pages are the
// runs' own bytes, capped at their length, so two stores restored from one
// run — recovery's store and a snapshot's, the Follower's dictionary and its
// store — mint different names next without writing a byte of it. Readers
// of snapshots taken before the mints go on resolving their ids throughout
// (run it under -race), and every id resolves to its own store's name.
func TestRestoredRunsAreNeverWritten(t *testing.T) {
	const fresh = 600
	names := corpusNames(restoredPage / 8) // more than 1 MiB: a cut page
	dict := runOf(names)
	kept := slices.Clone(dict[0].Enc)
	stores := [2]*Store{New(), New()}
	var wg sync.WaitGroup
	for k, s := range stores {
		if err := s.RestoreSorted(dict, nil, 0); err != nil {
			t.Fatal(err)
		}
		if pages := s.syms.names.dirs.pages; len(pages) < 2 {
			t.Fatalf("%d restored names in %d pages: the run was not cut", len(names), len(pages))
		}
		for p, page := range s.syms.names.dirs.pages {
			if cap(page) != len(page) {
				t.Fatalf("restored page %d has %d bytes of room past its %d", p, cap(page)-len(page), len(page))
			}
		}
		before := s.NewResolver()
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < fresh; i++ {
				if id, err := s.Intern(fmt.Sprintf("store%d-fresh%d", k, i)); err != nil || int(id) != len(names)+i {
					t.Errorf("Intern = %d, %v; want id %d", id, err, len(names)+i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(dict[0].Enc, kept) {
		t.Fatal("minting after the restore wrote into the restored run")
	}
	for k, s := range stores {
		after := s.NewResolver()
		for id := 0; id < len(names)+fresh; id++ {
			want := fmt.Sprintf("store%d-fresh%d", k, id-len(names))
			if id < len(names) {
				want = names[id]
			}
			if got := after.Name(SymbolID(id)); got != want {
				t.Fatalf("store %d: id %d resolves to %q, want %q", k, id, got, want)
			}
		}
	}
	bad := []NameRun{{N: 2, Enc: []byte{1, 'a', 3, 'b'}}}
	if err := New().RestoreSorted(bad, nil, 0); err == nil {
		t.Error("RestoreSorted took a run whose last name overruns its bytes")
	}
	bad = []NameRun{{N: 1, Enc: []byte{1, 'a', 1}}}
	if err := New().RestoreSorted(bad, nil, 0); err == nil {
		t.Error("RestoreSorted took a run with bytes past its names")
	}
}

// FuzzNameTable holds the table to a []string model: it restores runs of
// random sizes, some past the 1 MiB a page is cut at, then mints names of
// random lengths — past 127 bytes, which take a two-byte length, and now and
// then past 64 KiB, a page of their own — across page, growth and window
// edges, taking snapshots along the way. Every snapshot resolves every id
// below its count to the model's name, to the end, and the runs of any
// stretch of ids decode to the model's names.
func FuzzNameTable(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint16(6000))
	}
	f.Fuzz(func(t *testing.T, seed int64, mints uint16) {
		rng := rand.New(rand.NewSource(seed))
		long := false // a restored run past the 1 MiB a page is cut at
		name := func() string {
			n := 1 + rng.Intn(40)
			if long {
				n = 200 + rng.Intn(400)
			}
			switch k := rng.Intn(1000); {
			case k == 0:
				n = mintedPage + rng.Intn(1000)
			case k < 30:
				n = 120 + rng.Intn(300)
			}
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			return string(b)
		}
		var model []string
		var runs []NameRun
		for r := rng.Intn(4); r > 0; r-- {
			long = rng.Intn(3) == 0
			names := make([]string, rng.Intn(4000))
			for i := range names {
				names[i] = name()
			}
			runs = append(runs, runOf(names)...)
			model = append(model, names...)
		}
		long = false
		nt, err := restoredNames(runs)
		if err != nil {
			t.Fatal(err)
		}
		snaps := []nameTable{nt}
		for i := 0; i < int(mints); i++ {
			s := name()
			nt.add(s)
			model = append(model, s)
			if rng.Intn(500) == 0 {
				snaps = append(snaps, nt)
			}
		}
		snaps = append(snaps, nt)
		for k, snap := range snaps {
			for id := 0; id < snap.n; id++ {
				if got := snap.dirs.at(uint32(id)); got != model[id] {
					t.Fatalf("snapshot %d of %d names resolves id %d to %d bytes %.20q, want %d bytes %.20q", k, snap.n, id, len(got), got, len(model[id]), model[id])
				}
			}
		}
		from := rng.Intn(nt.n + 1)
		var got []string
		for _, run := range nt.runs(nil, from, nt.n) {
			names := runNames(run)
			if len(names) != run.N {
				t.Fatalf("a run of %d names decodes to %d", run.N, len(names))
			}
			got = append(got, names...)
		}
		if !slices.Equal(got, model[from:]) {
			t.Fatalf("the runs of ids %d to %d decode to %d names, not the model's %d", from, nt.n, len(got), nt.n-from)
		}
	})
}

// runNames decodes a run's names.
func runNames(run NameRun) []string {
	var names []string
	for off := 0; off < len(run.Enc); {
		n, w := binary.Uvarint(run.Enc[off:])
		names = append(names, string(run.Enc[off+w:off+w+int(n)]))
		off += w + int(n)
	}
	return names
}

// TestNameTableSnapshotsSurviveGrowth runs readers of views beside the
// writer that grows the table past them — restored pages, fresh pages of
// every size, new windows — publishing its view after each name, as the
// symbol table does under its lock. A reader mostly reads the newest names
// of the view it took, the bytes beside the writer's, and now and then all
// of them. Run under -race, it fails on any write to the bytes, offsets or
// directories below a published count.
func TestNameTableSnapshotsSurviveGrowth(t *testing.T) {
	names := corpusNames(3 * namePageLen)
	for i := 0; i < len(names); i += 97 {
		names[i] += strings.Repeat("x", 130) // a two-byte length
	}
	nt, err := restoredNames(runOf(names[:namePageLen/2]))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	published := nt.nameView
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				view := published
				mu.Unlock()
				from := max(0, view.n-8)
				if pass%64 == 0 {
					from = 0
				}
				for id := from; id < view.n; id++ {
					if got := view.dirs.at(uint32(id)); !readsAs(got, names[id]) {
						t.Errorf("a view of %d names resolves id %d to %q, want %q", view.n, id, got, names[id])
						return
					}
				}
			}
		}()
	}
	for _, name := range names[nt.n:] {
		nt.add(name)
		mu.Lock()
		published = nt.nameView
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}

// readsAs compares got to want a byte at a time through a slice over got's
// bytes, so the race detector sees each of them read: it does not
// instrument reads of string data, which the language holds immutable.
func readsAs(got, want string) bool {
	b := unsafe.Slice(unsafe.StringData(got), len(got))
	if len(b) != len(want) {
		return false
	}
	for i := range b {
		if b[i] != want[i] {
			return false
		}
	}
	return true
}

// TestInternRefusesPastTheCeiling: ids stay below 2³¹, the bit an index pair
// marks a run's slot with, so the dictionary mints no name past its ceiling —
// through Intern, InternBytes, Add and AddBatch, each refusing with an error
// and filing nothing — while names it holds still resolve, and a restore of
// more names than the ceiling is refused. The ceiling is lowered to a few
// names past the dictionary's, where the 2³¹st name stands.
func TestInternRefusesPastTheCeiling(t *testing.T) {
	if nameCeiling != 1<<31 || runTag != 1<<31 {
		t.Fatalf("the ceiling is %d names and the run tag %#x; want both 2³¹", nameCeiling, runTag)
	}
	s := New()
	s.MustAdd(Triple{"s", "p", "o"})
	defer func(was uint64) { nameCeiling = was }(nameCeiling)
	nameCeiling = uint64(s.DictLen()) + 2
	for _, name := range []string{"x", "y"} {
		if _, err := s.Intern(name); err != nil {
			t.Fatalf("Intern(%q) below the ceiling: %v", name, err)
		}
	}
	if id, err := s.Intern("z"); err == nil {
		t.Fatalf("Intern(z) past the ceiling minted id %d", id)
	}
	if _, err := s.InternBytes([]byte("z")); err == nil {
		t.Fatal("InternBytes(z) past the ceiling minted an id")
	}
	if id, err := s.Intern("x"); err != nil || id != 3 {
		t.Fatalf("Intern(x), a name the dictionary holds, = %d, %v; want 3", id, err)
	}
	if added, err := s.Add(Triple{"s", "p", "z"}); err == nil || added {
		t.Fatalf("Add with a name past the ceiling = %v, %v; want an error", added, err)
	}
	if n, err := s.AddBatch([]Triple{{"x", "p", "y"}, {"s", "p", "z"}}); err == nil || n != 0 {
		t.Fatalf("AddBatch with a name past the ceiling = %d, %v; want an error", n, err)
	}
	if s.Len() != 1 || s.DictLen() != int(nameCeiling) {
		t.Fatalf("after the refusals: %d triples, %d names; want 1 and %d", s.Len(), s.DictLen(), nameCeiling)
	}
	if err := New().RestoreSorted(runOf([]string{"a", "b", "c", "d", "e", "f"}), nil, 0); err == nil {
		t.Fatalf("RestoreSorted took 6 names past a ceiling of %d", nameCeiling)
	}
}

// TestNameLengthsOfEveryWidth: a name reads back whatever the width of its
// length — one byte up to 127, two up to 16 383, three and four past that —
// minted and restored alike.
func TestNameLengthsOfEveryWidth(t *testing.T) {
	var names []string
	for i, n := range []int{1, 127, 128, 129, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<21 + 300} {
		names = append(names, strings.Repeat(string(rune('a'+i)), n))
	}
	minted := New()
	for _, name := range names {
		if _, err := minted.Intern(name); err != nil {
			t.Fatal(err)
		}
	}
	restored := New()
	if err := restored.RestoreSorted(runOf(names), nil, 0); err != nil {
		t.Fatal(err)
	}
	for what, s := range map[string]*Store{"minted": minted, "restored": restored} {
		for id, name := range names {
			if got := s.syms.name(uint32(id)); got != name {
				t.Errorf("%s: name %d reads %d bytes, want %d", what, id, len(got), len(name))
			}
		}
	}
}
