package store

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// dumpIDState extracts what a durable-segment chain would hand RestoreSorted:
// the dictionary in interning order and the full triple set sorted by id.
func dumpIDState(s *Store) ([]string, []IDTriple) {
	res := s.NewResolver()
	dict := make([]string, s.DictLen())
	for i := range dict {
		dict[i] = res.Name(SymbolID(i))
	}
	var ts []IDTriple
	s.QueryIDFunc(IDPattern{}, func(t IDTriple) bool {
		ts = append(ts, t)
		return true
	})
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	return dict, ts
}

func snapshotOf(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.String()
}

// skewedCorpus builds a corpus that exercises every index shape: a hub whose
// object run goes well past longRun, a subject with more predicates than
// linearRun, each of one object, and a long tail of small entries.
func skewedCorpus(n int) []Triple {
	ts := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, Triple{
			Subject:   fmt.Sprintf("s%d", i%97),
			Predicate: fmt.Sprintf("p%d", i%13),
			Object:    fmt.Sprintf("o%d", i),
		})
	}
	// A long trailing run: one (s, p) pair with 2·longRun objects.
	for i := 0; i < 2*longRun; i++ {
		ts = append(ts, Triple{Subject: "hub", Predicate: "links", Object: fmt.Sprintf("t%d", i)})
	}
	// A wide middle level: one subject with > linearRun predicates.
	for i := 0; i < 2*linearRun; i++ {
		ts = append(ts, Triple{Subject: "wide", Predicate: fmt.Sprintf("attr%d", i), Object: "v"})
	}
	return ts
}

func TestRestoreSortedMatchesBatchIngest(t *testing.T) {
	ref := New()
	if _, err := ref.AddBatch(skewedCorpus(3000)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	// A few single-triple mutations so the reference store is not a pure
	// batch artifact.
	ref.MustAdd(Triple{Subject: "solo", Predicate: "p0", Object: "o1"})
	ref.Remove(Triple{Subject: "s1", Predicate: "p1", Object: "o1262"})

	dict, ids := dumpIDState(ref)
	got := New()
	if err := got.RestoreSorted(runOf(dict), ids, 0); err != nil {
		t.Fatalf("RestoreSorted: %v", err)
	}

	if got.Len() != ref.Len() {
		t.Fatalf("Len: restored %d, reference %d", got.Len(), ref.Len())
	}
	if got.DictLen() != ref.DictLen() {
		t.Fatalf("DictLen: restored %d, reference %d", got.DictLen(), ref.DictLen())
	}
	if a, b := snapshotOf(t, got), snapshotOf(t, ref); a != b {
		t.Fatal("restored snapshot differs from reference snapshot")
	}
	// Ids, not just names, must match: segment tombstone replay depends on
	// the restored store minting identical SymbolIDs.
	res := ref.NewResolver()
	for i := 0; i < ref.DictLen(); i++ {
		name := res.Name(SymbolID(i))
		id, ok := got.SymbolID(name)
		if !ok || id != SymbolID(i) {
			t.Fatalf("SymbolID(%q) = %d, %v; want %d", name, id, ok, i)
		}
	}
	// Index-level reads must agree across all three families.
	for _, p := range []Pattern{
		{Subject: "hub"},
		{Predicate: "links"},
		{Object: "v"},
		{Subject: "wide", Predicate: "attr3"},
		{Predicate: "p4", Object: "o17"},
		{Subject: "s2", Predicate: "p2", Object: "o28"},
	} {
		g, r := got.Query(p), ref.Query(p)
		if len(g) != len(r) {
			t.Fatalf("Query(%v): restored %d rows, reference %d", p, len(g), len(r))
		}
		if got.Count(p) != ref.Count(p) {
			t.Fatalf("Count(%v): restored %d, reference %d", p, got.Count(p), ref.Count(p))
		}
	}
}

// TestRestoreSortedThenMutate proves the directly-built index levels (a wide
// lead's pairs, inline members and the bulk-copied runs included) behave
// identically to incrementally built ones under later Add/Remove traffic.
func TestRestoreSortedThenMutate(t *testing.T) {
	ref := New()
	if _, err := ref.AddBatch(skewedCorpus(500)); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	dict, ids := dumpIDState(ref)
	got := New()
	if err := got.RestoreSorted(runOf(dict), ids, 0); err != nil {
		t.Fatalf("RestoreSorted: %v", err)
	}
	mutate := func(s *Store) {
		// Duplicate insert must be refused by both.
		if added, _ := s.Add(Triple{Subject: "hub", Predicate: "links", Object: "t3"}); added {
			t.Fatal("duplicate Add reported newly inserted")
		}
		// Remove out of the middle of a long run, out of a wide middle
		// level, and a plain small entry.
		for _, tr := range []Triple{
			{Subject: "hub", Predicate: "links", Object: "t7"},
			{Subject: "wide", Predicate: "attr1", Object: "v"},
			{Subject: "s3", Predicate: "p3", Object: "o3"},
		} {
			if !s.Remove(tr) {
				t.Fatalf("Remove(%v) reported absent", tr)
			}
		}
		s.MustAdd(Triple{Subject: "fresh", Predicate: "links", Object: "hub"})
	}
	checkRuns(t, "restored", got)
	mutate(ref)
	mutate(got)
	checkRuns(t, "restored, then written to", got)
	if a, b := snapshotOf(t, got), snapshotOf(t, ref); a != b {
		t.Fatal("post-mutation snapshots diverge")
	}
}

// TestRestoreSortedInlineSingle takes a one-object (subject, predicate) pair
// of a restored store — its member inline in the pair — through a second
// object, back to one and then to none, holding both indexes' layout, Len
// and the (S P ?) answer to a model at each step.
func TestRestoreSortedInlineSingle(t *testing.T) {
	s := New()
	dict := []string{"s", "p", "o1", "o2", "q", "o3"}
	if err := s.RestoreSorted(runOf(dict), []IDTriple{{0, 1, 2}, {0, 4, 5}}, 0); err != nil {
		t.Fatalf("RestoreSorted: %v", err)
	}
	model := map[IDTriple]bool{{0, 1, 2}: true, {0, 4, 5}: true}
	if set := s.spo.set(0, 1); len(set.pairs) != 1 || set.pairs[0].v&runTag != 0 {
		t.Fatalf("the restored one-object set (s, p) is %+v, want its member inline", set)
	}
	check := func(stage string) {
		t.Helper()
		checkRuns(t, stage, s)
		if s.Len() != len(model) {
			t.Fatalf("%s: Len %d, model %d", stage, s.Len(), len(model))
		}
		var got, want []IDTriple
		s.QueryIDFunc(IDPattern{S: 0, P: 1, BoundS: true, BoundP: true}, func(tr IDTriple) bool {
			got = append(got, tr)
			return true
		})
		for tr := range model {
			if tr.P == 1 {
				want = append(want, tr)
			}
		}
		SortIDTriples(got)
		SortIDTriples(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: (s p ?) = %v, model %v", stage, got, want)
		}
	}
	tx := s.Begin()
	for _, step := range []struct {
		add bool
		tr  IDTriple
	}{{true, IDTriple{0, 1, 3}}, {false, IDTriple{0, 1, 2}}, {false, IDTriple{0, 1, 3}}} {
		if step.add {
			if added, err := tx.AddID(step.tr); err != nil || !added {
				t.Fatalf("AddID(%v) = %v, %v", step.tr, added, err)
			}
			model[step.tr] = true
		} else {
			if !tx.RemoveID(step.tr) {
				t.Fatalf("RemoveID(%v) missed", step.tr)
			}
			delete(model, step.tr)
		}
		check(fmt.Sprintf("after add=%v %v", step.add, step.tr))
	}
}

func TestRestoreSortedEmptyAndDictOnly(t *testing.T) {
	s := New()
	if err := s.RestoreSorted(nil, nil, 0); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	if s.Len() != 0 || s.DictLen() != 0 {
		t.Fatalf("empty restore left %d triples, %d names", s.Len(), s.DictLen())
	}
	s2 := New()
	if err := s2.RestoreSorted(runOf([]string{"a", "b"}), nil, 0); err != nil {
		t.Fatalf("dict-only restore: %v", err)
	}
	if id, ok := s2.SymbolID("b"); !ok || id != 1 {
		t.Fatalf("SymbolID(b) = %d, %v; want 1, true", id, ok)
	}
	if s2.Len() != 0 {
		t.Fatalf("dict-only restore holds %d triples", s2.Len())
	}
}

type nopJournal struct{}

func (nopJournal) JournalDict(SymbolID, []NameRun)                       {}
func (nopJournal) JournalMutation(adds, removes []IDTriple, at Position) {}
func (nopJournal) JournalWait() error                                    { return nil }

func TestRestoreSortedRejectsBadInput(t *testing.T) {
	dict := []string{"a", "b", "c"}
	cases := []struct {
		name    string
		prep    func() *Store
		dict    []string
		triples []IDTriple
	}{
		{"non-empty store", func() *Store { s := New(); s.MustAdd(Triple{Subject: "x", Predicate: "y", Object: "z"}); return s }, dict, nil},
		{"journal attached", func() *Store { s := New(); s.SetJournal(&recJournal{}); return s }, dict, nil},
		{"id out of range", New, dict, []IDTriple{{0, 1, 3}}},
		{"unsorted", New, dict, []IDTriple{{0, 1, 2}, {0, 0, 1}}},
		{"duplicate triple", New, dict, []IDTriple{{0, 1, 2}, {0, 1, 2}}},
		{"duplicate dict name", New, []string{"a", "a"}, nil},
		{"empty dict name", New, []string{"a", ""}, nil},
		{"a dictionary over held names", func() *Store { s := New(); s.Intern("a"); return s }, dict, nil},
		{"id beyond the held names", func() *Store { s := New(); s.Intern("a"); return s }, nil, []IDTriple{{0, 0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.prep()
			if err := s.RestoreSorted(runOf(tc.dict), tc.triples, 0); err == nil {
				t.Fatal("RestoreSorted accepted invalid input")
			}
		})
	}
}

// TestRestoreSortedKeepsHeldNames: with an empty dictionary RestoreSorted
// loads against the names the store holds — restored by an earlier call and
// interned since, as recovery leaves them — and given no triples it installs
// the names alone, the digest still that of the empty store.
func TestRestoreSortedKeepsHeldNames(t *testing.T) {
	s := New()
	if err := s.RestoreSorted(runOf([]string{"a", "p"}), nil, 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.DictLen() != 2 || s.Position().Digest != (Digest{}) {
		t.Fatalf("names alone: %d triples, %d names, digest %v", s.Len(), s.DictLen(), s.Position().Digest)
	}
	o, err := s.Intern("o")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreSorted(nil, []IDTriple{{0, 1, o}}, 7); err != nil {
		t.Fatal(err)
	}
	want := New()
	want.MustAdd(Triple{"a", "p", "o"})
	if got := s.Position(); got.Gen != 7 || got.Digest != want.Position().Digest || !s.Contains(Triple{"a", "p", "o"}) || s.DictLen() != 3 {
		t.Fatalf("loaded against held names: position %+v, want generation 7 and digest %v; %d names", got, want.Position().Digest, s.DictLen())
	}
}

// readAll answers one id pattern through every read entry point and returns
// the answers in comparable form: the sorted matches of QueryIDFunc,
// QueryIDBatch and Scan, then StatsID.
func readAll(s idReader, p IDPattern) ([3][]IDTriple, IDStats) {
	var out [3][]IDTriple
	s.QueryIDFunc(p, func(t IDTriple) bool {
		out[0] = append(out[0], t)
		return true
	})
	s.QueryIDBatch([]IDPattern{p}, func(_ int, t IDTriple) bool {
		out[1] = append(out[1], t)
		return true
	})
	out[2] = drainScan(s, p, 64) // a small buffer, so every resume path runs
	for i := range out {
		SortIDTriples(out[i])
	}
	return out, s.StatsID(p)
}

// checkViewReads holds a view's read entry points to each other — QueryIDFunc,
// QueryIDBatch and the drained Scan report the same triples, each once, and
// StatsID counts them — and to its members: the one cursor drains exactly the
// base's matches followed by the overlay's.
func checkViewReads(t *testing.T, stage string, v *View, p IDPattern) {
	t.Helper()
	m, st := readAll(v, p)
	for i := 1; i < len(m); i++ {
		if fmt.Sprint(m[i]) != fmt.Sprint(m[0]) {
			t.Fatalf("%s: view pattern %+v, entry point %d: %d matches, QueryIDFunc %d", stage, p, i, len(m[i]), len(m[0]))
		}
	}
	for i := 1; i < len(m[0]); i++ {
		if m[0][i] == m[0][i-1] {
			t.Fatalf("%s: view pattern %+v reported %v twice", stage, p, m[0][i])
		}
	}
	if st.Count != len(m[0]) {
		t.Fatalf("%s: view pattern %+v: StatsID counts %d, %d matches", stage, p, st.Count, len(m[0]))
	}
	got := drainPart(v.Scan(p), 64)
	for i, member := range []*Store{v.Base(), v.Overlay()} {
		want, _ := readAll(member, p)
		n := min(len(want[0]), len(got))
		part := append([]IDTriple(nil), got[:n]...)
		SortIDTriples(part)
		if fmt.Sprint(part) != fmt.Sprint(want[0]) {
			t.Fatalf("%s: view pattern %+v: member %d's stretch of the cursor has %d triples, the member %d", stage, p, i, n, len(want[0]))
		}
		got = got[n:]
	}
	if len(got) != 0 {
		t.Fatalf("%s: view pattern %+v: the cursor drained %d triples past its members'", stage, p, len(got))
	}
}

// TestLoadSortedMatchesAddID: an overlay filled by one LoadSorted answers
// every read entry point exactly as a twin filled by AddID calls, and keeps
// doing so under later AddID/RemoveID traffic — the arena-backed sets are
// capped at their run boundary, so growing one never clobbers its neighbour,
// and a set loaded in chunks takes writes into its middle that split them.
func TestLoadSortedMatchesAddID(t *testing.T) {
	base := New()
	corpus := skewedCorpus(2000)
	// Runs past arenaRunMax, which get their own allocation: one trailing set
	// (and, in the POS family, one lead's middle level) of 2·arenaRunMax.
	for i := 0; i < 2*arenaRunMax; i++ {
		corpus = append(corpus, Triple{Subject: "hub", Predicate: "feeds", Object: fmt.Sprintf("o%d", i)})
	}
	// A set of three chunks' worth on every other id of a run of names, so
	// the names between them land in its middle.
	for i := 0; i < 6*chunkLen; i++ {
		if _, err := base.Intern(fmt.Sprintf("f%d", i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			corpus = append(corpus, Triple{Subject: "hub", Predicate: "chunked", Object: fmt.Sprintf("f%d", i)})
		}
	}
	if _, err := base.AddBatch(corpus); err != nil {
		t.Fatal(err)
	}
	_, ids := dumpIDState(base)
	loaded, twin := base.NewOverlay(), base.NewOverlay()
	if err := loaded.LoadSorted(ids); err != nil {
		t.Fatalf("LoadSorted: %v", err)
	}
	tx := twin.Begin()
	for _, id := range ids {
		if added, err := tx.AddID(id); err != nil || !added {
			t.Fatalf("AddID(%v) = %v, %v", id, added, err)
		}
	}
	// A view over the loaded overlay, beside a member holding triples of its
	// own that share the overlay's hubs.
	apart := base.NewOverlay()
	for i := 0; i < 2*longRun; i++ {
		apart.MustAdd(Triple{Subject: fmt.Sprintf("s%d", i), Predicate: "apart", Object: "hub"})
		apart.MustAdd(Triple{Subject: "hub", Predicate: "links", Object: fmt.Sprintf("apart%d", i)})
	}
	view, err := NewView(apart, loaded)
	if err != nil {
		t.Fatal(err)
	}
	id := func(name string) SymbolID {
		v, ok := base.SymbolID(name)
		if !ok {
			t.Fatalf("%q was never interned", name)
		}
		return v
	}
	patterns := []IDPattern{
		{},
		{P: id("apart"), BoundP: true},
		{S: id("hub"), P: id("links"), BoundS: true, BoundP: true},
		{O: id("hub"), BoundO: true},
		{S: id("hub"), BoundS: true},
		{P: id("links"), BoundP: true},
		{O: id("v"), BoundO: true},
		{S: id("wide"), P: id("attr3"), BoundS: true, BoundP: true},
		{P: id("p4"), O: id("o17"), BoundP: true, BoundO: true},
		{S: id("s2"), O: id("o28"), BoundS: true, BoundO: true},
		{S: id("s2"), P: id("p2"), O: id("o28"), BoundS: true, BoundP: true, BoundO: true},
		{S: id("hub"), P: id("p4"), BoundS: true, BoundP: true},
		{S: id("hub"), P: id("feeds"), BoundS: true, BoundP: true},
		{P: id("feeds"), BoundP: true},
		{S: id("hub"), P: id("chunked"), BoundS: true, BoundP: true},
		{S: id("hub"), O: id("f3001"), BoundS: true, BoundO: true},
		{S: id("hub"), P: id("chunked"), O: id("f3001"), BoundS: true, BoundP: true, BoundO: true},
	}
	compare := func(stage string) {
		t.Helper()
		if loaded.Len() != twin.Len() {
			t.Fatalf("%s: Len %d, twin %d", stage, loaded.Len(), twin.Len())
		}
		for _, p := range patterns {
			gm, gs := readAll(loaded, p)
			wm, ws := readAll(twin, p)
			for i := range gm {
				if fmt.Sprint(gm[i]) != fmt.Sprint(wm[i]) {
					t.Fatalf("%s: pattern %+v, entry point %d: %d matches, twin %d", stage, p, i, len(gm[i]), len(wm[i]))
				}
			}
			if gs != ws {
				t.Fatalf("%s: pattern %+v: StatsID %+v, twin %+v", stage, p, gs, ws)
			}
			checkViewReads(t, stage, view, p)
		}
		for _, x := range ids {
			if containsID(loaded, x) != containsID(twin, x) {
				t.Fatalf("%s: contains(%v) disagrees", stage, x)
			}
		}
		checkRuns(t, stage+", loaded", loaded)
		checkRuns(t, stage+", twin", twin)
	}
	compare("after load")

	// Grow and shrink sets that sit in the middle of the arenas — a small
	// trailing run, a long one, a wide middle level — fresh leads, and the
	// run with an allocation of its own, past its growth room.
	hub, links, wide := id("hub"), id("links"), id("wide")
	var edits []IDTriple
	for i := 0; i < arenaRunMax/2; i++ { // the room is an eighth of 2·arenaRunMax
		edits = append(edits, IDTriple{S: hub, P: id("feeds"), O: id(fmt.Sprintf("o%d", 2*arenaRunMax+i))})
	}
	for i := 1; i < 6*chunkLen; i += 4 { // into the middle of every chunk, past its room
		edits = append(edits, IDTriple{S: hub, P: id("chunked"), O: id(fmt.Sprintf("f%d", i))})
	}
	for i := 0; i < 40; i++ {
		edits = append(edits,
			IDTriple{S: hub, P: links, O: id(fmt.Sprintf("o%d", i))},
			IDTriple{S: id(fmt.Sprintf("s%d", i)), P: id("p1"), O: hub},
			IDTriple{S: wide, P: id(fmt.Sprintf("p%d", i%13)), O: id("v")},
		)
	}
	for _, s := range []*Store{loaded, twin} {
		tx := s.Begin()
		for i, e := range edits {
			if _, err := tx.AddID(e); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				tx.RemoveID(ids[(i*7)%len(ids)])
			}
		}
	}
	compare("after AddID/RemoveID")
	if a, b := snapshotOf(t, loaded), snapshotOf(t, twin); a != b {
		t.Fatal("post-mutation snapshots diverge")
	}
}

// TestLoadSortedRejectsBadInput: every violation of the contract is refused
// with nothing inserted.
func TestLoadSortedRejectsBadInput(t *testing.T) {
	base := New()
	base.MustAdd(Triple{Subject: "a", Predicate: "b", Object: "c"}) // ids 0, 1, 2
	cases := []struct {
		name    string
		prep    func() *Store
		triples []IDTriple
	}{
		{"unsorted", base.NewOverlay, []IDTriple{{0, 1, 2}, {0, 0, 1}}},
		{"duplicate", base.NewOverlay, []IDTriple{{0, 1, 2}, {0, 1, 2}}},
		{"out of dictionary", base.NewOverlay, []IDTriple{{0, 1, 2}, {0, 1, 3}}},
		{"non-empty store", func() *Store { return base }, []IDTriple{{2, 1, 0}}},
		{"journaled", func() *Store { o := base.NewOverlay(); o.SetJournal(&recJournal{}); return o }, []IDTriple{{2, 1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.prep()
			defer s.SetJournal(nil) // the dictionary hook is shared with base
			before := s.Len()
			if err := s.LoadSorted(tc.triples); err == nil {
				t.Fatal("LoadSorted accepted invalid input")
			}
			if s.Len() != before || containsID(s, IDTriple{2, 1, 0}) || s.StatsID(IDPattern{}).Count != before {
				t.Fatalf("rejected load left %d triples behind (had %d)", s.Len(), before)
			}
		})
	}
}

// containsID reports whether the id triple is present, through the store's
// fully bound count.
func containsID(s *Store, t IDTriple) bool {
	return s.StatsID(IDPattern{S: t.S, P: t.P, O: t.O, BoundS: true, BoundP: true, BoundO: true}).Count == 1
}
