package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A lead's pairs ascend by mid and a trailing set is its one inline member
// or one strictly ascending run (index.go). These tests hold the sets to a
// map model, the two indexes to the invariants every search relies on, and the cursor to what resuming by value buys: a write disturbs no
// triple it did not touch.

// checkLead holds one lead entry to its layout — at least one pair, mids
// strictly ascending, each set passing checkSet — and counts the members it
// holds.
func checkLead(e *leadEntry) (members int, bad string) {
	if len(e.entries) == 0 {
		return 0, "a lead without pairs was not pruned"
	}
	for j := range e.entries {
		mt := &e.entries[j]
		if j > 0 && e.entries[j-1].mid >= mt.mid {
			return 0, fmt.Sprintf("mid %d follows mid %d at pair %d of %d", mt.mid, e.entries[j-1].mid, j, len(e.entries))
		}
		n, bad := checkSet(mt)
		if bad != "" {
			return 0, bad
		}
		members += n
	}
	return members, ""
}

// checkSet holds one pair's set to its layout — its one inline member (nil
// run) or a non-empty, strictly ascending run — and counts its members.
func checkSet(mt *midTrail) (members int, bad string) {
	if mt.run == nil {
		if mt.len() != 1 {
			return 0, fmt.Sprintf("the inline set under mid %d holds %d members", mt.mid, mt.len())
		}
		return 1, ""
	}
	run := *mt.run
	if len(run) == 0 {
		return 0, fmt.Sprintf("the run under mid %d is empty", mt.mid)
	}
	for k := 1; k < len(run); k++ {
		if run[k-1] >= run[k] {
			return 0, fmt.Sprintf("the run under mid %d holds %d before %d at position %d of %d", mt.mid, run[k-1], run[k], k, len(run))
		}
	}
	return len(run), ""
}

// checkRuns holds every lead of both indexes of s to checkLead, the walk of
// each index to ascending ids, its lead counter to the leads the walk finds,
// and the triples each index holds to the store's count.
func checkRuns(t testing.TB, what string, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, ix := range map[string]*index{"SPO": &s.spo, "POS": &s.pos} {
		n, leads, bad := 0, 0, ""
		prev := int64(-1)
		ix.ascend(0, func(lead uint32, e *leadEntry) bool {
			members, why := checkLead(e)
			switch {
			case why != "":
				bad = fmt.Sprintf("lead %d: %s", lead, why)
			case int64(lead) <= prev:
				bad = fmt.Sprintf("the walk reports lead %d after %d", lead, prev)
			}
			n += members
			leads++
			prev = int64(lead)
			return bad == ""
		})
		if bad == "" && leads != ix.leads {
			bad = fmt.Sprintf("the walk finds %d leads, the index counts %d", leads, ix.leads)
		}
		if size := int(s.size.Load()); bad == "" && n != size {
			bad = fmt.Sprintf("the sets hold %d triples, Len is %d", n, size)
		}
		if bad != "" {
			t.Fatalf("%s: %s: %s", what, name, bad)
		}
	}
}

// idSetScript runs a byte script against one lead of an index and a map
// model: each two bytes are one operation — insert (twice as likely), remove
// or contains — of a value from a 1 024-wide vocabulary whose top member
// stands for the largest id there is, under one of 16 mids (the first byte's
// top four bits, past linearRun so the mid search halves). The index files
// through leadEntry.insert and remove, so a set is born inline, turns into a
// run at its second member, drops its pair when emptied, and the lead is
// pruned with its last pair. Every result must equal the model's; after every
// operation the touched pair must exist exactly when the model holds members
// under its mid and pass checkSet at the model's count, and at the end the
// lead must pass checkLead and its sets be the model's, ascending.
func idSetScript(t *testing.T, script []byte) {
	const lead = 7
	var ix index
	model := map[[2]uint32]bool{}
	perMid := map[uint32]int{}
	for i := 0; i+1 < len(script); i += 2 {
		op, mid, v := script[i], uint32(script[i]>>4), uint32(script[i+1])|uint32(script[i]>>2&3)<<8
		if v == 1023 {
			v = ^uint32(0)
		}
		key := [2]uint32{mid, v}
		switch op & 3 {
		case 0, 1:
			if got := ix.insert(lead, mid, v); got == model[key] {
				t.Fatalf("op %d: insert(%d, %d) = %v, model had it: %v", i/2, mid, v, got, model[key])
			} else if got {
				perMid[mid]++
			}
			model[key] = true
		case 2:
			if got := ix.remove(lead, mid, v); got != model[key] {
				t.Fatalf("op %d: remove(%d, %d) = %v, model says %v", i/2, mid, v, got, model[key])
			} else if got {
				perMid[mid]--
			}
			delete(model, key)
		case 3:
			if got := ix.contains(lead, mid, v); got != model[key] {
				t.Fatalf("op %d: contains(%d, %d) = %v, model says %v", i/2, mid, v, got, model[key])
			}
		}
		e := ix.find(lead)
		if (e == nil) != (len(model) == 0) {
			t.Fatalf("op %d: lead present: %v, with %d members in the model", i/2, e != nil, len(model))
		}
		if (ix.leads == 1) != (e != nil) {
			t.Fatalf("op %d: the index counts %d leads, model has %d members", i/2, ix.leads, len(model))
		}
		if e == nil {
			continue
		}
		mt := e.find(mid)
		if (mt == nil) != (perMid[mid] == 0) {
			t.Fatalf("op %d: pair of mid %d present: %v, with %d members in the model", i/2, mid, mt != nil, perMid[mid])
		}
		if mt == nil {
			continue
		}
		if n, bad := checkSet(mt); bad != "" || n != perMid[mid] {
			t.Fatalf("op %d: %s; %d members under mid %d, model has %d", i/2, bad, n, mid, perMid[mid])
		}
	}
	if e := ix.find(lead); e != nil {
		if n, bad := checkLead(e); bad != "" || n != len(model) {
			t.Fatalf("%s; %d members, model has %d", bad, n, len(model))
		}
	}
	want := map[uint32][]uint32{}
	for k := range model {
		want[k[0]] = append(want[k[0]], k[1])
	}
	if e := ix.find(lead); e != nil {
		if len(e.entries) != len(want) {
			t.Fatalf("%d pairs, model has %d mids", len(e.entries), len(want))
		}
		for j := range e.entries {
			mt := &e.entries[j]
			w := want[mt.mid]
			slices.Sort(w)
			if !slices.Equal(mt.elems(), w) {
				t.Fatalf("the set under mid %d is %v, model's keys ascending are %v", mt.mid, mt.elems(), w)
			}
			for _, v := range w {
				if !mt.contains(v) {
					t.Fatalf("contains(%d) = false for a member under mid %d", v, mt.mid)
				}
			}
		}
	}
}

// FuzzIDSet drives idSetScript with fuzzed scripts. The seeds fill one run
// far past linearRun in ascending, descending and random order, then churn
// it; then walk one set through its life — born inline, a run at its second
// member, emptied and its pair dropped beside a neighbour, the lead pruned —
// and fill and empty a lead's 16 mids.
func FuzzIDSet(f *testing.F) {
	var up, down []byte
	for v := 0; v < 1024; v += 3 {
		up = append(up, byte(v>>8<<2), byte(v))
		down = append(down, byte((1023-v)>>8<<2), byte(1023-v))
	}
	random := make([]byte, 4000)
	rand.New(rand.NewSource(21)).Read(random)
	f.Add([]byte{})
	f.Add(up)
	f.Add(down)
	f.Add(random)
	f.Add(append(slices.Clone(up), random...))
	// Operation bytes: mid<<4 | insert 0, remove 2, contains 3.
	f.Add([]byte{0x00, 5, 0x03, 5})                                     // born inline
	f.Add([]byte{0x00, 9, 0x00, 5, 0x00, 1, 0x03, 5})                   // inline, then a run below it
	f.Add([]byte{0x10, 1, 0x00, 5, 0x00, 9, 0x02, 5, 0x02, 9, 0x03, 9}) // a run emptied: pair dropped
	f.Add([]byte{0x00, 5, 0x02, 5, 0x00, 5, 0x00, 6, 0x02, 6, 0x02, 5}) // the lead pruned, twice
	var mids []byte
	for m := 15; m >= 0; m-- {
		mids = append(mids, byte(m<<4), byte(m), byte(m<<4), byte(m+100))
	}
	for m := 0; m < 16; m += 2 {
		mids = append(mids, byte(m<<4|2), byte(m), byte(m<<4|2), byte(m+100))
	}
	f.Add(mids)
	f.Fuzz(idSetScript)
}

// TestIDSetSearchDoesNotAllocate: on a 10⁴-member run, membership and removal
// are a search and a copy within the run — nothing is allocated.
func TestIDSetSearchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const members, mid = 10_000, 3
	var e leadEntry
	for v := uint32(0); v < members; v++ {
		e.insert(mid, 3*v)
	}
	rng := rand.New(rand.NewSource(21))
	hits := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if e.find(mid).contains(uint32(rng.Intn(3 * members))) {
			hits++
		}
	}); allocs != 0 {
		t.Errorf("contains allocates %.1f times per call", allocs)
	}
	if hits == 0 || hits > 150 {
		t.Errorf("%d of 201 probes hit; a third should", hits)
	}
	order := rng.Perm(members)
	next := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if !e.remove(mid, uint32(3*order[next])) {
			t.Fatalf("remove(%d) missed a member", 3*order[next])
		}
		next++
	}); allocs != 0 {
		t.Errorf("remove allocates %.1f times per call", allocs)
	}
	if n := e.find(mid).len(); n != members-next {
		t.Errorf("%d members after %d removals of %d", n, next, members)
	}
}

// TestNewMidDoesNotAllocate: filing the first member under a new mid of a
// lead whose pairs have spare capacity allocates nothing — the member lives
// in its pair — wherever among the pairs the mid lands.
func TestNewMidDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const lead, spare = 7, 64
	var ix index
	ix.slot(lead).entries = make([]midTrail, 0, spare)
	mid := uint32(2 * spare)
	if allocs := testing.AllocsPerRun(spare-1, func() {
		mid -= 2 // descending: each new pair lands below every other
		if !ix.insert(lead, mid, 7) {
			t.Fatalf("insert under the new mid %d reported a duplicate", mid)
		}
	}); allocs != 0 {
		t.Errorf("filing a new mid's first member allocates %.1f times", allocs)
	}
	if !ix.insert(lead, mid+1, 7) {
		t.Fatal("insert between two pairs reported a duplicate")
	}
	if n, bad := checkLead(ix.find(lead)); bad != "" || n != spare+1 {
		t.Fatalf("%s; %d members, want %d", bad, n, spare+1)
	}
}

// TestCursorResumesByValue: a (? P O) cursor over a 5 000-subject posting
// list is drained a thousand triples at a time with writes to the list in
// between — an emitted subject removed while one is inserted below the cursor
// and one above, then a removal alone, then an insertion alone, so the
// members above the cursor slide back, stay and slide forth. Every subject
// present throughout is reported exactly once, the one inserted above the
// cursor too, a touched one at most once — at batch sizes 1, 7 and 1 024, on
// a store and through a view whose overlay holds the list, and the same with
// the predicate left open, where the object-only fan-out walks the list. One
// level up, a (S ? ?) cursor over one subject's one-object predicates keeps
// the same guarantee while pairs are dropped and filed below it, and at the
// top the unbound cursor keeps it while leads are pruned behind it and filed
// ahead of it.
func TestCursorResumesByValue(t *testing.T) {
	for _, size := range []int{1, 7, 1024} {
		for _, view := range []bool{false, true} {
			for _, objectOnly := range []bool{false, true} {
				t.Run(fmt.Sprintf("batch=%d/view=%v/objectonly=%v", size, view, objectOnly), func(t *testing.T) {
					checkCursorResumes(t, size, view, objectOnly)
				})
			}
		}
	}
	t.Run("lead/batch=1", checkLeadCursorResumes)
	for _, size := range []int{1, 3} {
		t.Run(fmt.Sprintf("unbound/batch=%d", size), func(t *testing.T) {
			checkUnboundCursorResumes(t, size)
		})
	}
}

// checkUnboundCursorResumes drains a (? ? ?) cursor over 180 subjects of two
// triples each, size triples at a time, until it stands among the leads in
// the middle of the index. Every tenth id was held back, so a lead filed
// later lands between two filed ones. Then the first lead is pruned, so is
// the one the cursor finished last and the lead it stands in, and two held
// back ids are filed as leads ahead of it, each below leads the cursor has
// not yet reached. Every untouched lead is reported exactly once, the two new
// ones too, a pruned one at most once.
func checkUnboundCursorResumes(t *testing.T, size int) {
	const names, every = 200, 10
	s := New()
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	p, q, o := id("p"), id("q"), id("o")
	lead := func(subject SymbolID) []IDTriple {
		return []IDTriple{{S: subject, P: p, O: o}, {S: subject, P: q, O: o}}
	}
	var filed, spare []SymbolID // ascending
	tx := s.Begin()
	for i := 0; i < names; i++ {
		subject := id(fmt.Sprintf("s%d", i))
		if i%every == every-1 {
			spare = append(spare, subject)
			continue
		}
		filed = append(filed, subject)
		for _, tr := range lead(subject) {
			if _, err := tx.AddID(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	target := filed[len(filed)/2]

	pt := s.scanPart(IDPattern{})
	defer pt.Release()
	buf := make([]IDTriple, size)
	seen := map[IDTriple]int{}
	var last IDTriple
	done := false
	for !done && seen[lead(target)[0]] == 0 {
		var n int
		n, done = pt.NextBatch(buf)
		for _, tr := range buf[:n] {
			seen[tr]++
			last = tr
		}
	}
	at, _ := slices.BinarySearch(filed, last.S)
	if done || at < 2 || filed[at] != last.S {
		t.Fatalf("the cursor stands at %v (done %v); the fixture wants it among the leads in the middle", last, done)
	}
	touched := map[SymbolID]bool{filed[0]: true, filed[at-1]: true, last.S: true}
	for subject := range touched {
		for _, tr := range lead(subject) {
			tx.RemoveID(tr)
		}
	}
	next, _ := slices.BinarySearch(spare, last.S)
	fresh := []SymbolID{spare[next], spare[len(spare)-2]}
	for _, subject := range fresh {
		for _, tr := range lead(subject) {
			if added, err := tx.AddID(tr); err != nil || !added {
				t.Fatalf("AddID(%v) = %v, %v", tr, added, err)
			}
		}
	}
	checkRuns(t, "written store", s)
	for !done {
		var n int
		n, done = pt.NextBatch(buf)
		for _, tr := range buf[:n] {
			seen[tr]++
		}
	}
	for _, subject := range filed {
		for _, tr := range lead(subject) {
			if n := seen[tr]; n > 1 || (!touched[subject] && n != 1) {
				t.Errorf("%v was reported %d times; its lead pruned: %v", tr, n, touched[subject])
			}
		}
	}
	for _, subject := range fresh {
		for _, tr := range lead(subject) {
			if seen[tr] != 1 {
				t.Errorf("%v, filed ahead of the cursor, was reported %d times", tr, seen[tr])
			}
		}
	}
}

// checkLeadCursorResumes drains a (S ? ?) cursor one triple at a time over a
// subject with eight predicates of one object each. Between refills the pair
// of an emitted predicate is emptied, then another emitted one is emptied
// while the first is filed again. The five predicates no write touched are
// each reported exactly once, the two touched at most once.
func checkLeadCursorResumes(t *testing.T) {
	s := New()
	id := func(name string) SymbolID {
		v, err := s.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	subject, object := id("s"), id("o")
	ts := make([]IDTriple, 8)
	tx := s.Begin()
	for i := range ts {
		ts[i] = IDTriple{S: subject, P: id(fmt.Sprintf("p%d", i)), O: object}
		if _, err := tx.AddID(ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	pt := s.scanPart(IDPattern{S: subject, BoundS: true})
	defer pt.Release()
	buf := make([]IDTriple, 1)
	seen := map[IDTriple]int{}
	pull := func(k int) {
		for ; k > 0; k-- {
			n, done := pt.NextBatch(buf)
			for _, tr := range buf[:n] {
				seen[tr]++
			}
			if done {
				return
			}
		}
	}
	pull(3) // p0, p1, p2
	if len(seen) != 3 || seen[ts[2]] != 1 {
		t.Fatalf("after three refills the cursor reported %v; the fixture wants p0 to p2", seen)
	}
	if !tx.RemoveID(ts[0]) {
		t.Fatalf("RemoveID(%v) missed", ts[0])
	}
	pull(1)
	if !tx.RemoveID(ts[1]) {
		t.Fatalf("RemoveID(%v) missed", ts[1])
	}
	if added, err := tx.AddID(ts[0]); err != nil || !added {
		t.Fatalf("AddID(%v) = %v, %v", ts[0], added, err)
	}
	checkRuns(t, "written store", s)
	pull(len(ts) + 1)
	for i, tr := range ts {
		if n := seen[tr]; n > 1 || (i >= 2 && n != 1) {
			t.Errorf("p%d was reported %d times; touched: %v", i, n, i < 2)
		}
	}
}

// checkCursorResumes is one case of TestCursorResumesByValue.
func checkCursorResumes(t *testing.T, size int, view, objectOnly bool) {
	const subjects, stride = 5000, 1024
	base := New()
	id := func(name string) SymbolID {
		v, err := base.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	typ, big := id("type"), id("big")
	triple := func(name string) IDTriple { return IDTriple{S: id(name), P: typ, O: big} }
	// The written member, and the reader it is scanned through: the store
	// itself, or a view whose base holds a short list of its own under the
	// same (P, O).
	member, want := base, map[IDTriple]bool{}
	var r idReader = base
	if view {
		member = base.NewOverlay()
		btx := base.Begin()
		for i := 0; i < 50; i++ {
			tr := triple(fmt.Sprintf("asserted%d", i))
			want[tr] = true
			if _, err := btx.AddID(tr); err != nil {
				t.Fatal(err)
			}
		}
		v, err := NewView(base, member)
		if err != nil {
			t.Fatal(err)
		}
		r = v
	}
	// Ids ascend with i; three names are held back to be inserted.
	spare := map[int]bool{200: true, 400: true, 4500: true}
	tx := member.Begin()
	for i := 0; i < subjects+len(spare); i++ {
		tr := triple(fmt.Sprintf("inst%d", i))
		if spare[i] {
			continue
		}
		want[tr] = true
		if _, err := tx.AddID(tr); err != nil {
			t.Fatal(err)
		}
	}
	first, low1, low2, high := id("inst0"), triple("inst200"), triple("inst400"), triple("inst4500")
	want[high] = true

	parts := r.ScanParts(IDPattern{P: typ, O: big, BoundP: !objectOnly, BoundO: true})
	buf := make([]IDTriple, size)
	seen := map[IDTriple]int{}
	var emitted []IDTriple // from the written member, in order
	pull := func(atLeast int) {
		for got := 0; got < atLeast && len(parts) > 0; {
			n, done := parts[0].NextBatch(buf)
			for _, tr := range buf[:n] {
				seen[tr]++
				if tr.S >= first {
					emitted = append(emitted, tr)
				}
			}
			got += n
			if done {
				parts[0].Release()
				parts = parts[1:]
			}
		}
	}
	write := func(remove, add []IDTriple) {
		t.Helper()
		for _, tr := range remove {
			if !tx.RemoveID(tr) {
				t.Fatalf("RemoveID(%v) missed a present triple", tr)
			}
		}
		for _, tr := range add {
			if added, err := tx.AddID(tr); err != nil || !added {
				t.Fatalf("AddID(%v) = %v, %v", tr, added, err)
			}
		}
		checkRuns(t, "written member", member)
	}

	pull(stride)
	if last := emitted[len(emitted)-1]; len(emitted) < 500 || low2.S >= last.S || high.S <= last.S {
		t.Fatalf("after %d triples the cursor stands at %v; the fixture wants it between %v and %v", len(emitted), last, low2, high)
	}
	write(emitted[:1], []IDTriple{low1, high})
	pull(stride)
	write(emitted[1:2], nil)
	pull(stride)
	write(nil, []IDTriple{low2})
	pull(subjects)

	if len(parts) != 0 {
		t.Fatalf("%d cursors left undrained", len(parts))
	}
	for tr := range want {
		if seen[tr] != 1 {
			t.Errorf("%v, present throughout or inserted above the cursor, was reported %d times", tr, seen[tr])
		}
	}
	for tr, n := range seen {
		if n > 1 || (!want[tr] && tr != low1 && tr != low2) {
			t.Errorf("%v was reported %d times", tr, n)
		}
	}
}
