package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A trailing set is one strictly ascending run (shard.go). These tests hold
// the run to a map model, the two index families to the invariant every
// search relies on, and the cursor to what resuming by value buys: a write
// into a posting list disturbs no triple it did not touch.

// checkRuns holds s to the invariant every idSet is searched under — each
// trailing run of both families strictly ascending, none empty — and each
// shard's triple counter to the sum of its runs' lengths, the family's to Len.
func checkRuns(t testing.TB, what string, s *Store) {
	t.Helper()
	for name, fam := range map[string]*indexFamily{"SPO": &s.spo, "POS": &s.pos} {
		total := 0
		for i := range fam {
			sh := &fam[i]
			sh.mu.RLock()
			n, bad := 0, ""
			for lead, e := range sh.m {
				for j := range e.entries {
					run := e.entries[j].trail.elems
					n += len(run)
					if len(run) == 0 {
						bad = fmt.Sprintf("the run under (%d, %d) is empty", lead, e.entries[j].mid)
					}
					for k := 1; k < len(run); k++ {
						if run[k-1] >= run[k] {
							bad = fmt.Sprintf("the run under (%d, %d) holds %d before %d at position %d of %d", lead, e.entries[j].mid, run[k-1], run[k], k, len(run))
							break
						}
					}
				}
			}
			if bad == "" && n != sh.n {
				bad = fmt.Sprintf("the runs hold %d triples, the shard counts %d", n, sh.n)
			}
			sh.mu.RUnlock()
			if bad != "" {
				t.Fatalf("%s: %s shard %d: %s; want every run non-empty and strictly ascending", what, name, i, bad)
			}
			total += n
		}
		if total != s.Len() {
			t.Fatalf("%s: %s holds %d triples, Len is %d", what, name, total, s.Len())
		}
	}
}

// idSetScript runs a byte script against an idSet and a map model: each two
// bytes are one operation — add (twice as likely), remove or contains — on a
// value from a 1 024-wide vocabulary whose top member stands for the largest
// id there is. Every result must equal the model's, and the run must end up
// the model's keys, ascending.
func idSetScript(t *testing.T, script []byte) {
	var set idSet
	model := map[uint32]bool{}
	for i := 0; i+1 < len(script); i += 2 {
		op, v := script[i], uint32(script[i+1])|uint32(script[i]>>2&3)<<8
		if v == 1023 {
			v = ^uint32(0)
		}
		switch op & 3 {
		case 0, 1:
			if got := set.add(v); got == model[v] {
				t.Fatalf("op %d: add(%d) = %v, model had it: %v", i/2, v, got, model[v])
			}
			model[v] = true
		case 2:
			if got := set.remove(v); got != model[v] {
				t.Fatalf("op %d: remove(%d) = %v, model says %v", i/2, v, got, model[v])
			}
			delete(model, v)
		case 3:
			if got := set.contains(v); got != model[v] {
				t.Fatalf("op %d: contains(%d) = %v, model says %v", i/2, v, got, model[v])
			}
		}
		if set.len() != len(model) {
			t.Fatalf("op %d: %d members, model has %d", i/2, set.len(), len(model))
		}
	}
	want := make([]uint32, 0, len(model))
	for v := range model {
		want = append(want, v)
	}
	slices.Sort(want)
	if !slices.Equal(set.elems, want) {
		t.Fatalf("the run is %v, model's keys ascending are %v", set.elems, want)
	}
	for _, v := range want {
		if !set.contains(v) {
			t.Fatalf("contains(%d) = false for a member", v)
		}
	}
}

// FuzzIDSet drives idSetScript with fuzzed scripts; the seeds fill a run far
// past linearRun in ascending, descending and random order, then churn it.
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
	f.Fuzz(idSetScript)
}

// TestIDSetSearchDoesNotAllocate: on a 10⁴-member run, membership and removal
// are a search and a copy within the run — nothing is allocated.
func TestIDSetSearchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const members = 10_000
	var set idSet
	for v := uint32(0); v < members; v++ {
		set.add(3 * v)
	}
	rng := rand.New(rand.NewSource(21))
	hits := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if set.contains(uint32(rng.Intn(3 * members))) {
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
		if !set.remove(uint32(3 * order[next])) {
			t.Fatalf("remove(%d) missed a member", 3*order[next])
		}
		next++
	}); allocs != 0 {
		t.Errorf("remove allocates %.1f times per call", allocs)
	}
	if set.len() != members-next {
		t.Errorf("%d members after %d removals of %d", set.len(), next, members)
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
// the predicate left open, where the object-only fan-out walks the list.
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
