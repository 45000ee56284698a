package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// The reference semantics the indexed engine must agree with is the model's
// set of triples (internal/model): a pattern query is answered by matching
// every triple and sorting — no dictionary, no indexes.

// refQuery is the model's answer to the pattern query p: an empty component
// matches anything, so it is a variable of its own.
func refQuery(ref model.Set, p Pattern) []Triple {
	term := func(value, name string) model.Term {
		if value == "" {
			return model.Term{Value: name, IsVar: true}
		}
		return model.Term{Value: value}
	}
	var out []Triple
	for _, t := range ref.Match(model.Pattern{Subject: term(p.Subject, "s"), Predicate: term(p.Predicate, "p"), Object: term(p.Object, "o")}) {
		out = append(out, Triple(t))
	}
	return out
}

// longRun is the length the fixtures of this package take a hub's trailing
// run past: several times linearRun, so a search into it halves before it
// walks and an insert or removal has members on both sides to keep in order.
const longRun = 32

// wideVocab is the width of the hub vocabularies randomTriple draws from —
// past longRun, so a hub's run is written to well beyond the spine's members.
const wideVocab = longRun + 8

// randomTriple draws components from a small vocabulary so duplicates,
// removals and pattern hits are all frequent — half the time uniformly from
// 12×5×12, the other half around three hubs that wideSpine fills: the
// objects of (s1 p1 ?), the subjects of (? p2 o4) and the predicates of s1.
func randomTriple(rng *rand.Rand) Triple {
	s, p, o := rng.Intn(12), rng.Intn(5), rng.Intn(12)
	switch rng.Intn(6) {
	case 0:
		s, p, o = 1, 1, rng.Intn(wideVocab)
	case 1:
		s, p, o = rng.Intn(wideVocab), 2, 4
	case 2:
		s, p = 1, rng.Intn(linearRun+4)
	}
	return Triple{fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", p), fmt.Sprintf("o%d", o)}
}

// wideSpine is the fixed block of randomTriple's vocabulary that takes one
// lead past linearRun mids, so the search for a mid halves before it walks,
// and one trailing run past longRun in both indexes: subject s1 under
// linearRun+2 predicates and (s1 p1 ?) with longRun+4 objects (SPO),
// predicate p1 thereby over more than linearRun objects and (? p2 o4) with
// longRun+4 subjects (POS).
func wideSpine() []Triple {
	var ts []Triple
	for i := 0; i < longRun+4; i++ {
		ts = append(ts,
			Triple{"s1", "p1", fmt.Sprintf("o%d", i)},
			Triple{fmt.Sprintf("s%d", i), "p2", "o4"})
	}
	for i := 0; i < linearRun+2; i++ {
		ts = append(ts, Triple{"s1", fmt.Sprintf("p%d", i), "o2"})
	}
	return ts
}

// addSpine puts wideSpine into the engine and the reference, and checks the
// shapes it exists for actually formed: a lead with more mids than linearRun
// and a trailing run past longRun, in each index.
func addSpine(t *testing.T, s *Store, ref model.Set) {
	t.Helper()
	spine := wideSpine()
	if _, err := s.AddBatch(spine); err != nil {
		t.Fatal(err)
	}
	for _, tr := range spine {
		ref.Add(model.Triple(tr))
	}
	for name, ix := range map[string]*index{"SPO": &s.spo, "POS": &s.pos} {
		mids, trails := 0, 0
		ix.ascend(0, func(_ uint32, ps trailSet) bool {
			if len(ps.pairs) > linearRun {
				mids++
			}
			for k := range ps.pairs {
				if len(ps.elems(k)) > longRun {
					trails++
				}
			}
			return true
		})
		if mids == 0 || trails == 0 {
			t.Fatalf("%s: the spine made %d leads past %d mids and %d trailing runs past %d; want at least one of each", name, mids, linearRun, trails, longRun)
		}
	}
}

// agreementPatterns are the probing patterns of checkAgreement: every bound
// shape at least twice (so each shape also runs as one multi-probe batch),
// hits and misses, the spine's wide levels ((s1 ? ?), (? p1 ?), (s1 p1 ?),
// (? p2 o4) and the membership tests under them) and a never-interned name.
var agreementPatterns = []Pattern{
	{},
	{},
	{Subject: "s1"},
	{Subject: "s999"},
	{Predicate: "p0"},
	{Predicate: "p1"},
	{Predicate: "p3"},
	{Object: "o2"},
	{Object: "o4"},
	{Subject: "s1", Predicate: "p1"},
	{Subject: "s2", Predicate: "p1"},
	{Subject: "s2", Object: "o3"},
	{Subject: "s1", Object: "o7"},
	{Predicate: "p2", Object: "o4"},
	{Predicate: "p2", Object: "o5"},
	{Subject: "s0", Predicate: "p0", Object: "o0"},
	{Subject: "s1", Predicate: "p1", Object: "o5"},
}

// idReader is the id-level read surface a Store and a View share.
type idReader interface {
	QueryIDFunc(p IDPattern, yield func(IDTriple) bool)
	QueryIDBatch(ps []IDPattern, yield func(pi int, t IDTriple) bool)
	Scan(p IDPattern) *ScanPart
	StatsID(p IDPattern) IDStats
}

// encodeOrMiss is encodePattern for a reader under test: a bound name that
// was never interned becomes an id the dictionary has not minted, which must
// match nothing on any read path.
func encodeOrMiss(syms *Store, p Pattern) IDPattern {
	id := func(name string) (SymbolID, bool) {
		if name == "" {
			return 0, false
		}
		if v, ok := syms.SymbolID(name); ok {
			return v, true
		}
		return SymbolID(syms.DictLen() + 7), true
	}
	var ip IDPattern
	ip.S, ip.BoundS = id(p.Subject)
	ip.P, ip.BoundP = id(p.Predicate)
	ip.O, ip.BoundO = id(p.Object)
	return ip
}

// drainPart pulls one cursor dry, size triples at a time, and releases it.
func drainPart(pt *ScanPart, size int) []IDTriple {
	var out []IDTriple
	buf := make([]IDTriple, size)
	for done := false; !done; {
		var n int
		n, done = pt.NextBatch(buf)
		out = append(out, buf[:n]...)
	}
	pt.Release()
	return out
}

// drainScan pulls the pattern's cursor dry, size triples at a time.
func drainScan(r idReader, p IDPattern, size int) []IDTriple {
	return drainPart(r.Scan(p), size)
}

// checkReads holds every id-level read path of r to the reference on the given
// patterns, one by one — the callback, the cursor at three batch sizes, a
// probe batch of one, all probes of one shape in one batch, and the count —
// each as a multiset (the reference's answer encoded through the dictionary
// and sorted by id, against the sorted answer), so a triple reported twice
// fails like a triple missed. No read path's oracle is another read path.
func checkReads(t *testing.T, what string, r idReader, syms *Store, ref model.Set, patterns []Pattern) {
	t.Helper()
	res := syms.NewResolver()
	ips := make([]IDPattern, len(patterns))
	wants := make([][]IDTriple, len(patterns))
	byShape := map[[3]bool][]int{}
	for i, p := range patterns {
		ip, want := encodeOrMiss(syms, p), make([]IDTriple, 0, 8)
		for _, tr := range refQuery(ref, p) {
			it, ok := syms.syms.lookupTriple(tr)
			if !ok {
				t.Fatalf("%s: %v is in the reference but was never interned", what, tr)
			}
			want = append(want, it)
		}
		SortIDTriples(want)
		ips[i], wants[i] = ip, want
		shape := [3]bool{ip.BoundS, ip.BoundP, ip.BoundO}
		byShape[shape] = append(byShape[shape], i)
		check := func(how string, got []IDTriple) {
			t.Helper()
			if SortIDTriples(got); !slices.Equal(got, want) {
				t.Fatalf("%s: %s %v = %v, reference says %v", what, how, p, resolved(res, got), resolved(res, want))
			}
		}
		var got []IDTriple
		r.QueryIDFunc(ip, func(tr IDTriple) bool {
			got = append(got, tr)
			return true
		})
		check("QueryIDFunc", got)
		for _, size := range []int{1, 7, 1024} {
			check(fmt.Sprintf("Scan drained %d at a time", size), drainScan(r, ip, size))
		}
		got = got[:0]
		r.QueryIDBatch([]IDPattern{ip}, func(pi int, tr IDTriple) bool {
			if pi != 0 {
				t.Fatalf("%s: a batch of one probe answered probe %d", what, pi)
			}
			got = append(got, tr)
			return true
		})
		check("QueryIDBatch of one", got)
		if c := r.StatsID(ip).Count; c != len(want) {
			t.Fatalf("%s: StatsID%v.Count = %d, reference says %d", what, p, c, len(want))
		}
	}
	for _, members := range byShape {
		ps := make([]IDPattern, len(members))
		for j, i := range members {
			ps[j] = ips[i]
		}
		answers := make([][]IDTriple, len(ps))
		r.QueryIDBatch(ps, func(pi int, tr IDTriple) bool {
			answers[pi] = append(answers[pi], tr)
			return true
		})
		for j, i := range members {
			if SortIDTriples(answers[j]); !slices.Equal(answers[j], wants[i]) {
				t.Fatalf("%s: probe %d of a %d-probe QueryIDBatch %v = %v, reference says %v",
					what, j, len(ps), patterns[i], resolved(res, answers[j]), resolved(res, wants[i]))
			}
		}
	}
}

// splitView builds a view whose two members split the reference's triples
// between them — every other triple of the sorted set to the overlay — so
// the members are disjoint and their union is the reference.
func splitView(t *testing.T, ref model.Set) *View {
	t.Helper()
	base := New()
	overlay := base.NewOverlay()
	for i, tr := range refQuery(ref, Pattern{}) {
		member := base
		if i%2 == 1 {
			member = overlay
		}
		member.MustAdd(tr)
	}
	v, err := NewView(base, overlay)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkAgreement compares every read path of the engine against the
// reference on the probing patterns: the string-level reads of the store,
// then the id-level ones (checkReads) on the store and on a view over the
// same triples split between two members.
func checkAgreement(t *testing.T, s *Store, ref model.Set) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", s.Len(), len(ref))
	}
	v := splitView(t, ref)
	if v.Len() != len(ref) {
		t.Fatalf("view Len = %d, reference has %d", v.Len(), len(ref))
	}
	for _, p := range agreementPatterns {
		want := refQuery(ref, p)
		if got := s.Query(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%v) = %v, reference says %v", p, got, want)
		}
		if got := v.Query(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("view Query(%v) = %v, reference says %v", p, got, want)
		}
		if c := s.Count(p); c != len(want) {
			t.Fatalf("Count(%v) = %d, reference says %d", p, c, len(want))
		}
	}
	checkRuns(t, "store", s)
	checkRuns(t, "view base", v.Base())
	checkRuns(t, "view overlay", v.Overlay())
	checkReads(t, "store", s, s, ref, agreementPatterns)
	checkReads(t, "view", v, v.Base(), ref, agreementPatterns)
	for _, tr := range refQuery(ref, Pattern{}) {
		if !s.Contains(tr) || !v.Contains(tr) {
			t.Fatalf("Contains(%v) = false for a present triple", tr)
		}
	}
}

// TestEngineMatchesReference drives the indexed engine and the
// filter-all-triples reference through the same random schedule of single
// adds, batch adds, single removals and batch removals, and checks that every read path agrees at
// several points along the way.
func TestEngineMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := model.Set{}
		addSpine(t, s, ref)
		for step := 0; step < 6; step++ {
			switch rng.Intn(4) {
			case 0: // single adds
				for i := 0; i < 30; i++ {
					tr := randomTriple(rng)
					got, err := s.Add(tr)
					if err != nil {
						return false
					}
					if got != ref.Add(model.Triple(tr)) {
						return false
					}
				}
			case 1: // one batch, with internal duplicates
				batch := make([]Triple, 0, 40)
				wantNew := 0
				refCopy := map[Triple]bool{}
				for i := 0; i < 40; i++ {
					tr := randomTriple(rng)
					batch = append(batch, tr)
					if !ref[model.Triple(tr)] && !refCopy[tr] {
						refCopy[tr] = true
						wantNew++
					}
				}
				added, err := s.AddBatch(batch)
				if err != nil || added != wantNew {
					return false
				}
				for tr := range refCopy {
					ref.Add(model.Triple(tr))
				}
			case 2: // removals, present or not
				for i := 0; i < 20; i++ {
					tr := randomTriple(rng)
					if s.Remove(tr) != ref.Remove(model.Triple(tr)) {
						return false
					}
				}
			case 3: // one sorted-and-compacted removal, with duplicates and absent triples
				var batch []IDTriple
				gone := map[Triple]bool{}
				for len(batch) < 128 {
					tr := randomTriple(rng)
					if e, ok := s.syms.lookupTriple(tr); ok {
						batch = append(batch, e)
						gone[tr] = ref[model.Triple(tr)] || gone[tr]
					}
				}
				want := 0
				for tr, present := range gone {
					if present {
						ref.Remove(model.Triple(tr))
						want++
					}
				}
				tx := s.Begin()
				if tx.RemoveIDs(batch) != want {
					return false
				}
			}
			checkAgreement(t, s, ref)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzQueryAgreement fuzzes one add/remove schedule seed plus one query
// pattern drawn from fuzzed components, asserting the indexed answer equals
// the reference answer.
func FuzzQueryAgreement(f *testing.F) {
	f.Add(int64(1), "s1", "", "")
	f.Add(int64(2), "", "p1", "o1")
	f.Add(int64(3), "", "", "")
	f.Add(int64(4), "s0", "p0", "o0")
	f.Fuzz(func(t *testing.T, seed int64, subj, pred, obj string) {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ref := model.Set{}
		addSpine(t, s, ref)
		for i := 0; i < 80; i++ {
			tr := randomTriple(rng)
			if rng.Intn(4) == 0 {
				if s.Remove(tr) != ref.Remove(model.Triple(tr)) {
					t.Fatalf("Remove(%v) disagrees with reference", tr)
				}
				continue
			}
			got, err := s.Add(tr)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref.Add(model.Triple(tr)) {
				t.Fatalf("Add(%v) disagrees with reference", tr)
			}
		}
		p := Pattern{Subject: subj, Predicate: pred, Object: obj}
		want := refQuery(ref, p)
		got := s.Query(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%v) = %v, reference says %v", p, got, want)
		}
		if c := s.Count(p); c != len(want) {
			t.Fatalf("Count(%v) = %d, want %d", p, c, len(want))
		}
		checkRuns(t, "store", s)
		checkReads(t, "store", s, s, ref, []Pattern{p})
		v := splitView(t, ref)
		checkReads(t, "view", v, v.Base(), ref, []Pattern{p})
	})
}

// TestQueryIDFuncDoesNotAllocate pins what QueryIDFunc's doc comment states:
// as a probe batch of one it allocates nothing, on any of the eight bound
// shapes, on a store and on a view — the batch, the adapter closure and the
// view's stop flag all stay on the stack.
func TestQueryIDFuncDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	ref := model.Set{}
	for _, tr := range wideSpine() {
		ref.Add(model.Triple(tr))
	}
	v := splitView(t, ref)
	s := New()
	if _, err := s.AddBatch(wideSpine()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		r    idReader
		syms *Store
	}{{"store", s, s}, {"view", v, v.Base()}} {
		for shape := 0; shape < 8; shape++ {
			var p Pattern
			if shape&1 != 0 {
				p.Subject = "s1"
			}
			if shape&2 != 0 {
				p.Predicate = "p1"
			}
			if shape&4 != 0 {
				p.Object = "o2"
			}
			ip, n := encodeOrMiss(c.syms, p), 0
			yield := func(IDTriple) bool { n++; return true }
			if allocs := testing.AllocsPerRun(50, func() { c.r.QueryIDFunc(ip, yield) }); allocs != 0 {
				t.Errorf("%s: QueryIDFunc%v allocates %.1f times per call", c.name, p, allocs)
			}
			if n == 0 {
				t.Errorf("%s: QueryIDFunc%v matched nothing; the fixture should hit every shape", c.name, p)
			}
		}
	}
}

// TestLeadlessOrderIsDeterministic: the two shapes with no lead to look up,
// (? ? o) and (? ? ?), walk their index's leads in ascending id order, so
// QueryIDFunc yields one sequence for one set of triples — on repeated calls,
// on a store that filed the same triples in another order, and on one
// bulk-loaded with them — and the cursor drains the same sequence.
func TestLeadlessOrderIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var ts []Triple
	for i := 0; i < 600; i++ {
		ts = append(ts, Triple{fmt.Sprintf("s%d", rng.Intn(150)), fmt.Sprintf("p%d", rng.Intn(20)), fmt.Sprintf("o%d", rng.Intn(12))})
	}
	// Every store interns the names in one order, so ids agree across them.
	fresh := func() *Store {
		s := New()
		for _, tr := range ts {
			s.syms.internTriple(tr)
		}
		return s
	}
	written := fresh()
	for _, i := range rng.Perm(len(ts)) {
		written.MustAdd(ts[i])
	}
	batched := fresh()
	shuffled := slices.Clone(ts)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if _, err := batched.AddBatch(shuffled); err != nil {
		t.Fatal(err)
	}
	loaded := fresh()
	_, ids := dumpIDState(written)
	if err := loaded.LoadSorted(ids); err != nil {
		t.Fatal(err)
	}
	patterns := []IDPattern{{}}
	for o := 0; o < 12; o += 5 {
		patterns = append(patterns, IDPattern{O: mustID(t, written, fmt.Sprintf("o%d", o)), BoundO: true})
	}
	sequence := func(s *Store, p IDPattern) []IDTriple {
		var out []IDTriple
		s.QueryIDFunc(p, func(tr IDTriple) bool {
			out = append(out, tr)
			return true
		})
		return out
	}
	for _, p := range patterns {
		want := sequence(written, p)
		if len(want) == 0 {
			t.Fatalf("%+v matches nothing; the fixture should hit it", p)
		}
		for name, got := range map[string][]IDTriple{
			"a second call":                  sequence(written, p),
			"the shuffled batch":             sequence(batched, p),
			"the bulk load":                  sequence(loaded, p),
			"the cursor, 7 at a time":        drainScan(written, p, 7),
			"the bulk load's cursor":         drainScan(loaded, p, 1024),
			"the shuffled batch's cursor, 1": drainScan(batched, p, 1),
		} {
			if !slices.Equal(got, want) {
				t.Errorf("%+v: %s yields another sequence than the first call (%d and %d triples)", p, name, len(got), len(want))
			}
		}
	}
}
