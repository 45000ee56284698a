package reason

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// This file holds the seed round (seed.go) and the propagation-rule skip
// (markPropagation) to the same references as the maintenance path: a bulk
// materialization must equal the same corpus pushed through Materialize on an
// empty store plus AddBatch — the path this PR did not touch — and the naive
// closure, byte for byte in the provenance-tagged snapshot.

// bulkCase is one corpus for the bulk-versus-incremental comparison: a rule
// set, the asserted triples, and further triples a mutation schedule may add.
type bulkCase struct {
	name     string
	rules    []Rule
	asserted []store.Triple
	pool     []store.Triple
}

func tr(s, p, o string) store.Triple { return store.Triple{Subject: s, Predicate: p, Object: o} }

// adversarialCases are schemas picked to break a seed round that commits a
// whole round at once or a skip that trusts the transitivity rule too much.
func adversarialCases(tb testing.TB) []bulkCase {
	tb.Helper()
	const typ, sc, sp = store.TypePredicate, SubClassOfPredicate, SubPropertyOfPredicate
	chain := []store.Triple{tr("i", typ, "c0"), tr("j", typ, "c2")}
	for k := 0; k < 6; k++ {
		chain = append(chain, tr(fmt.Sprintf("c%d", k), sc, fmt.Sprintf("c%d", k+1)))
	}
	user, err := ParseRules("?x reaches ?z :- ?x type ?c . ?c subClassOf ?d . ?d locatedAt ?z")
	if err != nil {
		tb.Fatal(err)
	}
	var typeOnly []Rule
	for _, r := range RDFSRules() {
		if r.Name == "type-propagation" {
			typeOnly = append(typeOnly, r)
		}
	}
	return []bulkCase{
		{
			// The closure is six rounds deep: every type above c1 depends on
			// an edge the transitivity rule has yet to derive.
			name: "unclosed chain", rules: RDFSRules(), asserted: chain,
			pool: []store.Triple{tr("c6", sc, "c7"), tr("k", typ, "c3"), tr("c3", sc, "c0")},
		},
		{
			name: "diamond", rules: RDFSRules(),
			asserted: []store.Triple{tr("a", sc, "b1"), tr("a", sc, "b2"), tr("b1", sc, "top"), tr("b2", sc, "top"), tr("i", typ, "a")},
			pool:     []store.Triple{tr("top", sc, "a"), tr("j", typ, "b1")},
		},
		{
			name: "cycle", rules: RDFSRules(),
			asserted: []store.Triple{tr("a", sc, "b"), tr("b", sc, "c"), tr("c", sc, "a"), tr("i", typ, "b"), tr("c", sc, "d")},
			pool:     []store.Triple{tr("d", sc, "e"), tr("j", typ, "e")},
		},
		{
			// The variable-predicate rule concludes subClassOf, type and
			// subPropertyOf triples mid-fixpoint: edges and recursive-atom
			// facts that arrive from a rule other than T and L.
			name: "property above the edge predicates", rules: RDFSRules(),
			asserted: []store.Triple{
				tr("kindOf", sp, sc), tr("isA", sp, typ), tr("narrows", sp, sp),
				tr("a", "kindOf", "b"), tr("b", "kindOf", "c"), tr("c", sc, "d"),
				tr("i", "isA", "a"), tr("isA2", "narrows", "isA"), tr("j", "isA2", "b"),
				tr("kindOf", DomainPredicate, "Class"), tr("isA", RangePredicate, "Class"),
			},
			pool: []store.Triple{tr("d", "kindOf", "e"), tr("k", "isA2", "d"), tr("narrows", sp, "meta")},
		},
		{
			name: "asserted and derivable", rules: RDFSRules(),
			asserted: []store.Triple{
				tr("a", sc, "b"), tr("b", sc, "c"), tr("a", sc, "c"),
				tr("i", typ, "a"), tr("i", typ, "b"), tr("i", typ, "c"),
			},
			pool: []store.Triple{tr("c", sc, "d"), tr("i", typ, "d")},
		},
		{
			name: "three-atom user rule", rules: append(RDFSRules(), user...),
			asserted: []store.Triple{
				tr("i", typ, "a"), tr("a", sc, "b"), tr("b", sc, "c"),
				tr("c", "locatedAt", "z1"), tr("b", "locatedAt", "z2"),
			},
			pool: []store.Triple{tr("c", sc, "d"), tr("d", "locatedAt", "z3"), tr("j", typ, "b")},
		},
		{
			// L without T: nothing closes subClassOf, so nothing may be
			// skipped and types climb one edge per round.
			name: "propagation without transitivity", rules: typeOnly, asserted: chain,
			pool: []store.Triple{tr("c6", sc, "c7"), tr("k", typ, "c3")},
		},
	}
}

// randomCases draws rule sets and stores from ref_test.go's generators.
func randomCases(n int, seed int64) []bulkCase {
	rng := rand.New(rand.NewSource(seed))
	var out []bulkCase
	for i := 0; i < n; i++ {
		c := bulkCase{name: fmt.Sprintf("random-%d", i), rules: randomRules(rng)}
		for j, m := 0, rng.Intn(12); j < m; j++ {
			c.asserted = append(c.asserted, randomTriple(rng))
		}
		out = append(out, c)
	}
	return out
}

// taggedSnapshot renders a closure the way View.SnapshotProvenance does.
func taggedSnapshot(tb testing.TB, closure map[store.Triple]bool, asserted []store.Triple) []byte {
	tb.Helper()
	isAsserted := map[store.Triple]bool{}
	for _, t := range asserted {
		isAsserted[t] = true
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, t := range sortedTriples(closure) {
		prov := store.ProvInferred
		if isAsserted[t] {
			prov = store.ProvAsserted
		}
		if err := enc.Encode(store.TaggedTriple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object, Provenance: prov.String()}); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

func provenanceSnapshot(tb testing.TB, r *Reasoner) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := r.View().SnapshotProvenance(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func checkDisjoint(tb testing.TB, r *Reasoner, context string) {
	tb.Helper()
	for _, t := range r.Overlay().Triples() {
		if r.Base().Contains(t) {
			tb.Fatalf("%s: %v is both asserted and in the overlay", context, t)
		}
	}
}

// TestBulkMaterializeMatchesIncremental: Materialize(base) ==
// Materialize(empty) + AddBatch(all) == the model's closure as provenance snapshots,
// with the head buffer at its normal size and shrunk to nothing so every
// handful of heads goes through a compaction.
func TestBulkMaterializeMatchesIncremental(t *testing.T) {
	cases := append(adversarialCases(t), randomCases(60, 73)...)
	saved := headFanout
	t.Cleanup(func() { headFanout = saved })
	for _, fanout := range []int{saved, 0} {
		headFanout = fanout
		for _, c := range cases {
			name := fmt.Sprintf("%s/fanout=%d", c.name, fanout)
			base := store.New()
			if _, err := base.AddBatch(c.asserted); err != nil {
				t.Fatal(err)
			}
			bulk, err := Materialize(base, c.rules)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inc, err := Materialize(store.New(), c.rules)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := inc.AddBatch(c.asserted); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := taggedSnapshot(t, closure(c.asserted, c.rules), c.asserted)
			if got := provenanceSnapshot(t, bulk); !bytes.Equal(got, want) {
				t.Fatalf("%s: bulk materialization differs from the naive closure\n got:\n%s\nwant:\n%s", name, got, want)
			}
			if got := provenanceSnapshot(t, inc); !bytes.Equal(got, want) {
				t.Fatalf("%s: incremental materialization differs from the naive closure\n got:\n%s\nwant:\n%s", name, got, want)
			}
			checkDisjoint(t, bulk, name+" (bulk)")
			checkDisjoint(t, inc, name+" (incremental)")
			if ms := bulk.MaterializeStats(); ms.BulkLoaded > ms.Inferred || ms.Inferred != bulk.InferredCount() || ms.Rounds < 1 {
				t.Fatalf("%s: implausible materialize stats %+v for %d inferred triples", name, ms, bulk.InferredCount())
			}
		}
	}
}

// TestPropagationRulesRecognised pins the syntactic condition: the RDFS set
// has exactly its two propagation rules marked, at their recursive atom, and
// neither survives the loss of its transitivity rule.
func TestPropagationRulesRecognised(t *testing.T) {
	marked := func(rules []Rule) map[string]int {
		compiled, err := compileRules(store.New(), rules)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, c := range compiled {
			if c.selfAtom >= 0 {
				out[c.name] = c.selfAtom
			}
		}
		return out
	}
	got := marked(RDFSRules())
	if len(got) != 2 || got["type-propagation"] != 0 || got["subPropertyOf-propagation"] != 0 {
		t.Fatalf("RDFS propagation rules marked as %v, want type-propagation and subPropertyOf-propagation at atom 0", got)
	}
	var noTrans []Rule
	for _, r := range RDFSRules() {
		if r.Name != "subClassOf-transitivity" && r.Name != "subPropertyOf-transitivity" {
			noTrans = append(noTrans, r)
		}
	}
	if got := marked(noTrans); len(got) != 0 {
		t.Fatalf("propagation rules marked without their transitivity rules: %v", got)
	}
	reversed, err := ParseRules(`?s type ?y :- ?x subClassOf ?y . ?s type ?x
?x subClassOf ?z :- ?y subClassOf ?z . ?x subClassOf ?y
?x type ?x :- ?x type ?y . ?y subClassOf ?x
?s type ?y :- ?s type ?x . ?y subClassOf ?x`)
	if err != nil {
		t.Fatal(err)
	}
	if got := marked(reversed); len(got) != 1 || got["line-1"] != 1 {
		t.Fatalf("marked %v; want only line-1 (body order reversed) at atom 1, not the walk into the rule's own variable or the backward edge", got)
	}
}

// randomSchemaTriple draws from a vocabulary in which the RDFS rules feed one
// another: class and property edges, instances, and properties placed above
// subClassOf, subPropertyOf and type themselves.
func randomSchemaTriple(rng *rand.Rand) store.Triple {
	class := func() string { return fmt.Sprintf("c%d", rng.Intn(5)) }
	prop := func() string { return fmt.Sprintf("p%d", rng.Intn(3)) }
	node := func() string { return fmt.Sprintf("n%d", rng.Intn(4)) }
	switch rng.Intn(8) {
	case 0, 1:
		return tr(class(), SubClassOfPredicate, class())
	case 2:
		return tr(node(), store.TypePredicate, class())
	case 3:
		return tr(prop(), SubPropertyOfPredicate, prop())
	case 4:
		meta := []string{SubClassOfPredicate, SubPropertyOfPredicate, store.TypePredicate}
		return tr(prop(), SubPropertyOfPredicate, meta[rng.Intn(len(meta))])
	case 5:
		return tr([]string{node(), class(), prop()}[rng.Intn(3)], prop(), []string{node(), class(), prop()}[rng.Intn(3)])
	case 6:
		return tr(prop(), DomainPredicate, class())
	default:
		return tr(prop(), RangePredicate, class())
	}
}

// TestApplyRDFSMatchesReference is TestApplyMatchesReference for the rule set
// randomRules practically never draws: two-sided writes against the RDFS
// rules, where one retraction pass may overdelete through several rules at
// once and a write's own adds supply the support its removes withdraw.
func TestApplyRDFSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	rules := RDFSRules()
	for trial := 0; trial < 30; trial++ {
		base := store.New()
		for i, n := 0, 4+rng.Intn(10); i < n; i++ {
			base.MustAdd(randomSchemaTriple(rng))
		}
		r, err := Materialize(base, rules)
		if err != nil {
			t.Fatal(err)
		}
		events := recordDeltas(r)
		for step := 0; step < 6; step++ {
			adds, removes := randomApply(rng, r, func() store.Triple { return randomSchemaTriple(rng) })
			applyChecked(t, r, rules, events, adds, removes, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

// TestReasonRDFSSchedulesMatchReference is TestReasonMatchesReference for the
// rule set randomRules practically never draws: the RDFS rules, whose
// propagation rules skip their own conclusions in every propagation —
// initial, incremental and the re-propagation half of delete-and-rederive —
// over random schemas and random add/remove schedules.
func TestReasonRDFSSchedulesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1906))
	rules := RDFSRules()
	for trial := 0; trial < 40; trial++ {
		base := store.New()
		for i, n := 0, 4+rng.Intn(10); i < n; i++ {
			base.MustAdd(randomSchemaTriple(rng))
		}
		r, err := Materialize(base, rules)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, r, rules, fmt.Sprintf("trial %d: initial", trial))
		for step := 0; step < 8; step++ {
			if rng.Intn(2) == 0 {
				x := randomSchemaTriple(rng)
				if _, err := r.Add(x); err != nil {
					t.Fatal(err)
				}
				checkAgainstNaive(t, r, rules, fmt.Sprintf("trial %d step %d: after Add(%v)", trial, step, x))
			} else if asserted := base.Triples(); len(asserted) > 0 {
				x := asserted[rng.Intn(len(asserted))]
				r.Remove(x)
				checkAgainstNaive(t, r, rules, fmt.Sprintf("trial %d step %d: after Remove(%v)", trial, step, x))
			}
		}
	}
}
