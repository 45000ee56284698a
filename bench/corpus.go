package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/reason"
	"repro/internal/store"
	"repro/internal/workload"
)

// corpusSpec fixes the shape of the served corpus. It never depends on the
// run's -seed: the seed drives the request stream only, so every run of a
// checkout recovers the same golden data directory.
type corpusSpec struct {
	Name       string
	Instances  int // loaded from the annotation snapshot on the pristine boot
	Tail       int // further instances posted after the checkpoint, left in the WAL tail
	Classes    int
	MaxParents int
	Sites      int
	Regions    int
}

var (
	serving1e5 = corpusSpec{Name: "serving-1e5", Instances: 100_000, Tail: 2_000, Classes: 120, MaxParents: 2, Sites: 89, Regions: 7}
	smoke1e4   = corpusSpec{Name: "smoke-1e4", Instances: 10_000, Tail: 200, Classes: 120, MaxParents: 2, Sites: 89, Regions: 7}
)

// hierarchySeed seeds the class hierarchy; a constant, so the corpus is one
// fixed input and not a function of the run seed.
const hierarchySeed = 20060326

// Predicates of the corpus beyond the reasoner's own vocabulary.
const (
	predLocatedIn = "locatedIn"
	predPartOf    = "partOf"
	predTag       = "tag"
)

// corpus is the generated input plus the index the oracle needs: which
// classes each class's instances also belong to.
type corpus struct {
	spec   corpusSpec
	schema []store.Triple // subClassOf closure + property axioms + site/region facts
	// isAnc[c][a] reports that class a subsumes class c (a == c included):
	// an instance asserted as c answers "?x type a" in materialized mode.
	isAnc [][]bool
	// anc[c] lists the a with isAnc[c][a].
	anc [][]uint8
}

func className(c int) string  { return workload.ClassName(c) }
func siteName(s int) string   { return "site-" + strconv.Itoa(s) }
func regionName(r int) string { return "region-" + strconv.Itoa(r) }
func instName(i int) string   { return "inst-" + strconv.Itoa(i) }
func tagName(t int) string    { return "tag-" + strconv.Itoa(t) }

// defaultClass, defaultSite and regionOf are the corpus's assignment rules:
// classes round-robin, sites spread so every class×site pair is populated.
func (s corpusSpec) defaultClass(i int) int { return i % s.Classes }
func (s corpusSpec) defaultSite(i int) int  { return (i*37 + i/s.Sites) % s.Sites }
func (s corpusSpec) regionOf(site int) int  { return site % s.Regions }

// total is the number of instances in a recovered golden directory.
func (s corpusSpec) total() int { return s.Instances + s.Tail }

func newCorpus(spec corpusSpec) (*corpus, error) {
	if spec.Classes > 255 || spec.Sites > 255 || spec.Regions > 255 {
		return nil, fmt.Errorf("corpus %s: class, site and region indexes are stored in a byte", spec.Name)
	}
	tb := workload.RandomHierarchyTBox(rand.New(rand.NewSource(hierarchySeed)),
		workload.HierarchyParams{Classes: spec.Classes, MaxParents: spec.MaxParents})
	oi, err := store.NewOntologyIndex(tb)
	if err != nil {
		return nil, fmt.Errorf("classifying the corpus hierarchy: %w", err)
	}
	c := &corpus{spec: spec}
	index := make(map[string]int, spec.Classes)
	for i := 0; i < spec.Classes; i++ {
		index[className(i)] = i
	}
	c.isAnc = make([][]bool, spec.Classes)
	c.anc = make([][]uint8, spec.Classes)
	for i := 0; i < spec.Classes; i++ {
		c.isAnc[i] = make([]bool, spec.Classes)
		for _, sup := range oi.Subsumers(className(i)) {
			a, ok := index[sup]
			if !ok {
				continue // primitive markers are not classes of the corpus
			}
			c.isAnc[i][a] = true
		}
		c.isAnc[i][i] = true
		for a, yes := range c.isAnc[i] {
			if yes {
				c.anc[i] = append(c.anc[i], uint8(a))
			}
		}
	}

	// The subClassOf closure, then axioms chosen so that each of the six
	// RDFS rules derives something: locatedIn ⊑ within (property
	// propagation, once per instance), partOf ⊑ containedIn ⊑ within
	// (subPropertyOf transitivity), range and domain typing of sites.
	c.schema = append(c.schema, reason.OntologyTriples(oi)...)
	c.schema = append(c.schema,
		store.Triple{Subject: predLocatedIn, Predicate: reason.SubPropertyOfPredicate, Object: "within"},
		store.Triple{Subject: predLocatedIn, Predicate: reason.RangePredicate, Object: "Site"},
		store.Triple{Subject: predPartOf, Predicate: reason.SubPropertyOfPredicate, Object: "containedIn"},
		store.Triple{Subject: "containedIn", Predicate: reason.SubPropertyOfPredicate, Object: "within"},
		store.Triple{Subject: predPartOf, Predicate: reason.DomainPredicate, Object: "Site"},
	)
	for s := 0; s < spec.Sites; s++ {
		c.schema = append(c.schema, store.Triple{Subject: siteName(s), Predicate: predPartOf, Object: regionName(spec.regionOf(s))})
	}
	return c, nil
}

// instanceTriples is the asserted form of a corpus instance in its default
// state.
func (c *corpus) instanceTriples(i int) [2]store.Triple {
	name := instName(i)
	return [2]store.Triple{
		{Subject: name, Predicate: store.TypePredicate, Object: className(c.spec.defaultClass(i))},
		{Subject: name, Predicate: predLocatedIn, Object: siteName(c.spec.defaultSite(i))},
	}
}

// asserted is the asserted triple count of a store holding the schema and
// the first n instances.
func (c *corpus) asserted(n int) int { return len(c.schema) + 2*n }

// writeSnapshot writes the schema and the first spec.Instances instances in
// the store's snapshot format (one JSON triple per line), the file
// ontoserve -annotations loads on the pristine boot.
func (c *corpus) writeSnapshot(path string) error {
	return writeJSONLines(path, func(enc *json.Encoder) error {
		for _, t := range c.schema {
			if err := enc.Encode(t); err != nil {
				return err
			}
		}
		for i := 0; i < c.spec.Instances; i++ {
			for _, t := range c.instanceTriples(i) {
				if err := enc.Encode(t); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
