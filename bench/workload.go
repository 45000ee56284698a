package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// op is one request of a workload's stream, with what the oracle needs to
// check its answer.
type op struct {
	kind  opKind
	body  []byte
	key   readKey // reads
	limit int     // reads; 0 = none

	changes        []change // writes
	added, removed int      // writes: the counts the response must carry
}

// workloadDef is one traffic mix. The op count of a run is fixed by
// opsPerSecond × -seconds, never by a timer: a run measures the same work
// every time, and only how long it took varies.
type workloadDef struct {
	name          string
	opsPerSecond  int     // nominal; sized so a phase lasts about -seconds on the reference box
	rate          float64 // open-loop send rate in ops/s; 0 = closed loop
	cacheMiB      int
	checkpointMiB int
	gen           func(c *corpus, rng *rand.Rand, n int) (warm, ops []op)
}

// connections is the number of client connections, each driven by one
// goroutine of the single harness process. With 2, a closed loop left the
// server idle between requests, and what a run measured was how dearly the
// (virtual) CPU sleeps and wakes: throughput and CPU per op moved by a fifth
// between runs of the same code. With 8 the server always has a request
// waiting and the same numbers repeat within a few percent.
const connections = 8

var workloads = []workloadDef{
	{
		name: "read_hot",
		// Zipf over 64 texts that fit the cache: the server's decode, cache
		// key, lookup and replay do the work; query, store, reason and
		// durable do none.
		opsPerSecond:  15000,
		cacheMiB:      256,
		checkpointMiB: 64,
		gen:           genReadHot,
	},
	{
		name: "read_cold",
		// A permutation over 11520 texts against a 4 MiB cache: every query
		// is parsed, planned and executed; query and store dominate.
		opsPerSecond:  1500,
		cacheMiB:      4,
		checkpointMiB: 64,
		gen:           genReadCold,
	},
	{
		name: "write_durable",
		// fsync=always adds, removes and 64-triple batches with 1 MiB
		// checkpoints: reason, durable and store writes dominate; the cache
		// is idle.
		opsPerSecond:  3000,
		cacheMiB:      256,
		checkpointMiB: 1,
		gen:           genWriteDurable,
	},
	{
		name: "mixed_open",
		// Open loop at 400 ops/s, 90% Zipf reads and 10% writes: the cache
		// is invalidated and refilled, scans run beside writers, the
		// reasoner's write lock meets readers.
		opsPerSecond:  400,
		rate:          400,
		cacheMiB:      256,
		checkpointMiB: 64,
		gen:           genMixedOpen,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Limits of the query shapes.
const (
	q1Limit = 100
	q3Limit = 500
)

// queryOp renders the query for key.
func queryOp(key readKey) op {
	class := className(int(key.class))
	var bgp string
	limit := 0
	switch key.kind {
	case opQ1:
		bgp, limit = "?x type "+class, q1Limit
	case opQ2:
		bgp = "?x type " + class + " . ?x locatedIn " + siteName(int(key.arg))
	case opQ3:
		bgp, limit = "?x type "+class+" . ?x locatedIn ?s . ?s partOf "+regionName(int(key.arg)), q3Limit
	case opQ4:
		bgp = "?s partOf " + regionName(int(key.arg))
	}
	body := `{"bgp":"` + bgp + `","mode":"materialized"`
	if limit > 0 {
		body += `,"limit":` + strconv.Itoa(limit)
	}
	body += "}"
	return op{kind: key.kind, body: []byte(body), key: key, limit: limit}
}

// rankedTexts builds n distinct query texts for a Zipf-ranked population.
// What a text costs — its shape, and its class, on whose subtree the result
// size depends — is fixed by its rank and not by the seed: under Zipf(1.1)
// the first few ranks carry most of the traffic, and letting the seed decide
// whether rank 0 is a 30 KB or a 300 B answer would make two seeds two
// workloads. The seed picks what does not change the cost: the site of a
// Q2, the region of a Q3.
func rankedTexts(sp corpusSpec, rng *rand.Rand, n int, shape func(rank int) opKind) []op {
	seen := map[readKey]bool{}
	texts := make([]op, 0, n)
	next := map[opKind]int{} // texts of each shape so far
	for rank := 0; rank < n; rank++ {
		kind := shape(rank)
		i := next[kind]
		next[kind]++
		k := readKey{kind: kind}
		switch kind {
		case opQ4:
			k.arg = uint8(i % sp.Regions)
		case opQ1:
			k.class = uint8(i % sp.Classes)
		default:
			// 7 is coprime to the class count, so consecutive texts of a
			// shape walk all classes before repeating one.
			k.class = uint8((i * 7) % sp.Classes)
			args := sp.Sites
			if kind == opQ3 {
				args = sp.Regions
			}
			for k.arg = uint8(rng.Intn(args)); seen[k]; {
				k.arg = uint8(rng.Intn(args))
			}
		}
		seen[k] = true
		texts = append(texts, queryOp(k))
	}
	return texts
}

// zipfDeck returns n ranks below m in a seeded order. Every rank occurs as
// often as Zipf(1.1) expects it to among n draws (rounded by largest
// remainder), not as often as n random draws happen to produce it: the
// seed decides the order of a run's requests and never how many of them are
// the expensive ones, so two seeds do the same work.
func zipfDeck(rng *rand.Rand, m, n int) []int {
	weights := make([]float64, m)
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -1.1)
		total += weights[r]
	}
	deck := make([]int, 0, n)
	type rest struct {
		rank int
		frac float64
	}
	rests := make([]rest, m)
	for r, w := range weights {
		want := float64(n) * w / total
		whole := int(want)
		for k := 0; k < whole; k++ {
			deck = append(deck, r)
		}
		rests[r] = rest{r, want - float64(whole)}
	}
	sort.SliceStable(rests, func(i, j int) bool { return rests[i].frac > rests[j].frac })
	for i := 0; len(deck) < n; i++ {
		deck = append(deck, rests[i].rank)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// mixDeck returns n picks among len(shares) kinds in a seeded order: every
// block of sum(shares) consecutive picks holds kind k exactly shares[k]
// times, for the same reason zipfDeck deals exact counts.
func mixDeck(rng *rand.Rand, n int, shares ...int) []int {
	var block []int
	for kind, share := range shares {
		for k := 0; k < share; k++ {
			block = append(block, kind)
		}
	}
	deck := make([]int, 0, n+len(block))
	for len(deck) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		deck = append(deck, block...)
	}
	return deck[:n]
}

// genReadHot: 64 distinct texts cycling Q1, Q2, Q3 by rank, each issued once
// in warm-up.
func genReadHot(c *corpus, rng *rand.Rand, n int) (warm, ops []op) {
	texts := rankedTexts(c.spec, rng, 64, func(rank int) opKind { return [3]opKind{opQ1, opQ2, opQ3}[rank%3] })
	ops = make([]op, n)
	for i, rank := range zipfDeck(rng, len(texts), n) {
		ops[i] = texts[rank]
	}
	return texts, ops
}

// genReadCold: every Q2 and Q3 text of the corpus, walked cyclically in one
// order, so a text recurs only after the whole population — far more result
// bytes than the cache holds — has passed. The seed shuffles the order, but
// only within the part of the population that the last, partial pass covers
// and within the rest: which texts a run asks once more than the others is
// the same on every seed.
func genReadCold(c *corpus, rng *rand.Rand, n int) (warm, ops []op) {
	sp := c.spec
	var texts []op
	for class := 0; class < sp.Classes; class++ {
		for s := 0; s < sp.Sites; s++ {
			texts = append(texts, queryOp(readKey{kind: opQ2, class: uint8(class), arg: uint8(s)}))
		}
		for r := 0; r < sp.Regions; r++ {
			texts = append(texts, queryOp(readKey{kind: opQ3, class: uint8(class), arg: uint8(r)}))
		}
	}
	fixed := rand.New(rand.NewSource(hierarchySeed))
	fixed.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	for _, part := range [][]op{texts[:n%len(texts)], texts[n%len(texts):]} {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	ops = make([]op, n)
	for i := range ops {
		ops[i] = texts[i%len(texts)]
	}
	// Warm-up only opens the connections and grows the server's buffers: the
	// texts it uses are the last the cycle reaches again.
	for i := 0; i < 64; i++ {
		warm = append(warm, texts[len(texts)-1-i])
	}
	return warm, ops
}

// overlapWindow is how many writes must pass before the stream touches the
// same instance again. Ops are handed to the connections in stream order, so
// two writes this far apart are in flight together only if one of them
// outlasts 56 others; short of that, the before-state the generator computed
// for a write is the state the server holds when the write arrives.
const overlapWindow = 64

// sim is the generator's own sequential model of instance states, from which
// it knows what each write must remove and what the server must report.
type sim struct {
	c      *corpus
	rng    *rand.Rand
	mod    map[int]*instState // states that differ from the default; nil = removed
	next   int                // next fresh instance id
	live   []int              // fresh instances not yet removed, oldest first
	writes int                // writes generated so far
	last   map[int]int        // instance → number of the last write that touched it
}

func newSim(c *corpus, rng *rand.Rand) *sim {
	return &sim{c: c, rng: rng, mod: map[int]*instState{}, next: c.spec.total(), last: map[int]int{}}
}

func (s *sim) state(i int) *instState {
	if st, ok := s.mod[i]; ok {
		return st
	}
	if i < s.c.spec.total() {
		return defaultState(s.c.spec, i)
	}
	return nil
}

// touched reports whether one of the last overlapWindow writes touched
// instance i.
func (s *sim) touched(i int) bool {
	w, ok := s.last[i]
	return ok && s.writes-w < overlapWindow
}

// touch records the instances of one write.
func (s *sim) touch(insts ...int) {
	for _, i := range insts {
		s.last[i] = s.writes
	}
	s.writes++
}

// writeBody accumulates the JSON of one POST /triples.
type writeBody struct {
	add, remove []byte
}

func appendTriple(b []byte, subject, predicate, object string) []byte {
	if len(b) > 0 {
		b = append(b, ',')
	}
	b = append(b, `{"subject":"`...)
	b = append(b, subject...)
	b = append(b, `","predicate":"`...)
	b = append(b, predicate...)
	b = append(b, `","object":"`...)
	b = append(b, object...)
	return append(b, `"}`...)
}

func (w *writeBody) bytes() []byte {
	out := []byte("{")
	if len(w.add) > 0 {
		out = append(out, `"add":[`...)
		out = append(out, w.add...)
		out = append(out, ']')
	}
	if len(w.remove) > 0 {
		if len(w.add) > 0 {
			out = append(out, ',')
		}
		out = append(out, `"remove":[`...)
		out = append(out, w.remove...)
		out = append(out, ']')
	}
	return append(out, '}')
}

// stateTriples appends every asserted triple of st to b.
func stateTriples(b []byte, inst int, st *instState) []byte {
	name := instName(inst)
	for _, t := range st.types {
		b = appendTriple(b, name, "type", className(int(t)))
	}
	for _, site := range st.sites {
		b = appendTriple(b, name, predLocatedIn, siteName(int(site)))
	}
	for _, tag := range st.tags {
		b = appendTriple(b, name, predTag, tagName(int(tag)))
	}
	return b
}

// fresh invents an instance of k triples: a type, then a site, then
// alternately a further type and a tag.
func (s *sim) fresh(k int) (int, *instState) {
	sp := s.c.spec
	st := &instState{types: []uint8{uint8(s.rng.Intn(sp.Classes))}}
	if k >= 2 {
		st.sites = []uint8{uint8(s.rng.Intn(sp.Sites))}
	}
	for j := 3; j <= k; j++ {
		if j%2 == 1 {
			t := uint8(s.rng.Intn(sp.Classes))
			for containsU8(st.types, t) {
				t = uint8(s.rng.Intn(sp.Classes))
			}
			st.types = append(st.types, t)
		} else {
			tag := uint16(s.rng.Intn(1000))
			for containsU16(st.tags, tag) {
				tag = uint16(s.rng.Intn(1000))
			}
			st.tags = append(st.tags, tag)
		}
	}
	id := s.next
	s.next++
	s.mod[id] = st
	s.live = append(s.live, id)
	return id, st
}

func containsU8(xs []uint8, x uint8) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsU16(xs []uint16, x uint16) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// addFresh is a write asserting count new instances of k triples each.
func (s *sim) addFresh(count, k int) op {
	var w writeBody
	o := op{kind: opWrite}
	insts := make([]int, 0, count)
	for i := 0; i < count; i++ {
		id, st := s.fresh(k)
		w.add = stateTriples(w.add, id, st)
		o.changes = append(o.changes, change{inst: id, mid: st, after: st})
		o.added += st.triples()
		insts = append(insts, id)
	}
	s.touch(insts...)
	o.body = w.bytes()
	return o
}

// removeOld is a write retracting every triple of a fresh instance added at
// least overlapWindow writes ago; ok is false while there is none.
func (s *sim) removeOld() (op, bool) {
	// live is in the order of the adding writes, so the instances still too
	// fresh to touch again are its tail.
	eligible := len(s.live)
	for eligible > 0 && s.touched(s.live[eligible-1]) {
		eligible--
	}
	if eligible == 0 {
		return op{}, false
	}
	at := s.rng.Intn(eligible)
	id := s.live[at]
	s.live = append(s.live[:at], s.live[at+1:]...)
	st := s.mod[id]
	var w writeBody
	w.remove = stateTriples(nil, id, st)
	s.mod[id] = nil
	s.touch(id)
	return op{
		kind:    opWrite,
		body:    w.bytes(),
		changes: []change{{inst: id, before: st, mid: st, removes: true}},
		removed: st.triples(),
	}, true
}

// pickCorpusInstance draws a recovered-corpus instance no recent write
// touched.
func (s *sim) pickCorpusInstance() int {
	for {
		i := s.rng.Intn(s.c.spec.total())
		if !s.touched(i) {
			return i
		}
	}
}

// moveSite is a write replacing an instance's site: touches locatedIn only.
func (s *sim) moveSite() op {
	i := s.pickCorpusInstance()
	before := s.state(i)
	site := uint8(s.rng.Intn(s.c.spec.Sites))
	for containsU8(before.sites, site) {
		site = uint8(s.rng.Intn(s.c.spec.Sites))
	}
	mid := &instState{types: before.types, sites: append(append([]uint8(nil), before.sites...), site)}
	after := &instState{types: before.types, sites: mid.sites[1:]}
	var w writeBody
	name := instName(i)
	w.add = appendTriple(nil, name, predLocatedIn, siteName(int(site)))
	w.remove = appendTriple(nil, name, predLocatedIn, siteName(int(before.sites[0])))
	s.mod[i] = after
	s.touch(i)
	return op{kind: opWrite, body: w.bytes(), added: 1, removed: 1,
		changes: []change{{inst: i, before: before, mid: mid, after: after, removes: true}}}
}

// retype is a write replacing an instance's asserted class: touches type
// only.
func (s *sim) retype() op {
	i := s.pickCorpusInstance()
	before := s.state(i)
	class := uint8(s.rng.Intn(s.c.spec.Classes))
	for containsU8(before.types, class) {
		class = uint8(s.rng.Intn(s.c.spec.Classes))
	}
	mid := &instState{sites: before.sites, types: append(append([]uint8(nil), before.types...), class)}
	after := &instState{sites: before.sites, types: mid.types[1:]}
	var w writeBody
	name := instName(i)
	w.add = appendTriple(nil, name, "type", className(int(class)))
	w.remove = appendTriple(nil, name, "type", className(int(before.types[0])))
	s.mod[i] = after
	s.touch(i)
	return op{kind: opWrite, body: w.bytes(), added: 1, removed: 1,
		changes: []change{{inst: i, before: before, mid: mid, after: after, removes: true}}}
}

// genWriteDurable: of every ten writes, seven add a fresh instance of 1–8
// triples, two remove an instance added earlier, one adds 32 instances in a
// 64-triple batch.
func genWriteDurable(c *corpus, rng *rand.Rand, n int) (warm, ops []op) {
	s := newSim(c, rng)
	ops = make([]op, 0, n)
	sizes := mixDeck(rng, n, 1, 1, 1, 1, 1, 1, 1, 1) // triples per fresh instance, minus one
	for _, kind := range mixDeck(rng, n, 7, 2, 1) {
		o, ok := op{}, false
		switch kind {
		case 1:
			o, ok = s.removeOld()
		case 2:
			o, ok = s.addFresh(32, 2), true
		}
		if !ok { // an add, or a remove while nothing is old enough to go
			o = s.addFresh(1, 1+sizes[0])
			sizes = sizes[1:]
		}
		ops = append(ops, o)
	}
	for r := 0; r < 64; r++ {
		warm = append(warm, queryOp(readKey{kind: opQ4, arg: uint8(r % c.spec.Regions)}))
	}
	return warm, ops
}

// mixedTexts is the read population of mixed_open.
const mixedTexts = 2000

// genMixedOpen: of every twenty ops, eighteen are reads, Zipf(1.1) over
// mixedTexts texts (every Q4 and Q1 text, 600 Q3, the rest Q2, interleaved
// by rank), one moves an instance to another site and one changes an
// instance's type.
func genMixedOpen(c *corpus, rng *rand.Rand, n int) (warm, ops []op) {
	sp := c.spec
	left := map[opKind]int{opQ4: sp.Regions, opQ1: sp.Classes, opQ3: 600}
	texts := rankedTexts(sp, rng, mixedTexts, func(rank int) opKind {
		// Ranks cycle Q4, Q1, Q3, Q2; a shape whose share is used up
		// yields its turns to Q2.
		kind := [4]opKind{opQ4, opQ1, opQ3, opQ2}[rank%4]
		if kind == opQ2 || left[kind] == 0 {
			return opQ2
		}
		left[kind]--
		return kind
	})
	s := newSim(c, rng)
	kinds := mixDeck(rng, n, 18, 1, 1)
	nreads := 0
	for _, kind := range kinds {
		if kind == 0 {
			nreads++
		}
	}
	reads := zipfDeck(rng, len(texts), nreads)
	ops = make([]op, n)
	for i := range ops {
		switch kinds[i] {
		case 1:
			ops[i] = s.moveSite()
		case 2:
			ops[i] = s.retype()
		default:
			ops[i] = texts[reads[0]]
			reads = reads[1:]
		}
	}
	return texts, ops
}
