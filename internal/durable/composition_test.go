package durable_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/server"
	"repro/internal/store"
)

// This file is the composition rig: one server (server.New) over one engine
// on the memory disk under FsyncAlways, stepped through its Handler by a
// schedule of writes, queries, checkpoints, merges and crashes, and held
// after every step to the model (internal/model). The chain it checks is the
// whole write path — mutation, reasoner, log, cache, crash, recovery:
//
//   - every /triples response's counts are the model's, and the server then
//     holds the model's asserted set, its closure and its generation;
//   - every /query answer whose trailer names a generation equals the
//     model's answer at that generation of this incarnation — and, when it
//     came from the cache, at the current one too, which a missed
//     invalidation fails;
//   - a crash keeps every acknowledged write, and of the write in flight
//     either all or nothing.
//
// A failing schedule shrinks to a minimal one, printed as a literal that
// composedReplays can hold.

// step is one event of a schedule; each kind reads the fields it names.
type step struct {
	kind   string   // "write", "query", "checkpoint", "merge" or "crash"
	add    []string // write, crash: the body's adds, each "s p o"
	remove []string // write, crash: the body's removes
	bgp    string   // query
	mode   string   // query: server.ModeMaterialized, ModeExpand or ModePlain
	// cached asks under the default limit, whose answer an earlier query may
	// have cached (asking twice if it had not); otherwise the query asks
	// under a limit no earlier query used, which no entry can answer.
	cached bool
	// at is where a crash lands: 0 between steps, k > 0 at the k-th disk
	// operation of the crash's own write (its add and remove).
	at   int
	pick int // crash: which of the images the crash may leave is reopened
}

// literal renders the step as a Go composite literal.
func (s step) literal() string {
	parts := []string{fmt.Sprintf("kind: %q", s.kind)}
	if len(s.add) > 0 {
		parts = append(parts, fmt.Sprintf("add: %#v", s.add))
	}
	if len(s.remove) > 0 {
		parts = append(parts, fmt.Sprintf("remove: %#v", s.remove))
	}
	if s.kind == "query" {
		parts = append(parts, fmt.Sprintf("bgp: %q, mode: %q, cached: %v", s.bgp, s.mode, s.cached))
	}
	if s.kind == "crash" {
		parts = append(parts, fmt.Sprintf("at: %d, pick: %d", s.at, s.pick))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// literal renders a schedule as a Go composite literal.
func literal(steps []step) string {
	var b strings.Builder
	b.WriteString("{\n")
	for _, s := range steps {
		b.WriteString("\t" + s.literal() + ",\n")
	}
	b.WriteString("}")
	return b.String()
}

// The rig's vocabulary: a three-level class hierarchy with a side branch,
// two properties, and instances, so that the RDFS rules derive on most
// writes and a write often asserts what was inferred or retracts what stays
// derivable.
var (
	rigInstances  = []string{"i0", "i1", "i2", "i3"}
	rigClasses    = []string{"c0", "c1", "c2", "c3", "c4"}
	rigProperties = []string{"p0", "p1"}
	// rigCorpus is the first write of every incarnation-0 server.
	rigCorpus = []string{
		"c1 subClassOf c0", "c2 subClassOf c1", "c3 subClassOf c0",
		"p1 subPropertyOf p0", "p0 domain c3", "p1 range c4",
		"i0 type c2", "i1 p1 i2",
	}
	// rigQueries are the BGPs queries draw from: class retrievals expand
	// rewrites, joins through the schema, and a variable predicate.
	rigQueries = []string{
		"?x type c0", "?x type c1", "?x type c3", "?x p0 ?y",
		"?x type ?c . ?c subClassOf c0", "?x p1 ?y . ?y type c4",
		"?c subClassOf ?d", "?s ?p ?o",
	}
	rigModes = []string{server.ModeMaterialized, server.ModeExpand, server.ModePlain}
)

// rigTriple draws one triple of the vocabulary: half class memberships, a
// quarter property edges, a quarter schema.
func rigTriple(rng *rand.Rand) string {
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	switch r := rng.Intn(8); {
	case r < 4:
		return pick(rigInstances) + " type " + pick(rigClasses)
	case r < 6:
		return pick(rigInstances) + " " + pick(rigProperties) + " " + pick(rigInstances)
	case r == 6:
		return pick(rigClasses) + " subClassOf " + pick(rigClasses)
	default:
		return pick(rigProperties) + " " + pick([]string{"subPropertyOf", "domain", "range"}) + " " + pick(append(rigClasses, rigProperties...))
	}
}

// rigWrite draws a two-sided write body, now and then naming one triple on
// both sides. A third of the bodies only remove: their deltas add nothing,
// so only the removals can invalidate what they stale.
func rigWrite(rng *rand.Rand) step {
	s := step{kind: "write"}
	for i, n := 0, rng.Intn(5)*min(rng.Intn(3), 1); i < n; i++ {
		s.add = append(s.add, rigTriple(rng))
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.remove = append(s.remove, rigTriple(rng))
	}
	if both := rigTriple(rng); rng.Intn(4) == 0 || len(s.add)+len(s.remove) == 0 {
		s.add, s.remove = append(s.add, both), append(s.remove, both)
	}
	return s
}

// rigQuery draws a query. A cached one mostly repeats the BGP of the last
// query in its mode, so that it meets that query's entry, or its absence,
// after the writes between them.
func rigQuery(rng *rand.Rand, mode string, cached bool, last map[string]string) step {
	s := step{kind: "query", bgp: rigQueries[rng.Intn(len(rigQueries))], mode: mode, cached: cached}
	if bgp, ok := last[mode]; ok && cached && rng.Intn(4) > 0 {
		s.bgp = bgp
	}
	last[mode] = s.bgp
	return s
}

// rigCrash draws a crash: between steps, or at the first or second disk
// operation of a write — the log write or its fsync — whose adds include a
// fresh instance, so that it journals.
func rigCrash(rng *rand.Rand, midWrite bool, fresh string) step {
	s := step{kind: "crash", pick: rng.Intn(1 << 10)}
	if midWrite {
		w := rigWrite(rng)
		s.add, s.remove, s.at = append(w.add, fresh+" type c2"), w.remove, 1+rng.Intn(2)
	}
	return s
}

// schedule draws n steps from seed. Every step kind is among them, as are a
// provenance flip each way — a fresh instance typed c2, then asserted in c0,
// which was inferred, then retracted from c0, where it stays inferred — two
// checkpoints before a merge, and a stale probe: four steps in a row that
// cache an answer, retract a row of it with a write that adds nothing, and
// ask again. n is raised to fit them.
func schedule(seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	fresh := 0
	freshName := func() string { fresh++; return fmt.Sprintf("f%d", fresh) }
	flip, probe := freshName(), freshName()
	required := []step{
		{kind: "write", add: []string{flip + " type c2"}},
		{kind: "write", add: []string{flip + " type c0"}},
		{kind: "write", remove: []string{flip + " type c0"}},
		{kind: "checkpoint"}, {kind: "checkpoint"}, {kind: "merge"},
		rigCrash(rng, false, ""), rigCrash(rng, true, freshName()),
	}
	last := map[string]string{}
	for _, mode := range rigModes {
		required = append(required, rigQuery(rng, mode, true, last), rigQuery(rng, mode, false, last))
	}
	asked := step{kind: "query", bgp: "?x type c3", mode: rigModes[rng.Intn(len(rigModes))], cached: true}
	block := []step{
		{kind: "write", add: []string{probe + " type c3"}}, asked,
		{kind: "write", remove: []string{probe + " type c3"}}, asked,
	}
	n = max(n, len(required)+len(block))
	steps := make([]step, n)
	for i := range steps {
		switch r := rng.Intn(100); {
		case r < 40:
			steps[i] = rigWrite(rng)
		case r < 75:
			steps[i] = rigQuery(rng, rigModes[rng.Intn(len(rigModes))], rng.Intn(2) == 0, last)
		case r < 83:
			steps[i] = step{kind: "checkpoint"}
		case r < 88:
			steps[i] = step{kind: "merge"}
		default:
			steps[i] = rigCrash(rng, rng.Intn(2) == 0, freshName())
		}
	}
	// The block overwrites consecutive steps and the other required steps
	// random positions elsewhere; the flip's three writes and the
	// checkpoints before the merge keep their order.
	start := rng.Intn(n - len(block) + 1)
	copy(steps[start:], block)
	var at []int
	for _, i := range rng.Perm(n - len(block))[:len(required)] {
		if i >= start {
			i += len(block)
		}
		at = append(at, i)
	}
	for _, group := range [][]int{{0, 1, 2}, {3, 4, 5}} {
		var slots []int
		for _, g := range group {
			slots = append(slots, at[g])
		}
		sort.Ints(slots)
		for i, g := range group {
			at[g] = slots[i]
		}
	}
	for i, s := range required {
		steps[at[i]] = s
	}
	return steps
}

// rigOptions are the engine's options in every incarnation: no automatic
// checkpoints, so checkpoints happen at the schedule's steps only.
var rigOptions = durable.Options{Fsync: durable.FsyncAlways, CheckpointBytes: -1}

// rigImages bounds the images drawn at a crash.
const rigImages = 8

// errCrashed fails every disk operation from a mid-write crash on.
var errCrashed = errors.New("crashed")

// rig is one server run under a schedule, with the model it is held to.
type rig struct {
	disk   *durable.MemDisk
	eng    *durable.Engine
	base   *store.Store
	srv    *server.Server
	ledger *model.Ledger
	rules  []model.Rule
	// closures caches the closure of each state the ledger served.
	closures map[model.Key]model.Set
	limits   int // fresh limits handed out so far
	// tally counts the steps by kind and the events the checks saw.
	tally map[string]int
}

// newRig boots a server over a new data directory and asserts rigCorpus.
func newRig() (*rig, error) {
	r := &rig{rules: modelRules(reason.RDFSRules()), closures: map[model.Key]model.Set{}, tally: map[string]int{}}
	if err := r.open(durable.NewMemDisk()); err != nil {
		return nil, err
	}
	r.ledger = model.NewLedger(model.Set{}, r.srv.Reasoner().Generation())
	if err := r.write(step{kind: "write", add: rigCorpus}); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close releases the current incarnation's engine. Its error is dropped:
// after a crash in a write the disk refuses every operation, and the next
// incarnation opens an image taken before that.
func (r *rig) close() { r.eng.Close() }

// modelPattern converts a pattern to the model's.
func modelPattern(p query.TriplePattern) model.Pattern {
	return model.Pattern{Subject: model.Term(p.Subject), Predicate: model.Term(p.Predicate), Object: model.Term(p.Object)}
}

// modelRules converts rules to the model's.
func modelRules(rules []reason.Rule) []model.Rule {
	out := make([]model.Rule, len(rules))
	for i, r := range rules {
		out[i].Head = modelPattern(r.Head)
		for _, p := range r.Body {
			out[i].Body = append(out[i].Body, modelPattern(p))
		}
	}
	return out
}

// open starts an incarnation: an engine over d, which recovers it, and a
// server over that.
func (r *rig) open(d *durable.MemDisk) error {
	base := store.New()
	eng, err := d.Open(base, rigOptions)
	if err != nil {
		return fmt.Errorf("opening the data directory: %w", err)
	}
	srv, err := server.New(server.Config{Base: base, Durable: eng})
	if err != nil {
		eng.Close()
		return err
	}
	r.disk, r.eng, r.base, r.srv = d, eng, base, srv
	return nil
}

// do sends one request through the handler and returns the status and body.
func (r *rig) do(method, path string, body any) (int, []byte) {
	var buf bytes.Buffer
	if body != nil {
		_ = json.NewEncoder(&buf).Encode(body)
	}
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec.Code, rec.Body.Bytes()
}

// closure returns the closure of the asserted set served at k.
func (r *rig) closure(k model.Key) model.Set {
	c, ok := r.closures[k]
	if !ok {
		asserted, _ := r.ledger.State(k)
		c = asserted.Closure(r.rules)
		r.closures[k] = c
	}
	return c
}

// parseTriples reads "s p o" texts.
func parseTriples(texts []string) []model.Triple {
	var out []model.Triple
	for _, text := range texts {
		f := strings.Fields(text)
		out = append(out, model.Triple{Subject: f[0], Predicate: f[1], Object: f[2]})
	}
	return out
}

// body is the /triples request of a write or crash step.
func (s step) body() server.MutateRequest {
	var req server.MutateRequest
	for _, t := range parseTriples(s.add) {
		req.Add = append(req.Add, server.TripleJSON(t))
	}
	for _, t := range parseTriples(s.remove) {
		req.Remove = append(req.Remove, server.TripleJSON(t))
	}
	return req
}

// run performs one step and checks the server against the model.
func (r *rig) run(s step) error {
	name := s.kind
	var err error
	switch s.kind {
	case "write":
		err = r.write(s)
	case "query":
		name = fmt.Sprintf("query %s %s", s.mode, map[bool]string{true: "cached", false: "uncached"}[s.cached])
		err = r.query(s)
	case "checkpoint":
		if code, body := r.do(http.MethodPost, "/checkpoint", nil); code != http.StatusOK {
			err = fmt.Errorf("/checkpoint = %d %s", code, body)
		}
	case "merge":
		if r.eng.Stats().Segments >= 2 {
			r.tally["merges that folded segments"]++
		}
		err = r.eng.Merge(0)
	case "crash":
		name = "crash between steps"
		if s.at > 0 {
			name = "crash in a write"
		}
		err = r.crash(s)
	default:
		err = fmt.Errorf("unknown step kind %q", s.kind)
	}
	r.tally[name]++
	if err != nil {
		return err
	}
	return r.check()
}

// write posts the step's body, which must be acknowledged.
func (r *rig) write(s step) error {
	r.ledger.Send(model.Write{Add: parseTriples(s.add), Remove: parseTriples(s.remove)})
	code, body := r.do(http.MethodPost, "/triples", s.body())
	if code != http.StatusOK {
		return fmt.Errorf("/triples %v = %d %s", s.body(), code, body)
	}
	return r.acked(s, body)
}

// acked holds the acknowledgement body of the oldest write in flight to the
// model's counts, and tallies the provenance flips and same-body pairs it
// made.
func (r *rig) acked(s step, body []byte) error {
	before := r.closure(r.ledger.At())
	added, removed := r.ledger.Ack()
	after := r.closure(r.ledger.At())
	asserted := len(r.ledger.Acked())
	want := server.MutateResponse{Added: len(added), Removed: len(removed), Asserted: asserted, Inferred: len(after) - asserted}
	var got server.MutateResponse
	if err := json.Unmarshal(body, &got); err != nil || got != want {
		return fmt.Errorf("/triples %v answered %s; the model says %+v", s.body(), body, want)
	}
	for _, t := range added {
		if before[t] {
			r.tally["flips inferred → asserted"]++
		}
	}
	for _, t := range removed {
		if after[t] {
			r.tally["flips asserted → inferred"]++
		}
	}
	for _, t := range s.add {
		if slices.Contains(s.remove, t) {
			r.tally["triples added and removed by one body"]++
		}
	}
	return nil
}

// query asks the step's BGP and checks every answer.
func (r *rig) query(s step) error {
	req := server.QueryRequest{BGP: s.bgp, Mode: s.mode}
	if !s.cached {
		r.limits++
		req.Limit = 1000 + r.limits
	}
	cached, err := r.answer(req)
	if err != nil || cached || !s.cached {
		if err == nil && cached && !s.cached {
			err = fmt.Errorf("/query %+v under a fresh limit came from the cache", req)
		}
		return err
	}
	// Nothing ran between the two: the first answer is now in the cache.
	if cached, err = r.answer(req); err == nil && !cached {
		err = fmt.Errorf("/query %+v asked twice in a row was evaluated twice", req)
	}
	return err
}

// answer posts one /query and holds its rows to the model at the generation
// its trailer names, and at the current one when it came from the cache;
// answers that name no generation are only counted.
func (r *rig) answer(req server.QueryRequest) (cached bool, err error) {
	code, body := r.do(http.MethodPost, "/query", req)
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var trailer server.QueryTrailer
	if code != http.StatusOK || len(lines) < 2 || json.Unmarshal(lines[len(lines)-1], &trailer) != nil || !trailer.Done {
		return false, fmt.Errorf("/query %+v = %d %s", req, code, body)
	}
	if trailer.Error != "" || trailer.Truncated {
		return false, fmt.Errorf("/query %+v ended early: %s", req, body)
	}
	var rows []string
	for _, line := range lines[1 : len(lines)-1] {
		var row server.QueryRow
		if err := json.Unmarshal(line, &row); err != nil {
			return false, fmt.Errorf("/query %+v: row %s: %v", req, line, err)
		}
		rows = append(rows, model.Binding(row.Bind).String())
	}
	sort.Strings(rows)
	if trailer.Cached {
		r.tally["answers from the cache"]++
		if trailer.Generation != nil && *trailer.Generation != r.ledger.At().Generation {
			r.tally["answers from the cache that outlived a write"]++
		}
	}
	if trailer.Generation == nil {
		r.tally["answers without a generation"]++
		return trailer.Cached, nil
	}
	keys := []model.Key{{Incarnation: r.ledger.At().Incarnation, Generation: *trailer.Generation}}
	if trailer.Cached {
		keys = append(keys, r.ledger.At())
	}
	var bgp []model.Pattern
	for _, p := range query.MustParseBGP(req.BGP) {
		bgp = append(bgp, modelPattern(p))
	}
	for _, k := range keys {
		asserted, ok := r.ledger.State(k)
		if !ok {
			return false, fmt.Errorf("/query %+v names generation %d, which incarnation %d never served", req, k.Generation, k.Incarnation)
		}
		var want []model.Binding
		switch req.Mode {
		case server.ModeMaterialized:
			want = r.closure(k).Eval(bgp, nil)
		case server.ModeExpand:
			want = asserted.Eval(bgp, r.closure(k).Subsumees)
		case server.ModePlain:
			want = asserted.Eval(bgp, nil)
		}
		var wantRows []string
		for _, b := range want {
			wantRows = append(wantRows, b.String())
		}
		if !slices.Equal(rows, wantRows) {
			return false, fmt.Errorf("/query %+v at %+v answered %q (cached %v, generation %d); the model at %+v says %q", req, r.ledger.At(), rows, trailer.Cached, *trailer.Generation, k, wantRows)
		}
	}
	r.tally["answers checked"]++
	return trailer.Cached, nil
}

// crash crashes the server — between steps, or at the at-th disk operation
// of the step's write — and reopens one image the crash may leave. The
// recovered state must be the model's after every acknowledged write, with
// or without the write in flight.
func (r *rig) crash(s step) error {
	rng := rand.New(rand.NewSource(int64(s.pick)))
	var images []*durable.MemDisk
	if s.at > 0 {
		ops := 0
		r.disk.SetInject(func(op, name string) error {
			if ops++; ops == s.at {
				images = r.disk.CrashImages(rigImages, rng)
			}
			if images != nil {
				return errCrashed
			}
			return nil
		})
		r.ledger.Send(model.Write{Add: parseTriples(s.add), Remove: parseTriples(s.remove)})
		code, body := r.do(http.MethodPost, "/triples", s.body())
		switch {
		case images != nil && code != http.StatusInternalServerError:
			return fmt.Errorf("/triples %v, whose commit crashed, = %d %s", s.body(), code, body)
		case images != nil:
			r.tally["crashes that landed in a write"]++
		case code != http.StatusOK:
			return fmt.Errorf("/triples %v = %d %s", s.body(), code, body)
		default:
			// The write issued fewer than at operations; the crash follows it.
			if err := r.acked(s, body); err != nil {
				return err
			}
		}
	}
	if images == nil {
		images = r.disk.CrashImages(rigImages, rng)
	}
	r.close()
	if err := r.open(images[s.pick%len(images)]); err != nil {
		return err
	}
	recovered := model.Set{}
	for _, t := range r.base.Triples() {
		recovered.Add(model.Triple(t))
	}
	for kept, want := range r.ledger.Recoverable() {
		if recovered.Equal(want) {
			r.ledger.Reopen(kept, r.srv.Reasoner().Generation())
			return nil
		}
	}
	var allowed [][]model.Triple
	for _, want := range r.ledger.Recoverable() {
		allowed = append(allowed, want.Sorted())
	}
	return fmt.Errorf("the crash recovered %v; the model allows one of %v", recovered.Sorted(), allowed)
}

// check holds the live server to the model: the asserted set, the
// materialized view and the generation /stats reports.
func (r *rig) check() error {
	at := r.ledger.At()
	view := model.Set{}
	for _, t := range r.srv.Reasoner().View().Triples() {
		view.Add(model.Triple(t))
	}
	asserted := model.Set{}
	for _, t := range r.base.Triples() {
		asserted.Add(model.Triple(t))
	}
	if !asserted.Equal(r.ledger.Acked()) || !view.Equal(r.closure(at)) {
		return fmt.Errorf("at %+v the server holds %v asserted, %d in its view; the model says %v and %d", at, asserted.Sorted(), len(view), r.ledger.Acked().Sorted(), len(r.closure(at)))
	}
	var st server.StatsResponse
	if code, body := r.do(http.MethodGet, "/stats", nil); code != http.StatusOK || json.Unmarshal(body, &st) != nil {
		return fmt.Errorf("/stats = %d %s", code, body)
	}
	if st.Engine.Generation != at.Generation {
		return fmt.Errorf("/stats reports generation %d; the model is at %+v", st.Engine.Generation, at)
	}
	return nil
}

// runSchedule runs the steps on a new rig and returns its tally and the
// first failure, naming its step.
func runSchedule(steps []step) (map[string]int, error) {
	r, err := newRig()
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer r.close()
	for i, s := range steps {
		if err := r.run(s); err != nil {
			return r.tally, fmt.Errorf("step %d %s: %w", i, s.literal(), err)
		}
	}
	return r.tally, nil
}

// shrink returns a schedule on which fails still holds, minimal in that
// dropping any one of its steps, or halving any write's adds or removes,
// makes it pass: it drops steps first, in runs from half the schedule down
// to one, then halves batches, until neither changes anything.
func shrink(steps []step, fails func([]step) bool) []step {
	for changed := true; changed; {
		changed = false
		for size := max(len(steps)/2, 1); size >= 1; size /= 2 {
			for i := 0; i+size <= len(steps); {
				if cand := slices.Delete(slices.Clone(steps), i, i+size); fails(cand) {
					steps, changed = cand, true
				} else {
					i += size
				}
			}
		}
		for i := range steps {
			for _, side := range []func(*step) *[]string{
				func(s *step) *[]string { return &s.add },
				func(s *step) *[]string { return &s.remove },
			} {
				for halved := true; halved; {
					halved = false
					list, other := *side(&steps[i]), len(steps[i].add)+len(steps[i].remove)-len(*side(&steps[i]))
					var halves [][]string
					switch {
					case len(list) >= 2:
						halves = [][]string{list[:len(list)/2], list[len(list)/2:]}
					case len(list) == 1 && other > 0:
						halves = [][]string{nil} // a body needs one triple
					}
					for _, half := range halves {
						cand := slices.Clone(steps)
						*side(&cand[i]) = half
						if fails(cand) {
							steps, changed, halved = cand, true, true
							break
						}
					}
				}
			}
		}
	}
	return steps
}

// composedReplays are schedules TestComposition runs before the seeded ones:
// each is the shrunk schedule of a fault the rig caught, kept so that the
// fault stays caught. A schedule that finds a bug joins them with its fix.
var composedReplays = [][]step{
	// The cache's invalidation ignores a delta's removed triples: the second
	// answer is the first, cached before the retraction.
	{
		{kind: "write", add: []string{"f2 type c3"}},
		{kind: "query", bgp: "?x type c3", mode: "plain", cached: true},
		{kind: "write", remove: []string{"f2 type c3"}},
		{kind: "query", bgp: "?x type c3", mode: "plain", cached: true},
	},
	// FsyncAlways acknowledges a write before its fsync: this image keeps
	// none of the corpus the rig's first write asserted.
	{
		{kind: "crash", at: 0, pick: 46},
	},
	// Retraction skips its rederive phase: retracting i3 p1 i1, which the
	// same body adds, overdeletes i1 type c4 (p1's range), which i1 type c0
	// and the new c0 subClassOf c4 still derive.
	{
		{kind: "write", add: []string{"c0 subClassOf c4", "i2 type c1", "i3 p1 i1"}, remove: []string{"i3 p1 i1"}},
	},
}

// composedSeeds and composedSteps size TestComposition.
const composedSeeds, composedSteps = 8, 100

// failComposed runs steps and, if they fail, shrinks them and fails t with
// the shrunk schedule as a literal.
func failComposed(t *testing.T, what string, steps []step) map[string]int {
	t.Helper()
	tally, err := runSchedule(steps)
	if err == nil {
		return tally
	}
	shrunk := shrink(steps, func(s []step) bool { _, err := runSchedule(s); return err != nil })
	_, shrunkErr := runSchedule(shrunk)
	t.Fatalf("%s: %v\nshrunk from %d to %d steps, failing with %v; replay it by adding to composedReplays:\n%s",
		what, err, len(steps), len(shrunk), shrunkErr, literal(shrunk))
	return nil
}

// TestComposition runs the replays, then composedSeeds seeded schedules of
// composedSteps steps, each holding every step kind and at least one crash
// inside a write, and logs how often each kind ran and what the checks saw.
func TestComposition(t *testing.T) {
	for i, steps := range composedReplays {
		failComposed(t, fmt.Sprintf("replay %d", i), steps)
	}
	total := map[string]int{"answers without a generation": 0, "answers from the cache that outlived a write": 0}
	for seed := int64(1); seed <= composedSeeds; seed++ {
		tally := failComposed(t, fmt.Sprintf("seed %d", seed), schedule(seed, composedSteps))
		for _, kind := range []string{
			"write", "checkpoint", "merge", "crash between steps", "crash in a write",
			"crashes that landed in a write", "merges that folded segments",
			"flips inferred → asserted", "flips asserted → inferred", "triples added and removed by one body",
			"answers from the cache",
		} {
			if tally[kind] == 0 {
				t.Errorf("seed %d: no %q in the schedule", seed, kind)
			}
		}
		for _, mode := range rigModes {
			for _, c := range []string{"cached", "uncached"} {
				if kind := "query " + mode + " " + c; tally[kind] == 0 {
					t.Errorf("seed %d: no %q in the schedule", seed, kind)
				}
			}
		}
		for k, n := range tally {
			total[k] += n
		}
	}
	var lines []string
	for k, n := range total {
		lines = append(lines, fmt.Sprintf("%6d  %s", n, k))
	}
	sort.Strings(lines)
	t.Logf("%d schedules of %d steps:\n%s", composedSeeds, composedSteps, strings.Join(lines, "\n"))
}

// FuzzComposition runs the schedule the fuzzer's seed and length draw; a
// failure is shrunk and printed as TestComposition's are.
func FuzzComposition(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(2), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		failComposed(t, fmt.Sprintf("seed %d, %d steps", seed, n), schedule(seed, int(n)))
	})
}

// TestShrinkerFindsPlantedFailure shrinks a seeded schedule against a
// planted failure — a write adding one marked triple, followed at any
// distance by a crash — which must shrink to exactly those two steps, with
// the write's batch halved down to the marked triple.
func TestShrinkerFindsPlantedFailure(t *testing.T) {
	const mark = "x9 type c9"
	fails := func(steps []step) bool {
		written := false
		for _, s := range steps {
			written = written || s.kind == "write" && slices.Contains(s.add, mark)
			if written && s.kind == "crash" {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(5))
	planted := step{kind: "write"}
	for i := 0; i < 9; i++ {
		planted.add = append(planted.add, rigTriple(rng))
	}
	planted.add = slices.Insert(planted.add, 6, mark)
	planted.remove = []string{rigTriple(rng), rigTriple(rng), rigTriple(rng)}
	steps := append([]step{planted}, schedule(5, composedSteps)...)
	if !fails(steps) {
		t.Fatal("the planted schedule does not fail")
	}
	calls := 0
	shrunk := shrink(steps, func(s []step) bool { calls++; return fails(s) })
	t.Logf("%d steps shrunk to %d in %d runs:\n%s", len(steps), len(shrunk), calls, literal(shrunk))
	if len(shrunk) != 2 || shrunk[1].kind != "crash" || !slices.Equal(shrunk[0].add, []string{mark}) || len(shrunk[0].remove) != 0 {
		t.Fatalf("shrunk to %s; want the marked write alone, then one crash", literal(shrunk))
	}
	if want := `{kind: "write", add: []string{"x9 type c9"}}`; shrunk[0].literal() != want {
		t.Fatalf("the write prints as %s; want %s", shrunk[0].literal(), want)
	}
}
