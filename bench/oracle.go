package main

import (
	"fmt"
	"sync"
)

// instState is the asserted state of one instance as the model sees it.
type instState struct {
	types []uint8
	sites []uint8
	tags  []uint16
}

// triples is the number of asserted triples the state stands for.
func (s *instState) triples() int {
	if s == nil {
		return 0
	}
	return len(s.types) + len(s.sites) + len(s.tags)
}

// opKind names what a request is; the four query shapes are the ISSUE's Q1
// to Q4.
type opKind uint8

const (
	opQ1    opKind = iota // ?x type C                                   limit 100
	opQ2                  // ?x type C . ?x locatedIn S
	opQ3                  // ?x type C . ?x locatedIn ?s . ?s partOf R   limit 500
	opQ4                  // ?s partOf R
	opWrite               // POST /triples
)

func (k opKind) isRead() bool { return k != opWrite }

// readKey identifies what a query counts.
type readKey struct {
	kind  opKind
	class uint8
	arg   uint8 // site for Q2, region for Q3 and Q4
}

// change is the effect of one write on one instance. mid is the state after
// the request's adds and before its removes (the server applies adds first);
// a reader overlapping the write may see before, mid or after, and, when the
// write removes a triple, a moment at which delete-and-rederive has taken
// the instance's inferred types away and not yet put them back.
type change struct {
	inst               int
	before, mid, after *instState
	removes            bool
}

// matches reports whether an instance in state s answers "?x type class".
func (c *corpus) matches(s *instState, class uint8) bool {
	for _, t := range s.types {
		if c.isAnc[t][class] {
			return true
		}
	}
	return false
}

// count is the number of solutions the instance contributes to key.
func (c *corpus) count(s *instState, key readKey) int {
	if s == nil || key.kind == opQ4 || !c.matches(s, key.class) {
		return 0
	}
	switch key.kind {
	case opQ1:
		return 1
	case opQ2:
		for _, site := range s.sites {
			if site == key.arg {
				return 1
			}
		}
		return 0
	default: // opQ3: one solution per (instance, site in the region)
		n := 0
		for _, site := range s.sites {
			if uint8(c.spec.regionOf(int(site))) == key.arg {
				n++
			}
		}
		return n
	}
}

// oracle is the harness's plain model of what the server must answer: the
// solution count of every query key and the asserted triple count, advanced
// by acknowledged writes only. Requests on the two connections overlap, so a
// read that was in flight together with a write touching its key is checked
// against the range of counts that write allows instead of one value.
type oracle struct {
	mu       sync.Mutex
	c        *corpus
	q1       []int32 // [class]
	q2       []int32 // [class*Sites+site]
	q3       []int32 // [class*Regions+region]
	q4       []int32 // [region]
	asserted int

	pending []*op         // writes sent and not yet answered
	reads   []*readWindow // reads sent and not yet answered
}

// readWindow is the range of counts an in-flight read may legitimately
// observe.
type readWindow struct {
	key    readKey
	lo, hi int
}

// newOracle builds the model of a recovered golden directory: the schema
// and spec.total() instances in their default state.
func newOracle(c *corpus) *oracle {
	sp := c.spec
	o := &oracle{
		c:        c,
		q1:       make([]int32, sp.Classes),
		q2:       make([]int32, sp.Classes*sp.Sites),
		q3:       make([]int32, sp.Classes*sp.Regions),
		q4:       make([]int32, sp.Regions),
		asserted: c.asserted(sp.total()),
	}
	for s := 0; s < sp.Sites; s++ {
		o.q4[sp.regionOf(s)]++
	}
	for i := 0; i < sp.total(); i++ {
		o.apply(defaultState(sp, i), +1)
	}
	return o
}

func defaultState(sp corpusSpec, i int) *instState {
	return &instState{types: []uint8{uint8(sp.defaultClass(i))}, sites: []uint8{uint8(sp.defaultSite(i))}}
}

// apply adds (sign +1) or withdraws (sign -1) one instance's contribution
// to every count.
func (o *oracle) apply(s *instState, sign int32) {
	if s == nil {
		return
	}
	sp := o.c.spec
	var seen [256]bool
	for _, t := range s.types {
		for _, a := range o.c.anc[t] {
			if seen[a] {
				continue
			}
			seen[a] = true
			o.q1[a] += sign
			for _, site := range s.sites {
				o.q2[int(a)*sp.Sites+int(site)] += sign
				o.q3[int(a)*sp.Regions+sp.regionOf(int(site))] += sign
			}
		}
	}
}

func (o *oracle) current(key readKey) int {
	sp := o.c.spec
	switch key.kind {
	case opQ1:
		return int(o.q1[key.class])
	case opQ2:
		return int(o.q2[int(key.class)*sp.Sites+int(key.arg)])
	case opQ3:
		return int(o.q3[int(key.class)*sp.Regions+int(key.arg)])
	default:
		return int(o.q4[key.arg])
	}
}

// widen grows w by what an overlapping write may show a reader of w.key.
func (o *oracle) widen(w *readWindow, wr *op) {
	for i := range wr.changes {
		ch := &wr.changes[i]
		base := o.c.count(ch.before, w.key)
		lo, hi := base, base
		for _, s := range [2]*instState{ch.mid, ch.after} {
			n := o.c.count(s, w.key)
			lo, hi = min(lo, n), max(hi, n)
		}
		if ch.removes {
			lo = 0
		}
		w.lo += lo - base
		w.hi += hi - base
	}
}

// beginRead is called just before a query is sent.
func (o *oracle) beginRead(key readKey) *readWindow {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.current(key)
	w := &readWindow{key: key, lo: n, hi: n}
	for _, wr := range o.pending {
		o.widen(w, wr)
	}
	o.reads = append(o.reads, w)
	return w
}

// endRead checks a query's trailer against the model.
func (o *oracle) endRead(w *readWindow, limit, solutions int, truncated bool) error {
	o.mu.Lock()
	for i, r := range o.reads {
		if r == w {
			o.reads = append(o.reads[:i], o.reads[i+1:]...)
			break
		}
	}
	lo, hi := w.lo, w.hi
	o.mu.Unlock()

	wantLo, wantHi := lo, hi
	if limit > 0 {
		wantLo, wantHi = min(lo, limit), min(hi, limit)
	}
	if solutions < wantLo || solutions > wantHi {
		return fmt.Errorf("solutions = %d, model says %d..%d (limit %d)", solutions, wantLo, wantHi, limit)
	}
	if limit > 0 {
		if lo > limit && !truncated {
			return fmt.Errorf("truncated = false with %d solutions over limit %d", lo, limit)
		}
		if hi <= limit && truncated {
			return fmt.Errorf("truncated = true with only %d solutions under limit %d", hi, limit)
		}
	} else if truncated {
		return fmt.Errorf("truncated = true on an unlimited query")
	}
	return nil
}

// beginWrite is called just before a mutation is sent.
func (o *oracle) beginWrite(wr *op) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range o.reads {
		o.widen(r, wr)
	}
	o.pending = append(o.pending, wr)
}

// endWrite is called with the server's answer; acked is false when the
// request failed, in which case the model is left as it was.
func (o *oracle) endWrite(wr *op, acked bool, added, removed int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, p := range o.pending {
		if p == wr {
			o.pending = append(o.pending[:i], o.pending[i+1:]...)
			break
		}
	}
	if !acked {
		return nil
	}
	for i := range wr.changes {
		ch := &wr.changes[i]
		o.apply(ch.before, -1)
		o.apply(ch.after, +1)
	}
	o.asserted += wr.added - wr.removed
	if added != wr.added || removed != wr.removed {
		return fmt.Errorf("added/removed = %d/%d, model says %d/%d", added, removed, wr.added, wr.removed)
	}
	return nil
}

// assertedCount is the model's asserted triple count.
func (o *oracle) assertedCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.asserted
}
