package reason

import (
	"slices"
	"time"

	"repro/internal/store"
)

// This file is the seed round: the first round of a full materialization,
// whose delta is the whole asserted base and whose overlay is still empty.
// It is the whole-database choice of terms. Every other pass over a delta —
// a maintenance round (Reasoner.rounds) and overdeletion (Reasoner.retract)
// alike — is the one term loop, Reasoner.terms, "every rule × every body
// atom over the delta", with a different sink: the maintenance round tests
// and inserts one head at a time under the store's lock, overdeletion marks. When
// the delta is the entire database every term of a rule is the same join, so
// the seed round runs one pipeline per rule (matchAll) instead, and commits
// as set operations: heads gathered as a sorted duplicate-free set in id
// space, the asserted ones subtracted by a merge against the sorted base,
// the survivors loaded into the overlay with one store.LoadSorted. It is
// counted as a round like any other (Reasoner.countRound); the rounds after
// it find a non-empty overlay and are ordinary maintenance rounds.

// materialize computes the full fixpoint over the base into the overlay of a
// new reasoner and records its figures. Callers hold r.mu. The seed round
// reads and loads through the stores' own locks (the overlay is not yet
// published); the rounds after it run in one write section, which names no
// generation.
func (r *Reasoner) materialize() {
	start := time.Now()
	fresh := r.seedRound()
	// No event reports the rounds' conclusions, so they are appended to
	// nothing kept, and the head buffer the rounds grew is dropped.
	r.base.Write(func() bool {
		r.rounds(nil, fresh)
		return false
	})
	r.scratch.trim(0)
	st := r.Stats()
	r.boot = MaterializeStats{
		Duration:   time.Since(start),
		Rounds:     st.Rounds,
		Heads:      st.Heads,
		BulkLoaded: len(fresh),
		Inferred:   r.overlay.Len(),
	}
}

// seedRound runs the seed round and returns the triples it inferred, sorted:
// the delta of the first maintenance round, for which it also sets every
// propagation rule's fed runs.
func (r *Reasoner) seedRound() []store.IDTriple {
	start := time.Now()
	// One buffer gathers the heads of all ordinary rules, then, emptied in
	// between, those of each propagation rule on its own: what such a rule
	// concluded is what its recursive atom must not be fed next round.
	room := headFanout * r.base.Len()
	scratch := headSet{buf: make([]store.IDTriple, 0, min(r.base.Len(), room)), room: room}
	for i := range r.rules {
		if r.rules[i].selfAtom < 0 {
			matchAll(&r.scratch.ctx, &r.rules[i], r.base, scratch.add)
		}
	}
	derived := slices.Clone(scratch.sorted())
	own := make([][]store.IDTriple, len(r.rules))
	for i := range r.rules {
		if r.rules[i].selfAtom < 0 {
			continue
		}
		scratch.buf = scratch.buf[:0]
		matchAll(&r.scratch.ctx, &r.rules[i], r.base, scratch.add)
		own[i] = slices.Clone(scratch.sorted())
		derived = store.UnionSorted(derived, own[i])
	}
	scratch.buf = nil

	asserted := make([]store.IDTriple, 0, r.base.Len())
	r.base.QueryIDFunc(store.IDPattern{}, func(t store.IDTriple) bool {
		asserted = append(asserted, t)
		return true
	})
	r.mDeltaSize.Observe(float64(len(asserted)))
	store.SortIDTriples(asserted)
	fresh := store.SubtractSorted(derived, asserted)
	derived, asserted = nil, nil
	if err := r.overlay.LoadSorted(fresh); err != nil {
		panic(err) // sorted above, ids from this dictionary, overlay empty
	}
	for i := range r.round {
		r.round[i].fed = [2][]store.IDTriple{fresh}
		if own[i] != nil {
			r.round[i].fed[0] = store.SubtractSorted(fresh, own[i])
		}
	}
	r.countRound(start, scratch.added, len(fresh))
	return fresh
}

// headFanout is how many heads per asserted triple the seed round's head
// buffer grows to before it compacts. A variable only so tests can zero it
// and drive the compaction path on small inputs.
var headFanout = 8

// headSet gathers a round's heads as a set. Heads are appended unsorted into
// a buffer of one head per asserted triple; if that fills, the buffer grows
// to room at once, and from there it is sorted and de-duplicated whenever it
// fills, growing only when that frees less than half of it, so the footprint
// follows the distinct heads rather than the matches — a rule set can match
// the same head many times over. Room is not reserved up front: a boot that
// derives fewer heads than it asserts would leave most of it unused, and an
// allocation on recycled heap is cleared whole, so the unused part is
// resident all the same.
type headSet struct {
	buf   []store.IDTriple
	room  int // the capacity from which a full buffer is compacted first
	added int // heads added, duplicates included
}

// add puts one head into the set; it always reports true, so it serves as a
// pipeline's emit callback as is.
func (h *headSet) add(t store.IDTriple) bool {
	if len(h.buf) == cap(h.buf) {
		grow := cap(h.buf) < h.room
		if !grow {
			h.sorted()
			grow = len(h.buf) >= cap(h.buf)/2
		}
		if grow {
			h.buf = append(make([]store.IDTriple, 0, max(2*cap(h.buf), h.room, 1)), h.buf...)
		}
	}
	h.buf = append(h.buf, t)
	h.added++
	return true
}

// sorted sorts and de-duplicates the set in place and returns its members in
// ascending (S, P, O) order.
func (h *headSet) sorted() []store.IDTriple {
	store.SortIDTriples(h.buf)
	h.buf = slices.Compact(h.buf)
	return h.buf
}
