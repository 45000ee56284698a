package model

// Write is one two-sided write, as a /triples body carries it: the adds,
// then the removes.
type Write struct {
	Add, Remove []Triple
}

// Key names one state a server served: the incarnation (one process
// lifetime, numbered from 0) and the generation it reported. Generations
// restart at every reopen, so a generation alone names nothing.
type Key struct {
	Incarnation int
	Generation  uint64
}

// Ledger is the asserted set a server must hold, write by write: the set
// after every acknowledged write, keyed by the incarnation and generation it
// was served at, and a tail of writes sent but not yet acknowledged. A crash
// may keep any prefix of the tail and must keep every acknowledged write.
type Ledger struct {
	at     Key
	acked  Set
	tail   []Write
	states map[Key]Set
}

// NewLedger starts the ledger at incarnation 0: the server holds initial,
// served at generation gen.
func NewLedger(initial Set, gen uint64) *Ledger {
	l := &Ledger{at: Key{0, gen}, acked: initial.Clone(), states: map[Key]Set{}}
	l.states[l.at] = l.acked.Clone()
	return l
}

// At is the incarnation and generation the server is at now.
func (l *Ledger) At() Key { return l.at }

// Acked returns the asserted set after every acknowledged write. The caller
// must not change it.
func (l *Ledger) Acked() Set { return l.acked }

// State returns the asserted set served at k, and whether k was served. The
// caller must not change it.
func (l *Ledger) State(k Key) (Set, bool) {
	s, ok := l.states[k]
	return s, ok
}

// Send appends w to the tail: sent, not yet acknowledged.
func (l *Ledger) Send(w Write) { l.tail = append(l.tail, w) }

// Ack acknowledges the oldest write of the tail, which must not be empty,
// and returns what it changed. A write that changed the asserted set moves
// the generation by one; one that changed nothing leaves it.
func (l *Ledger) Ack() (added, removed []Triple) {
	w := l.tail[0]
	l.tail = l.tail[1:]
	added, removed = l.acked.Apply(w)
	if len(added)+len(removed) > 0 {
		l.at.Generation++
	}
	l.states[l.at] = l.acked.Clone()
	return added, removed
}

// Recoverable returns every asserted set a crash now may leave: the
// acknowledged set with the first i writes of the tail applied, for i from 0
// to the tail's length.
func (l *Ledger) Recoverable() []Set {
	out := []Set{l.acked.Clone()}
	for _, w := range l.tail {
		next := out[len(out)-1].Clone()
		next.Apply(w)
		out = append(out, next)
	}
	return out
}

// Reopen records a crash and a restart: the recovered server holds
// Recoverable()[kept] — the acknowledged writes and the first kept writes of
// the tail — and serves it at generation gen of a new incarnation. The tail
// is gone either way.
func (l *Ledger) Reopen(kept int, gen uint64) {
	l.acked = l.Recoverable()[kept]
	l.tail = nil
	l.at = Key{l.at.Incarnation + 1, gen}
	l.states[l.at] = l.acked.Clone()
}
