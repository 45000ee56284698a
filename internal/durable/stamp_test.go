package durable

import "repro/internal/store"

// This file builds logs and segment chains by hand the way the engine writes
// them: every write record and every segment carries the position the state
// through it has, so recovery's digest check holds for a history that is
// otherwise sound, and only what a test damages on purpose fails.

// logScript builds a log record by record, keeping the dictionary and the
// triples the records build so each write is stamped with its true position.
type logScript struct {
	names []string
	set   map[store.IDTriple]bool
	gen   uint64
}

// clone copies the script, so two logs can continue one state.
func (l *logScript) clone() *logScript {
	c := &logScript{names: append([]string(nil), l.names...), set: map[store.IDTriple]bool{}, gen: l.gen}
	for t := range l.set {
		c.set[t] = true
	}
	return c
}

// at is the position of the script's state: its generation and the digest of
// the triples it holds, named through its dictionary.
func (l *logScript) at() store.Position {
	at := store.Position{Gen: l.gen}
	for t := range l.set {
		at.Digest.Add(store.Triple{Subject: l.names[t.S], Predicate: l.names[t.P], Object: l.names[t.O]})
	}
	return at
}

// dict is the payload of a dictionary record minting names at the next ids.
func (l *logScript) dict(seq uint64, names ...string) []byte {
	first := store.SymbolID(len(l.names))
	l.names = append(l.names, names...)
	return encodeDict(nil, seq, first, dictRun(names...))
}

// write is the payload of a whole write record of adds then removes, stamped
// with the position it leaves at the next generation.
func (l *logScript) write(seq uint64, adds, removes []store.IDTriple) []byte {
	l.apply(adds, removes)
	l.gen++
	return encodeMutation(nil, seq, adds, removes, l.at(), true)
}

// part is the payload of a leading chunk of a write; the write's last chunk
// (write) carries the position both leave.
func (l *logScript) part(seq uint64, adds, removes []store.IDTriple) []byte {
	l.apply(adds, removes)
	return encodeMutation(nil, seq, adds, removes, store.Position{}, false)
}

// apply moves the script's set by adds, then removes; a triple naming an
// unminted id is left out, as recovery refuses it anyway.
func (l *logScript) apply(adds, removes []store.IDTriple) {
	if l.set == nil {
		l.set = map[store.IDTriple]bool{}
	}
	minted := func(t store.IDTriple) bool {
		n := store.SymbolID(len(l.names))
		return t.S < n && t.P < n && t.O < n
	}
	for _, t := range adds {
		if minted(t) {
			l.set[t] = true
		}
	}
	for _, t := range removes {
		delete(l.set, t)
	}
}

// stampChain stamps each patch of a chain, oldest first, with the position
// of the state the chain builds through it — its tombstones removed, then
// its adds added, named through the dictionary the chain has minted by then
// — and returns the script that continues the chain.
func stampChain(segs []segmentData) *logScript {
	l := &logScript{}
	for i := range segs {
		seg := &segs[i]
		l.names = append(l.names, runNames(seg.dict)...)
		l.apply(nil, seg.triples(false))
		l.apply(seg.triples(true), nil)
		seg.at = l.at()
	}
	return l
}
