package store

import "fmt"

// AddBatch inserts a batch of triples, returning how many were newly
// inserted (duplicates, within the batch or against the store, are counted
// once). Validation is all-or-nothing: the batch is checked up front and if
// any triple has an empty component an error identifying its position is
// returned and nothing at all is inserted. A successful AddBatch therefore
// inserted every valid new triple, and a failed one inserted none — there are
// no partial counts to misread.
//
// The fast path over per-triple Add: all strings of the batch are interned
// under one symbol-table lock, and each index shard is then locked at most
// once per family pass instead of once per triple. See the package
// documentation for what concurrent readers may observe while a batch is in
// flight.
//
// With a journal attached (SetJournal) the batch is acknowledged durable
// before returning: the freshly inserted triples are journaled and the call
// blocks in JournalCommit. A commit failure is returned wrapping ErrJournal —
// the batch is applied in memory but not durable.
func (s *Store) AddBatch(ts []Triple) (int, error) {
	for i, t := range ts {
		if !t.valid() {
			return 0, fmt.Errorf("store: batch triple %d %v has an empty component; batch not inserted", i, t)
		}
	}
	if len(ts) == 0 {
		return 0, nil
	}
	enc := s.syms.internBatch(ts, make([]encTriple, 0, len(ts)))
	fresh := s.insertBatch(enc)
	if j := s.getJournal(); j != nil && len(fresh) > 0 {
		j.JournalAdd(freshIDs(fresh))
		if err := commitJournal(j); err != nil {
			return len(fresh), err
		}
	}
	return len(fresh), nil
}

// insertBatch applies an encoded batch to both index families and the
// size counter, returning the triples that were actually absent (the batch's
// fresh subset, reusing enc's storage). It is the shared body of AddBatch and
// AddIDBatch.
func (s *Store) insertBatch(enc []encTriple) []encTriple {
	// Pass 1 — SPO, the arbiter of newness: group the batch by subject
	// shard, lock each shard once, and keep only the triples that were
	// actually absent.
	// fresh reuses enc's storage; byShard holds copies, so overwriting the
	// prefix of enc during pass 1 is safe.
	fresh := enc[:0]
	var byShard [numShards][]encTriple
	for _, e := range enc {
		sh := shardOf(e.s)
		byShard[sh] = append(byShard[sh], e)
	}
	for i := range byShard {
		if len(byShard[i]) == 0 {
			continue
		}
		sh := &s.spo[i]
		sh.mu.Lock()
		sh.reserve(len(byShard[i]))
		for _, e := range byShard[i] {
			if sh.insertLocked(e.s, e.p, e.o) {
				fresh = append(fresh, e)
			}
		}
		sh.mu.Unlock()
		byShard[i] = nil
	}

	// Pass 2 — POS for the fresh triples only, again one lock per touched
	// shard.
	for _, e := range fresh {
		sh := shardOf(e.p)
		byShard[sh] = append(byShard[sh], e)
	}
	for i := range byShard {
		if len(byShard[i]) == 0 {
			continue
		}
		sh := &s.pos[i]
		sh.mu.Lock()
		for _, e := range byShard[i] {
			sh.insertLocked(e.p, e.o, e.s)
		}
		sh.mu.Unlock()
	}

	s.size.Add(int64(len(fresh)))
	return fresh
}
