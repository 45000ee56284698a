package store

// This file is the store's id-level query surface: the hooks the join
// evaluator in internal/query builds on. A join probes the store thousands of
// times per query, so the evaluator works entirely in dictionary ids —
// variables bind to SymbolIDs, probes are IDPatterns, matches are IDTriples —
// and only the final solutions are resolved back to strings through a
// Resolver. The string-level Pattern methods (Query, Count) are thin
// wrappers over these.

// SymbolID is a dictionary id minted by the store's symbol table. Ids are
// dense, append-only and never reused; they are only meaningful relative to
// the store that minted them.
type SymbolID = uint32

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O SymbolID
}

// Less orders id triples by (S, P, O) — the order LoadSorted takes and
// SortIDTriples produces.
func (t IDTriple) Less(u IDTriple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

// IDPattern is a dictionary-encoded triple pattern: a component constrains
// the match only when its Bound flag is set (an unbound component is a
// wildcard, whatever its id field holds).
type IDPattern struct {
	S, P, O                SymbolID
	BoundS, BoundP, BoundO bool
}

// SymbolID returns the dictionary id of a name, with ok reporting whether the
// name has ever been interned. A name that was never interned cannot occur in
// any index, so a pattern bound to it matches nothing.
func (s *Store) SymbolID(name string) (SymbolID, bool) {
	return s.syms.lookup(name)
}

// InternedName returns the dictionary's own string for the name spelled by
// b, with ok reporting whether that name is interned. It allocates nothing,
// so a decoder can turn a term the store already holds into a string that
// shares the dictionary's copy instead of minting one of its own.
func (s *Store) InternedName(b []byte) (string, bool) {
	return s.syms.lookupBytes(b)
}

// Resolver resolves SymbolIDs back to names from a lock-free snapshot of the
// symbol table, falling back to the locked path only for ids minted after the
// Resolver was created. Create one per query result set rather than per id.
type Resolver struct {
	r resolver
}

// NewResolver returns a resolver over the store's current dictionary.
func (s *Store) NewResolver() Resolver {
	return Resolver{r: newResolver(s.syms)}
}

// Name resolves one id.
func (r Resolver) Name(id SymbolID) string {
	return r.r.name(id)
}

// encodePattern resolves a string pattern's bound components to ids; ok is
// false when a bound component was never interned (the pattern matches
// nothing).
func (s *Store) encodePattern(p Pattern) (IDPattern, bool) {
	var ip IDPattern
	var ok bool
	if p.Subject != "" {
		if ip.S, ok = s.syms.lookup(p.Subject); !ok {
			return IDPattern{}, false
		}
		ip.BoundS = true
	}
	if p.Predicate != "" {
		if ip.P, ok = s.syms.lookup(p.Predicate); !ok {
			return IDPattern{}, false
		}
		ip.BoundP = true
	}
	if p.Object != "" {
		if ip.O, ok = s.syms.lookup(p.Object); !ok {
			return IDPattern{}, false
		}
		ip.BoundO = true
	}
	return ip, true
}

// QueryIDFunc streams every triple matching the id pattern to yield, stopping
// early when yield returns false. It is QueryIDBatch with a batch of one —
// the store walks a pattern through a callback in exactly one place
// (probeLocked, scan.go), which picks the permutation index by the pattern's
// bound components: bound subject → SPO, else bound predicate → POS, else
// bound object → every POS lead in turn, else a full SPO scan. Nothing is
// allocated. A subject- or predicate-bound pattern costs one lock round trip
// and one lead lookup; the object-only pattern (? ? o) has no lead to look
// up, so it costs one find per predicate of the store plus its matches. The
// enumeration order is unspecified but deterministic: the same triples stream
// in the same sequence. yield must not write to the store (it runs under the
// read-lock).
func (s *Store) QueryIDFunc(p IDPattern, yield func(IDTriple) bool) {
	s.QueryIDBatch([]IDPattern{p}, func(_ int, t IDTriple) bool { return yield(t) })
}

// countObject returns the number of triples with object o across POS and
// the number of predicates they occur under. Callers hold mu.
func (s *Store) countObject(o SymbolID) (count, preds int) {
	s.pos.ascend(0, func(_ uint32, e *leadEntry) bool {
		if set := e.find(o); set != nil {
			count += set.len()
			preds++
		}
		return true
	})
	return count, preds
}

// IDStats are cheap cardinality statistics for one id pattern: the exact
// match count, and the number of distinct subjects, predicates and objects
// among the matches — exact where an index level exposes it in O(1) (lead
// and middle widths), bounded above by Count where it does not. With no
// object-led index, two object widths are bounds: the object-only pattern
// reports DistinctS = Count, and the unbound pattern's DistinctO counts
// distinct (predicate, object) pairs. The planner in internal/query divides
// Count by a distinct figure to estimate how selective probing the pattern
// through that component will be.
type IDStats struct {
	Count     int
	DistinctS int
	DistinctP int
	DistinctO int
}

// StatsID returns cardinality statistics for the id pattern — the store's one
// cardinality dispatch: Count is the exact number of matches (Store.Count and
// the reasoner's seed round read it off here), the widths are the planner's.
// It runs entirely on the indexes, reading set lengths and entry widths; it
// never materializes a triple or resolves a symbol, so it is cheap enough to
// call once per pattern per query. The object-only and unbound patterns cost
// O(predicates); every other shape reads one lead. It holds the read-lock
// once.
func (s *Store) StatsID(p IDPattern) IDStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsID(p)
}

// statsID is StatsID for a caller that holds the lock.
func (s *Store) statsID(p IDPattern) IDStats {
	switch {
	case p.BoundS && p.BoundP && p.BoundO:
		if !s.spo.contains(p.S, p.P, p.O) {
			return IDStats{}
		}
		return IDStats{Count: 1, DistinctS: 1, DistinctP: 1, DistinctO: 1}
	case p.BoundS:
		e := s.spo.find(p.S)
		if e == nil {
			return IDStats{}
		}
		if p.BoundP {
			set := e.find(p.P)
			if set == nil {
				return IDStats{}
			}
			n := set.len()
			return IDStats{Count: n, DistinctS: 1, DistinctP: 1, DistinctO: n}
		}
		st := IDStats{DistinctS: 1}
		for i := range e.entries {
			if !p.BoundO {
				st.Count += e.entries[i].len()
			} else if e.entries[i].contains(p.O) {
				st.Count++
			}
		}
		if p.BoundO {
			st.DistinctP = st.Count
			st.DistinctO = 1
		} else {
			st.DistinctP = len(e.entries)
			st.DistinctO = st.Count
		}
		return st
	case p.BoundP:
		e := s.pos.find(p.P)
		if e == nil {
			return IDStats{}
		}
		if p.BoundO {
			set := e.find(p.O)
			if set == nil {
				return IDStats{}
			}
			n := set.len()
			return IDStats{Count: n, DistinctS: n, DistinctP: 1, DistinctO: 1}
		}
		st := IDStats{DistinctP: 1}
		for i := range e.entries {
			st.Count += e.entries[i].len()
		}
		st.DistinctO = len(e.entries)
		st.DistinctS = st.Count
		return st
	case p.BoundO:
		n, preds := s.countObject(p.O)
		if n == 0 {
			return IDStats{}
		}
		return IDStats{Count: n, DistinctS: n, DistinctP: preds, DistinctO: 1}
	default:
		st := IDStats{Count: int(s.size.Load()), DistinctS: s.spo.leads, DistinctP: s.pos.leads}
		s.pos.ascend(0, func(_ uint32, e *leadEntry) bool {
			st.DistinctO += len(e.entries)
			return true
		})
		return st
	}
}
