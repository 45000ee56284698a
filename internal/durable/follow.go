package durable

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/store"
)

// This file is the replica's side of replication: it reads what serve.go
// serves with the checks recovery reads the directory with — the segment
// decoder, the chain's start and the bulk load for a snapshot, walkWAL and
// its record rules for the log — so the formats stay private to this package
// and there is no second decoder.

// ErrDiverged marks a snapshot or a log that does not continue a follower's
// state: a seq gap, a dictionary record that restates or skips an id, an id
// used before it was minted, a record this build does not read. Only a
// fresh snapshot re-anchors the follower.
var ErrDiverged = errors.New("durable: the primary's log does not continue this replica's state")

// ErrTorn marks a log body cut short — inside a frame, or inside a chunked
// write — as a connection dying mid-response leaves it. What came before the
// cut is applied; the next read resumes from there.
var ErrTorn = errors.New("durable: log body cut short")

// Follower is a replica's hold on a primary's log: the primary's id → name
// table — the snapshot's dictionary, extended by the dictionary records that
// continue it exactly — the seq of the last record applied, and the position
// the last write left. A Follower is not safe for concurrent use.
type Follower struct {
	names []string
	seq   uint64
	at    store.Position
}

// Position is the primary position the follower has applied through.
func (f *Follower) Position() store.Position { return f.at }

// LoadSnapshot bulk-loads the empty store st from a snapshot — one segment
// over the primary's whole chain and committed log, as Engine.Snapshot
// builds it — with recovery's checks and its bulk load: the segment's
// framing, checksum, sorted runs and id bounds, a start at seq 1 and id 0,
// then the digest of what was loaded against the segment's stamp. It
// returns the follower positioned at the stamp.
func LoadSnapshot(st *store.Store, data []byte) (*Follower, error) {
	seg, err := decodeSegment("snapshot", data)
	if err != nil {
		return nil, err
	}
	if err := (&fold{start: 1}).precede(seg.start, seg.end, seg.dictFirst); err != nil {
		return nil, err
	}
	dict, err := loadFold(st, foldOf(seg))
	if err != nil {
		return nil, err
	}
	// The store keeps dict as its own names and appends to it; the clip
	// makes the follower's appends copy instead of writing behind them.
	return &Follower{names: slices.Clip(dict), seq: seg.end, at: seg.at}, nil
}

// Read applies a log body as ReadLog serves it: every whole write after the
// follower's seq, in order, through apply — its adds and removes by name,
// adds first, and the position it left — and returns how many it applied.
// Records at or below the follower's seq are skipped (a duplicated
// response); the rest must continue it under walkWAL's rules and name no id
// with the empty string: ErrDiverged otherwise. A body cut inside a frame or
// inside a chunked write is ErrTorn once the whole writes before the cut are
// applied. An error from apply ends the read; the writes before it stay
// applied, and the follower stands after the last of them.
func (f *Follower) Read(body []byte, apply func(adds, removes []store.Triple, at store.Position) error) (int, error) {
	names := f.names // the table as the walk extends it; f.names moves at each write
	var adds, removes []store.Triple
	applied := 0
	var applyErr error
	visit := func(r record, _, _ int) error {
		if r.typ == recDict {
			before := len(names)
			names = r.names.appendStrings(names)
			if slices.Contains(names[before:], "") {
				return errors.New("dictionary record names an id with the empty string")
			}
			return nil
		}
		for i := 0; i < r.triples.len(); i++ {
			t := r.triples.at(i)
			named := store.Triple{Subject: names[t.S], Predicate: names[t.P], Object: names[t.O]}
			if i < r.nAdds {
				adds = append(adds, named)
			} else {
				removes = append(removes, named)
			}
		}
		if r.typ != recWrite {
			return nil
		}
		if applyErr = apply(adds, removes, r.at); applyErr != nil {
			return applyErr
		}
		f.names, f.seq, f.at = names, r.seq, r.at
		adds, removes = nil, nil
		applied++
		return nil
	}
	w := logWalk{seq: f.seq, ids: store.SymbolID(len(f.names))}
	off, err := walkWAL("log body", body, f.seq, &w, visit)
	switch {
	case applyErr != nil:
		return applied, applyErr
	case err != nil:
		return applied, fmt.Errorf("%w: %w", ErrDiverged, err)
	case off < len(body):
		return applied, fmt.Errorf("%w: bad frame at offset %d of %d", ErrTorn, off, len(body))
	case w.open:
		return applied, fmt.Errorf("%w: the body ends inside a chunked write", ErrTorn)
	}
	return applied, nil
}
