package durable

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/store"
)

// This file is the replica's side of replication: it reads what serve.go
// serves with the checks recovery reads the directory with — the segment
// decoder and bulk load for a snapshot, the frame loop for the log — so the
// formats stay private to this package and there is no second decoder.

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
// framing, checksum, sorted runs and id bounds, then the digest of what was
// loaded against the segment's stamp. It returns the follower positioned at
// the stamp.
func LoadSnapshot(st *store.Store, data []byte) (*Follower, error) {
	seg, err := decodeSegment("snapshot", data)
	if err != nil {
		return nil, err
	}
	if seg.start != 1 || seg.dictFirst != 0 {
		return nil, fmt.Errorf("durable: a snapshot must cover the log from seq 1 and id 0, not seq %d and id %d", seg.start, seg.dictFirst)
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
// response); the rest must continue it: ErrDiverged otherwise. A body cut
// inside a frame or inside a chunked write is ErrTorn once the whole writes
// before the cut are applied. An error from apply ends the read; the writes
// before it stay applied, and the follower stands after the last of them.
func (f *Follower) Read(body []byte, apply func(adds, removes []store.Triple, at store.Position) error) (int, error) {
	names := f.names // the table as the walk extends it; f.names moves at each write
	var adds, removes []store.Triple
	applied := 0
	var applyErr error
	visit := func(r record, _, _ int) error {
		if r.typ == recDict {
			if len(adds)+len(removes) > 0 {
				return fmt.Errorf("%w: a dictionary record interrupts a chunked write", ErrDiverged)
			}
			if int(r.first) != len(names) {
				return fmt.Errorf("%w: dictionary record starts at id %d, want %d", ErrDiverged, r.first, len(names))
			}
			before := len(names)
			names = r.names.appendStrings(names)
			if slices.Contains(names[before:], "") {
				return fmt.Errorf("%w: dictionary record names an id with the empty string", ErrDiverged)
			}
			return nil
		}
		for i := 0; i < r.triples.len(); i++ {
			t := r.triples.at(i)
			if int(t.S) >= len(names) || int(t.P) >= len(names) || int(t.O) >= len(names) {
				return fmt.Errorf("%w: triple %v names an id beyond the %d the dictionary had minted", ErrDiverged, t, len(names))
			}
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
	_, off, err := walkWAL("log body", body, f.seq, f.seq, visit)
	switch {
	case applyErr != nil:
		return applied, applyErr
	case err != nil && !errors.Is(err, ErrDiverged):
		return applied, fmt.Errorf("%w: %w", ErrDiverged, err)
	case err != nil:
		return applied, err
	case off < len(body):
		return applied, fmt.Errorf("%w: bad frame at offset %d of %d", ErrTorn, off, len(body))
	case len(adds)+len(removes) > 0:
		return applied, fmt.Errorf("%w: the body ends inside a chunked write", ErrTorn)
	}
	return applied, nil
}
