package durable

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/store"
)

// This file is the replica's side of replication: it reads what serve.go
// serves with the checks recovery reads the directory with — the segment
// decoder, the chain's start and the bulk load for a snapshot, walkWAL and
// its record rules for the log — so the formats stay private to this package
// and there is no second decoder.

// ErrDiverged marks a snapshot or a log that does not continue a follower's
// state: a seq gap, a dictionary record that restates or skips an id or
// repeats a name, an id used before it was minted, a record this build does
// not read. Only a fresh snapshot re-anchors the follower.
var ErrDiverged = errors.New("durable: the primary's log does not continue this replica's state")

// ErrTorn marks a log body cut short — inside a frame, or inside a chunked
// write — as a connection dying mid-response leaves it. What came before the
// cut is applied; the next read resumes from there.
var ErrTorn = errors.New("durable: log body cut short")

// Follower is a replica's hold on a primary's log: the primary's
// dictionary, in the primary's ids — the snapshot's names, then those of the
// dictionary records that continue it exactly — the count of them the
// applied writes stand on, the seq of the last record applied, and the
// position the last write left. A Follower is not safe for concurrent use.
type Follower struct {
	dict *store.Store
	ids  store.SymbolID
	seq  uint64
	at   store.Position
	buf  []byte // the frame buffer every Read reuses
}

// Position is the primary position the follower has applied through.
func (f *Follower) Position() store.Position { return f.at }

// LoadSnapshot bulk-loads the empty store st from a snapshot — one segment
// over the primary's whole chain and committed log, as Engine.Snapshot
// builds it — with recovery's checks and its bulk load: the segment's
// framing, its frames' checksums, sorted stream, id bound and totals, a
// start at seq 1 and id 0, then the digest of what was loaded against the
// segment's stamp. It returns the follower positioned at the stamp, its
// dictionary the snapshot's names, whose bytes it shares with st: the name
// frames read from the snapshot, restored into both.
func LoadSnapshot(st *store.Store, data []byte) (*Follower, error) {
	return loadSnapshot(st, data, readBufSize)
}

// loadSnapshot is LoadSnapshot reading the snapshot through buffers of
// readBuf bytes.
func loadSnapshot(st *store.Store, data []byte, readBuf int) (*Follower, error) {
	seg, err := openSegment("snapshot", bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	if err := (&fold{start: 1}).precede(seg.start, seg.end, seg.dictFirst); err != nil {
		return nil, err
	}
	f := foldOf(seg)
	f.readBuf = readBuf
	names, err := f.dictionary()
	if err != nil {
		return nil, err
	}
	if err := st.RestoreSorted(names, nil, 0); err != nil {
		return nil, err
	}
	if err := loadFold(st, f); err != nil {
		return nil, err
	}
	dict := store.New()
	if err := dict.RestoreSorted(names, nil, 0); err != nil {
		return nil, err
	}
	return &Follower{dict: dict, ids: store.SymbolID(f.names), seq: seg.end, at: seg.at}, nil
}

// Read applies a log body as ReadLog serves it: every whole write after the
// follower's seq, in order, through apply — its adds and removes by name,
// adds first, and the position it left — and returns how many it applied.
// Records at or below the follower's seq are skipped (a duplicated
// response); the rest must continue it under walkWAL's rules, with the
// dictionary checks recovery loads a log with (logWalk.dict): ErrDiverged
// otherwise. A body cut inside a frame or inside a chunked write is ErrTorn
// once the whole writes before the cut are applied. An error from apply ends
// the read; the writes before it stay applied, and the follower stands after
// the last of them. Names a dictionary record filed past that point stay in
// the dictionary at the ids the log gave them, where the next read of the
// same records finds them.
func (f *Follower) Read(body []byte, apply func(adds, removes []store.Triple, at store.Position) error) (int, error) {
	if f.dict == nil {
		f.dict = store.New()
	}
	var adds, removes []store.Triple
	applied := 0
	var applyErr error
	w := logWalk{seq: f.seq, ids: f.ids, dict: f.dict}
	names := f.dict.NewResolver()
	visit := func(r record, _, _ int) error {
		if r.typ == recDict {
			names = f.dict.NewResolver() // the walk has filed the record's names
			return nil
		}
		for i := 0; i < r.triples.len(); i++ {
			t := r.triples.at(i)
			named := store.Triple{Subject: names.Name(t.S), Predicate: names.Name(t.P), Object: names.Name(t.O)}
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
		f.ids, f.seq, f.at = w.ids, r.seq, r.at
		adds, removes = nil, nil
		applied++
		return nil
	}
	if f.buf == nil {
		f.buf = make([]byte, readBufSize)
	}
	rd := newReader(bytes.NewReader(body), 0, int64(len(body)), f.buf)
	off, err := walkWAL("log body", &rd, f.seq, &w, visit)
	f.buf = rd.buf
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
