package durable

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/store"
)

// This file is the primary's side of replication: the log is the feed. A
// point in the primary's history is named by a store.Position, and the live
// log — the wal files the chain does not cover — is indexed by the position
// each of its writes left (walWriter.writes). A replica at a position is
// served the records after it as they lie on disk, frames, CRCs and all
// (ReadLog), and a replica that has none is served the chain and the log
// folded into one segment (Snapshot). Only committed records are served:
// fsynced under FsyncAlways, written under the other policies, so a replica
// never holds a write a crash of the primary may lose.

// ErrGone marks a position that names no point of the live log: neither a
// write in it nor the chain's stamp. Its records were folded into the chain,
// or the position belongs to another history; only a snapshot re-anchors the
// replica that holds it.
var ErrGone = errors.New("durable: position is not on the live log")

// ReadLog returns the committed records after the write that left from, as
// their frames, through at most max writes (max ≥ 1), and the position of
// the last committed write of the log, the feed's latest. Dictionary records
// come before the writes that use them, and a page ends at a write, so a
// reader that applies every whole write it is handed holds the primary's
// names for the next page. When several writes left the same position (seed
// loads do not advance the generation), the latest is the one meant. A
// caught-up position reads nothing. A position off the live log is ErrGone.
// The cost is the bytes served plus a binary search of the live log's writes.
func (e *Engine) ReadLog(from store.Position, max int) ([]byte, store.Position, error) {
	e.ckptMu.Lock() // the live files stay put while they are read
	defer e.ckptMu.Unlock()
	start, end, latest, err := e.w.locate(from, e.chainStamp(), max)
	if err != nil || start == end {
		return nil, latest, err
	}
	// The span is read into one buffer of its size: each file's share is
	// located first, then read in place.
	type share struct {
		src      source
		from, to int64
	}
	var shares []share
	defer func() {
		for _, sh := range shares {
			sh.src.Close()
		}
	}()
	size := int64(0)
	for _, first := range e.liveFiles(start, end) {
		name := walFileName(first)
		src, err := e.disk.open(name)
		if err != nil {
			return nil, latest, fmt.Errorf("durable: reading the live log: %w", err)
		}
		shares = append(shares, share{src: src, to: src.Size()})
		sh := &shares[len(shares)-1]
		if first == start.file {
			sh.from = start.end
		}
		if first == end.file {
			sh.to = end.end
		}
		if sh.to < sh.from || sh.to > src.Size() {
			return nil, latest, fmt.Errorf("durable: reading the live log: reading %s: range [%d, %d) is past its end", name, sh.from, sh.to)
		}
		size += sh.to - sh.from
	}
	body := make([]byte, size)
	at := int64(0)
	for _, sh := range shares {
		if err := readAt(sh.src, body[at:at+sh.to-sh.from], sh.from); err != nil {
			return nil, latest, fmt.Errorf("durable: reading the live log: %w", err)
		}
		at += sh.to - sh.from
	}
	return body, latest, nil
}

// liveFiles is the wal files the live log from where start ends to where end
// ends lies in, by first seq. Callers hold ckptMu.
func (e *Engine) liveFiles(start, end logPos) []uint64 {
	var firsts []uint64
	for _, first := range e.wals {
		if first >= start.file && first <= end.file && start.seq != end.seq {
			firsts = append(firsts, first)
		}
	}
	return firsts
}

// chainStamp is where the live log begins: the position of the chain's
// stamp, at the chain's last seq, at the first byte of the wal file after it.
func (e *Engine) chainStamp() logPos {
	e.mu.Lock()
	defer e.mu.Unlock()
	end, stamp := e.coveredLocked()
	return logPos{at: stamp, seq: end, file: end + 1}
}

// locate finds what ReadLog serves a reader at position from: the log
// between start and end, and the latest committed position. start is
// where the latest committed write that left from ends, or the live log's
// first byte when from is the chain's stamp; end is where the max-th
// committed write after it ends, or start when there is none. A position
// neither names is ErrGone.
func (w *walWriter) locate(from store.Position, chain logPos, max int) (start, end logPos, latest store.Position, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	last := w.lastCommittedLocked()
	latest = chain.at
	if last >= 0 {
		latest = w.writes[last].at
	}
	// Generations never fall along the log: search for the last write at
	// from's generation, then walk back over the few that share it.
	k := sort.Search(last+1, func(i int) bool { return w.writes[i].at.Gen > from.Gen }) - 1
	for k >= 0 && w.writes[k].at.Gen == from.Gen && w.writes[k].at != from {
		k--
	}
	if k >= 0 && w.writes[k].at != from {
		k = -1
	}
	switch {
	case k >= 0:
		start = w.writes[k]
	case from == chain.at:
		start = chain
	default:
		return start, start, latest, ErrGone
	}
	if k == last {
		return start, start, latest, nil
	}
	return start, w.writes[min(last, k+max)], latest, nil
}

// lastCommittedLocked is the index of the last committed write of the live
// log, -1 when none is. Callers hold mu.
func (w *walWriter) lastCommittedLocked() int {
	committed := w.committedLocked()
	last := len(w.writes) - 1
	for last >= 0 && w.writes[last].seq > committed {
		last--
	}
	return last
}

// CommitWake returns a channel closed by the next commit: the long poll of a
// caught-up replica parks on it. Take it before the ReadLog that found
// nothing, so no commit falls between the two.
func (e *Engine) CommitWake() <-chan struct{} {
	e.w.mu.Lock()
	defer e.w.mu.Unlock()
	return e.w.commitWakeLocked()
}

// LogBounds returns the oldest position a replica can resume from — the
// chain's stamp — and the latest committed one.
func (e *Engine) LogBounds() (oldest, latest store.Position) {
	chain := e.chainStamp()
	_, _, latest, _ = e.w.locate(chain.at, chain, 1)
	return chain.at, latest
}

// Snapshot folds the chain and the live log through its last committed
// write into one segment — foldHistory, the fold recovery boots from — and
// returns its bytes and its stamp, the position a replica loading it resumes
// from. It holds ckptMu while it reads and folds, so no checkpoint or merge
// moves the files under it, and builds the segment in memory: the caller
// streams it without the lock.
func (e *Engine) Snapshot() ([]byte, store.Position, error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	stamp := e.chainStamp()
	cut := e.w.lastCommitted(stamp)
	state, _, err := foldHistory(e.disk, e.chainTiers(), e.liveFiles(stamp, cut), cut.end, nil)
	if err != nil {
		return nil, store.Position{}, err
	}
	defer state.close()
	if state.end != cut.seq || state.at != cut.at {
		return nil, store.Position{}, fmt.Errorf("durable: the snapshot folded through seq %d at %v, want the committed write %d at %v", state.end, state.at, cut.seq, cut.at)
	}
	var buf bytes.Buffer
	if _, _, _, err := encodeSegment(&buf, state); err != nil {
		return nil, store.Position{}, err
	}
	return buf.Bytes(), state.at, nil
}

// chainTiers copies the segment chain.
func (e *Engine) chainTiers() []segMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.tiers)
}

// lastCommitted is the last committed write of the live log, or chain when
// there is none.
func (w *walWriter) lastCommitted(chain logPos) logPos {
	w.mu.Lock()
	defer w.mu.Unlock()
	if last := w.lastCommittedLocked(); last >= 0 {
		return w.writes[last]
	}
	return chain
}
