package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file adds durability to the store: a snapshot format (one JSON-encoded
// triple per line) that can be written to and re-read from any
// io.Writer/Reader. The format is line-oriented so that snapshots of large
// stores can be streamed and partially inspected with ordinary text tools.

// Snapshot writes every triple to w, one JSON object per line, in the
// canonical sorted order of Triples. Two stores holding the same triples
// produce byte-identical snapshots, whatever order they were ingested in. It
// returns the number of triples written.
func (s *Store) Snapshot(w io.Writer) (int, error) {
	return writeSnapshot(w, s.Triples(), nil)
}

// writeSnapshot is the one encoder loop behind every snapshot form: it writes
// triples to w, one JSON object per line, and returns how many it wrote. With
// tagged nil each line is the plain Triple; with a view, the TaggedTriple
// carrying the provenance the view reports for it.
func writeSnapshot(w io.Writer, triples []Triple, tagged *View) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range triples {
		var line any = t
		if tagged != nil {
			prov := ProvInferred
			if tagged.base.Contains(t) {
				prov = ProvAsserted
			}
			line = TaggedTriple{t.Subject, t.Predicate, t.Object, prov.String()}
		}
		if err := enc.Encode(line); err != nil {
			return 0, fmt.Errorf("store: encoding snapshot: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("store: flushing snapshot: %w", err)
	}
	return len(triples), nil
}

// Restore reads a snapshot produced by Snapshot and adds every triple to the
// store (existing triples are kept; duplicates are ignored). It returns the
// number of triples added.
//
// Restore is all-or-nothing: the whole stream is decoded and validated
// first, and a malformed or invalid entry aborts it with an error naming the
// entry before anything is added or a name interned. A clean stream is added
// as one AddBatch, which files it in windows of a chunk's worth of keys.
func Restore(s *Store, r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	var ts []Triple
	for line := 1; ; line++ {
		var t Triple
		err := dec.Decode(&t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("store: decoding snapshot entry %d: %w", line, err)
		}
		if !t.valid() {
			return 0, fmt.Errorf("store: snapshot entry %d: triple %v has an empty component", line, t)
		}
		ts = append(ts, t)
	}
	return s.AddBatch(ts)
}
