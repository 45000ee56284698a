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

// restoreChunk is how many decoded triples Restore accumulates before
// flushing them to the store in one AddBatch.
const restoreChunk = 4096

// Restore reads a snapshot produced by Snapshot and adds every triple to the
// store (existing triples are kept; duplicates are ignored). It returns the
// number of triples added.
//
// Partial-commit contract: a malformed or invalid entry aborts the restore
// with an error identifying the entry number, and the valid triples read
// before the error REMAIN in the store — Restore streams through the batch
// path and is deliberately not transactional, so a multi-gigabyte snapshot
// never has to be buffered twice. Callers that must not observe (or serve,
// or journal) a partially restored corpus restore into a scratch store
// first and move the triples over only on success, as cmd/ontoserve does:
//
//	scratch := store.New()
//	if _, err := store.Restore(scratch, r); err != nil {
//	    return err // nothing reached the real store
//	}
//	_, err := s.AddBatch(scratch.Triples())
//
// Ingest goes through the batch path in chunks, so restoring a large
// snapshot takes the write lock once per chunk instead of once per triple.
func Restore(s *Store, r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	added := 0
	line := 0
	chunk := make([]Triple, 0, restoreChunk)
	flush := func() error {
		n, err := s.AddBatch(chunk)
		added += n
		chunk = chunk[:0]
		return err
	}
	for {
		var t Triple
		err := dec.Decode(&t)
		if err == io.EOF {
			ferr := flush()
			return added, ferr
		}
		line++
		if err != nil {
			if ferr := flush(); ferr != nil {
				return added, ferr
			}
			return added, fmt.Errorf("store: decoding snapshot entry %d: %w", line, err)
		}
		if !t.valid() {
			if ferr := flush(); ferr != nil {
				return added, ferr
			}
			return added, fmt.Errorf("store: snapshot entry %d: triple %v has an empty component", line, t)
		}
		chunk = append(chunk, t)
		if len(chunk) == restoreChunk {
			if err := flush(); err != nil {
				return added, err
			}
		}
	}
}
