// Package repl is the replicated serving tier: a primary ontoserve process
// publishes its asserted corpus as a byte-stable snapshot plus an ordered,
// generation-keyed delta feed, and read replicas consume both to serve
// queries locally with bounded, observable staleness.
//
// The protocol has two endpoints, both mounted by repro/internal/server on
// a primary:
//
//	GET /repl/snapshot            — the asserted base store in Store.Snapshot's
//	                                sorted ndjson form; the X-Repl-Generation
//	                                response header carries the generation the
//	                                bytes are exactly consistent with, and
//	                                X-Repl-Epoch the primary's boot epoch.
//	GET /repl/deltas?from=G       — the delta frames with generations above G,
//	                                one JSON object per line, closed by a
//	                                trailer line; &wait=25s long-polls until a
//	                                frame arrives, &max caps frames per response.
//	                                X-Repl-Epoch carries the primary's epoch.
//	                                410 Gone when G has fallen out of the
//	                                primary's retained window.
//
// A Frame carries the asserted mutation of exactly one reasoner write (one
// reason.Reasoner.Apply: the triples it asserted, then the ones it
// retracted), so a replica that applies frames in generation order through
// its own reasoner replays the primary's write history exactly: the inferred
// overlay is a deterministic function of the asserted store and the rule
// set, so the replica's materialized view converges to the primary's,
// byte-identical snapshot included. Generations form a dense chain (each
// frame's Gen is its predecessor's plus one), which is how a replica detects
// dropped and duplicated frames with a single comparison.
//
// Generations alone cannot distinguish histories: they restart from zero
// when a primary process restarts, so frame N of the new history is not
// frame N of the old one. Every feed response therefore also carries the
// primary's epoch — a random identifier minted once per feed lifetime — in
// the X-Repl-Epoch header, and a replica pins the epoch its snapshot came
// from. An epoch change means the generation chain the replica was
// following no longer exists, and the only safe recovery is a fresh
// snapshot; the replica checks the header before decoding a single frame,
// so a restarted primary can never splice its new history onto a replica's
// old state.
//
// The Feed type is the primary-side retention buffer between the reasoner's
// delta hook and the HTTP handlers; the Replica type is the client-side
// catch-up state machine (boot from snapshot, apply the feed, reconnect
// with capped exponential backoff, re-snapshot after falling out of the
// window). DESIGN.md's "Replication" section describes the catch-up state
// machine and the staleness bound; API.md documents the wire protocol with
// captured transcripts.
package repl

import (
	"encoding/json"
	"fmt"

	"repro/internal/store"
)

// WireTriple is the wire form of one triple in a delta frame. The keys are
// single letters because frames are the steady-state replication traffic;
// the snapshot endpoint reuses the store's verbose snapshot form instead,
// since it is read once per replica boot.
type WireTriple struct {
	// S, P, O are the subject, predicate and object names.
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// Triple converts the wire form back to a store triple.
func (t WireTriple) Triple() store.Triple {
	return store.Triple{Subject: t.S, Predicate: t.P, Object: t.O}
}

// Frame is one generation of the delta feed: the asserted mutation of
// exactly one primary write, applied Add first, then Remove — a triple in
// both ends absent.
type Frame struct {
	// Gen is the primary generation this frame produces when applied.
	// Frames form a dense chain: a frame's Gen is its predecessor's plus 1.
	Gen uint64 `json:"gen"`
	// Add is the triples the write asserted into the base store.
	Add []WireTriple `json:"add,omitempty"`
	// Remove is the triples the write retracted from the base store.
	Remove []WireTriple `json:"remove,omitempty"`
}

// Trailer is the final line of every /repl/deltas response. Its Done field
// distinguishes it from frames; Gen is the primary's latest generation at
// serve time (the replica's staleness reference), and Oldest the oldest
// retained frame generation (latest+1 when nothing is retained), so a
// replica can see how close it is running to the retention cliff.
type Trailer struct {
	// Done is always true; its presence marks the trailer line.
	Done bool `json:"done"`
	// Gen is the primary's latest generation when the response was built.
	Gen uint64 `json:"gen"`
	// Oldest is the oldest retained frame generation.
	Oldest uint64 `json:"oldest"`
}

// feedLine is the union wire type one /repl/deltas response line decodes
// into: a Trailer when Done is set, a Frame otherwise. Gen is shared.
type feedLine struct {
	Frame
	Done   bool   `json:"done,omitempty"`
	Oldest uint64 `json:"oldest,omitempty"`
}

// DecodeLine parses one line of a /repl/deltas response into either a frame
// or the trailer (exactly one of the two results is non-nil on success).
// Beyond JSON well-formedness it enforces the frame invariants the replica
// relies on: a generation is present and triples have no empty component.
// It never panics on arbitrary input — FuzzDecodeLine holds it to that.
func DecodeLine(line []byte) (*Frame, *Trailer, error) {
	var ln feedLine
	if err := json.Unmarshal(line, &ln); err != nil {
		return nil, nil, fmt.Errorf("repl: decoding feed line: %w", err)
	}
	if ln.Done {
		return nil, &Trailer{Done: true, Gen: ln.Gen, Oldest: ln.Oldest}, nil
	}
	fr := ln.Frame
	if err := validateFrame(fr); err != nil {
		return nil, nil, err
	}
	return &fr, nil, nil
}

// validateFrame enforces the invariants DecodeLine documents.
func validateFrame(fr Frame) error {
	if fr.Gen == 0 {
		return fmt.Errorf("repl: frame without a generation")
	}
	for _, side := range [2][]WireTriple{fr.Add, fr.Remove} {
		for _, t := range side {
			if t.S == "" || t.P == "" || t.O == "" {
				return fmt.Errorf("repl: frame at generation %d has a triple with an empty component", fr.Gen)
			}
		}
	}
	return nil
}
