// Package repl is the replicated serving tier, both ends of it: a primary
// ontoserve process publishes its asserted corpus as a byte-stable snapshot
// plus an ordered, generation-keyed delta feed (Feed: the retention buffer,
// the two HTTP handlers and their limits), and read replicas consume both to
// serve queries locally with bounded, observable staleness (Replica). This
// package is the only place that knows the wire format; repro/internal/server
// mounts the Feed's two handlers on a primary and reports either role's state.
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
// frame.go is the wire format: the constants both ends share, the line
// types, and the one encoder (Window.encode) and one decoder (readFeed) of a
// deltas body; feed.go is the primary, replica.go the consumer. DESIGN.md's "Replication" section describes the catch-up
// state machine and the staleness bound; API.md documents the wire protocol
// with captured transcripts.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/store"
)

// Wire constants shared by the primary's handlers and the replica client.
const (
	// SnapshotPath and DeltasPath are the primary's replication endpoints.
	SnapshotPath = "/repl/snapshot"
	DeltasPath   = "/repl/deltas"
	// GenerationHeader carries the generation a /repl/snapshot response is
	// exactly consistent with.
	GenerationHeader = "X-Repl-Generation"
	// TriplesHeader carries the triple count of a /repl/snapshot response.
	TriplesHeader = "X-Repl-Triples"
	// EpochHeader carries the primary's feed epoch on every replication
	// response. Generations restart from zero when a primary restarts, so a
	// replica pins the epoch its snapshot came from and re-snapshots the
	// moment a feed response carries a different one — before applying a
	// single frame of the new history.
	EpochHeader = "X-Repl-Epoch"

	ndjsonType = "application/x-ndjson"
)

// The limits of one /repl/deltas poll. The primary caps &wait and &max at
// them (and pages by maxFrames when &max is absent); Replica.Run asks for
// exactly them, Replica.Step for maxFrames and no wait.
const (
	maxPollWait = 25 * time.Second
	maxFrames   = 1024
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

// encode writes the window as a /repl/deltas body: one line per frame, then
// the trailer. It stops at the first write error — the client is gone and
// will re-poll from its applied generation.
func (win Window) encode(w io.Writer) {
	enc := json.NewEncoder(w) // Encode appends the newline: ndjson for free
	for _, fr := range win.Frames {
		if enc.Encode(fr) != nil {
			return
		}
	}
	_ = enc.Encode(Trailer{Done: true, Gen: win.Latest, Oldest: win.Oldest})
}

// errWindowPassed marks feed positions that no longer name a point in the
// primary's live history: 410 responses, mid-stream chain breaks, an epoch
// change (the primary restarted and its generation counter with it), or a
// latest generation behind the replica's applied one. A replica's round
// answers every form of it the same way — re-snapshot, the only operation
// that re-establishes equivalence without trusting the lost position.
var errWindowPassed = errors.New("repl: position past the primary's retained delta window")

// readFeed is the one decoder of a /repl/deltas body — Replica.poll, the
// tests and FuzzReadFeed all call it. It hands apply, in order, every frame
// that extends the chain from applied: a frame at or below applied is
// skipped (a replayed or duplicated response; a generation is never applied
// twice) and a frame that is not the successor of the last one applied is
// errWindowPassed, the same recovery as a retention gap. A frame must carry a
// generation and no triple with an empty component. The body must end with
// exactly one trailer, which readFeed returns: a missing trailer (a
// connection that died mid-delta), anything after it, and an error from apply
// are errors, and whatever apply already accepted stays applied. It never
// panics on arbitrary input.
//
// Frames stream as whitespace-separated JSON objects; json.Decoder imposes
// no line-length limit, so a frame carrying a full mutation batch decodes the
// same as a one-triple frame.
func readFeed(body io.Reader, applied uint64, apply func(Frame) error) (Trailer, error) {
	dec := json.NewDecoder(body)
	var trailer Trailer // Done once its line has been read
	for {
		// The union of the two line types: a Trailer when Done is set, a
		// Frame otherwise. Gen is shared.
		var ln struct {
			Frame
			Done   bool   `json:"done"`
			Oldest uint64 `json:"oldest"`
		}
		if err := dec.Decode(&ln); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return Trailer{}, fmt.Errorf("repl: decoding feed: %w", err)
		}
		switch fr := ln.Frame; {
		case trailer.Done:
			return Trailer{}, fmt.Errorf("repl: feed line after the trailer")
		case ln.Done:
			trailer = Trailer{Done: true, Gen: ln.Gen, Oldest: ln.Oldest}
		case fr.Gen == 0:
			return Trailer{}, fmt.Errorf("repl: frame without a generation")
		case !wellFormed(fr.Add) || !wellFormed(fr.Remove):
			return Trailer{}, fmt.Errorf("repl: frame at generation %d has a triple with an empty component", fr.Gen)
		case fr.Gen <= applied: // already applied: skip
		case fr.Gen != applied+1:
			return Trailer{}, fmt.Errorf("repl: frame %d does not follow applied generation %d: %w", fr.Gen, applied, errWindowPassed)
		default:
			if err := apply(fr); err != nil {
				return Trailer{}, err
			}
			applied = fr.Gen
		}
	}
	switch {
	case !trailer.Done:
		return Trailer{}, fmt.Errorf("repl: feed stream ended without a trailer")
	// Belt-and-braces behind the epoch gate: a primary whose latest
	// generation sits behind what this replica already applied, or whose
	// trailer is internally inconsistent, is describing a history this
	// replica is not on. Never converge on it.
	case trailer.Gen < applied:
		return Trailer{}, fmt.Errorf("repl: primary's latest generation %d is behind applied %d (history rewound): %w",
			trailer.Gen, applied, errWindowPassed)
	case trailer.Oldest > trailer.Gen+1:
		return Trailer{}, fmt.Errorf("repl: malformed trailer: oldest retained %d past latest %d: %w",
			trailer.Oldest, trailer.Gen, errWindowPassed)
	}
	return trailer, nil
}

// wellFormed reports that no triple of one side of a frame has an empty
// component.
func wellFormed(side []WireTriple) bool {
	for _, t := range side {
		if t.S == "" || t.P == "" || t.O == "" {
			return false
		}
	}
	return true
}
