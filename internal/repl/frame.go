// Package repl is the replicated serving tier, both ends of it, as an HTTP
// shim over the primary's write-ahead log: a primary with a data directory
// serves its log (LogServer) and read replicas follow it to serve queries
// locally with bounded, observable staleness (Replica).
// repro/internal/server mounts the LogServer's two handlers on a durable
// primary and reports either role's state.
//
//	GET /repl/snapshot                  — one segment over the primary's
//	                                      chain and committed log, in the
//	                                      data directory's segment format;
//	                                      X-Repl-Generation and X-Repl-Digest
//	                                      carry its stamp, the position a
//	                                      replica loading it resumes from.
//	GET /repl/deltas?from=G&digest=D    — the committed log records after the
//	                                      write that left position (G, D), as
//	                                      their on-disk frames; &wait=25s
//	                                      long-polls until a commit, &max caps
//	                                      the writes per response. The
//	                                      headers carry the latest committed
//	                                      position. 410 Gone when (G, D) is
//	                                      not on the live log.
//
// A point in the primary's history is named by a store.Position, the pair
// of a generation and the digest of the asserted store after it. The pair,
// not the generation, is the name: it survives a restart of the primary on
// the same directory (the log carries it), and it cannot be mistaken across
// histories — a primary restarted on a wiped or different directory does not
// know a replica's position, answers 410, and the replica re-snapshots. A
// replica applies each whole write through its own reasoner and compares its
// store's digest with the one the record carries, so a write applied twice
// or lost shows at once as a re-snapshot, not as silent divergence.
//
// Both bodies are read with package durable's own checks (durable.Follower):
// this package never decodes a frame. frame.go holds the wire constants both
// ends share, feed.go the primary's handlers, replica.go the consumer.
// DESIGN.md's "Replication" section describes the catch-up state machine and
// the staleness bound; API.md documents the wire protocol with captured
// transcripts.
package repl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Wire constants shared by the primary's handlers and the replica client.
const (
	// SnapshotPath and DeltasPath are the primary's replication endpoints.
	SnapshotPath = "/repl/snapshot"
	DeltasPath   = "/repl/deltas"
	// GenerationHeader and DigestHeader carry a position: a snapshot's stamp,
	// or the latest committed position of the primary's log on a deltas
	// response.
	GenerationHeader = "X-Repl-Generation"
	DigestHeader     = "X-Repl-Digest"

	binaryType = "application/octet-stream"
)

// The limits of one /repl/deltas poll. The primary caps &wait and &max at
// them (and pages by maxWrites when &max is absent); Replica.Run asks for
// exactly them, Replica.Step for maxWrites and no wait.
const (
	maxPollWait = 25 * time.Second
	maxWrites   = 1024
)

// writeError sends the serving layer's JSON error body with the given status.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}
