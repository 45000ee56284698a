// Package repl is the replicated serving tier, both ends of it, as an HTTP
// shim over the primary's write-ahead log: a primary with a data directory
// serves its log (LogServer) and read replicas follow it to serve queries
// locally with bounded, observable staleness (Replica).
// repro/internal/server mounts the LogServer's two handlers on a durable
// primary and reports either role's state. DESIGN.md "Replication" is its
// design; API.md documents the wire protocol with captured transcripts.
//
//	GET /repl/snapshot                  — one segment over the primary's
//	                                      chain and committed log;
//	                                      X-Repl-Generation and X-Repl-Digest
//	                                      carry its stamp, the position a
//	                                      replica loading it resumes from.
//	GET /repl/deltas?from=G&digest=D    — the committed log records after the
//	                                      write that left position (G, D), as
//	                                      their on-disk frames; &wait=25s
//	                                      long-polls until a commit, &max caps
//	                                      the writes per response. 410 Gone
//	                                      when (G, D) is not on the live log.
//
// Both bodies are read with package durable's own checks (durable.Follower):
// this package never decodes a frame. frame.go holds the wire constants both
// ends share — paths, the position headers, the one pair of poll limits (25 s,
// 1024 writes), the JSON error body. feed.go is the primary: ServeSnapshot,
// ServeDeltas (parameters, the 400s, the 410 on durable.ErrGone, the long poll
// with the commit wake taken before the read, so no commit is missed), Close,
// Stats and the feed's metrics. replica.go is the consumer: New checks the
// primary URL and loads its snapshot; round is the one feed round — poll,
// Follower.Read, one Apply per whole write with the base's digest held to the
// record's, and a lost position recovered by applying the set difference to a
// fresh snapshot through the reasoner; Step runs one round with wait=0 and
// Run loops rounds with the long poll and a capped, jittered backoff. The
// status has one writer (update); Status derives the lag at read.
//
// wire_golden_test.go pins both endpoints' bytes and headers for one fixed
// history (TestWireGolden); log_test.go is the in-package tests' primary and
// a mirror store following it; feed_test.go holds the log server to the
// window, the long poll and its wake, Close and concurrent followers;
// frame_test.go pins which bodies a follower applies, retries or refuses and
// fuzzes the reader (FuzzReadFeed); roundtrip_test.go runs ServeDeltas
// against the Follower with paging, duplicated and cut responses. The replica
// tests advance replicas with Step, never a sleep, and compare digests after
// every step: e2e_test.go the replay property (TestReplayProperty) and
// TestRunFollowsTheFeed, the one test of Run; fault_test.go drops,
// duplicates and truncates one poll in four with exact counts, and parks a
// stalled consumer while timing the primary's writes; stalewindow_test.go
// the 410 → re-snapshot → converge path; epoch_test.go a primary restarted on
// its own directory (no re-snapshot) and on a wiped one.
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
