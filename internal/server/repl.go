package server

import (
	"repro/internal/obs"
	"repro/internal/repl"
)

// This file is all the server knows of the replicated serving tier: which
// role this node plays and where that role's state is reported. The protocol
// — wire format, handlers, limits, retention, the replica's catch-up — is
// repro/internal/repl; the primary's two endpoints are rows of the route
// table and a replica's read-only mode is its primaryOnly column (server.go).

// ReplicaSource is the slice of *repl.Replica the server reads: replication
// status for /stats and /healthz, and the replica's /metrics series. A server
// configured with one is a read replica — it refuses the primary-only routes
// and does not serve the feed endpoints.
type ReplicaSource interface {
	Status() repl.Status
	RegisterMetrics(*obs.Registry)
}

// ReplicationStats is the replication block of StatsResponse and (on a
// replica) HealthResponse: the node's role plus the role-specific state —
// the log's replication window on a durable primary, the catch-up status
// (applied position, lag, reconnects) on a replica.
type ReplicationStats struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// Feed is the window of the primary's log a replica can resume from;
	// nil on a replica and on a memory-only primary.
	Feed *repl.FeedStats `json:"feed,omitempty"`
	// Replica is the replica's catch-up status; nil on a primary.
	Replica *repl.Status `json:"replica,omitempty"`
}

// replicationStats builds the node's replication block.
func (s *Server) replicationStats() *ReplicationStats {
	if s.cfg.Replica != nil {
		st := s.cfg.Replica.Status()
		return &ReplicationStats{Role: "replica", Replica: &st}
	}
	rs := &ReplicationStats{Role: "primary"}
	if s.log != nil {
		fs := s.log.Stats()
		rs.Feed = &fs
	}
	return rs
}

// registerReplMetrics exposes the node's role; the role's owner registers
// its own series.
func (s *Server) registerReplMetrics(reg *obs.Registry) {
	role := "primary"
	switch {
	case s.cfg.Replica != nil:
		role = "replica"
		s.cfg.Replica.RegisterMetrics(reg)
	case s.log != nil:
		s.log.RegisterMetrics(reg)
	}
	reg.GaugeFunc("onto_repl_role",
		"Replication role of this node (always 1; the role is the label).",
		func() float64 { return 1 },
		obs.L("role", role))
}
