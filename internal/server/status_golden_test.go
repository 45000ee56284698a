package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/repl"
	"repro/internal/store"
)

// keyPaths lists every object key of a JSON document in wire order, as dotted
// paths ("durability.segment_tiers[].start"); array elements after the first
// are taken to repeat its shape.
func keyPaths(t *testing.T, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var out []string
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("walking %q: %v", body, err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, _ := dec.Token()
				p := strings.TrimPrefix(prefix+"."+k.(string), ".")
				out = append(out, p)
				walk(p)
			}
			_, _ = dec.Token()
		case json.Delim('['):
			for i := 0; dec.More(); i++ {
				n := len(out)
				walk(prefix + "[]")
				if i > 0 {
					out = out[:n]
				}
			}
			_, _ = dec.Token()
		}
	}
	walk("")
	return out
}

// TestStatusBodiesGolden pins the key set and key order of the three status
// bodies — /stats, /checkpoint, /healthz — on each kind of node. Clients (the
// bench harness among them) read these by key; the structs behind them may be
// reshaped, the bytes may not.
func TestStatusBodiesGolden(t *testing.T) {
	const (
		head = "asserted inferred total " +
			"engine engine.rounds engine.derived engine.overdeleted engine.rederived engine.generation engine.digest engine.materialize_seconds " +
			"cache cache.entries cache.bytes cache.hits cache.misses cache.invalidations "
		dur = "durability durability.seq durability.durable_seq durability.last_fsync_ago_ms durability.fsyncs " +
			"durability.wal_bytes durability.segments durability.segment_seq " +
			"durability.segment_tiers durability.segment_tiers[].start durability.segment_tiers[].end " +
			"durability.segment_tiers[].triples durability.segment_tiers[].tombstones durability.segment_tiers[].bytes " +
			"durability.checkpoints durability.merges durability.last_merge_ms durability.write_amplification durability.recovery_seconds"
		feed = "replication replication.role replication.feed replication.feed.latest_generation " +
			"replication.feed.oldest_generation "
		primary = "replication replication.role "
		replica = "replication replication.role replication.replica replication.replica.primary " +
			"replication.replica.connected replication.replica.applied_generation replication.replica.applied_digest " +
			"replication.replica.primary_generation replication.replica.lag_generations " +
			"replication.replica.reconnects replication.replica.resnapshots replication.replica.digest_mismatches"
		tail = "queries mutations uptime_ms uptime_seconds"
	)

	durableBase := store.New()
	eng, err := durable.Open(durableBase, durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := durableBase.AddBatch(carCorpus(t).Triples()); err != nil {
		t.Fatal(err)
	}

	for _, node := range []struct {
		name                       string
		cfg                        Config
		stats, checkpoint, healthz string
	}{
		{
			name: "durable primary",
			cfg:  Config{Base: durableBase, Durable: eng},
			// /checkpoint runs first, so /stats shows a chain with one tier.
			checkpoint: dur,
			stats:      head + dur + " " + feed + tail,
			healthz:    "status triples",
		},
		{
			name:       "in-memory primary",
			cfg:        Config{},
			checkpoint: "error",
			stats:      head + primary + tail,
			healthz:    "status triples",
		},
		{
			name:       "replica",
			cfg:        Config{Replica: stubReplica{st: repl.Status{Primary: "http://p:1", Connected: true}}},
			checkpoint: "error",
			stats:      head + replica + " " + tail,
			healthz:    "status triples " + replica,
		},
	} {
		t.Run(node.name, func(t *testing.T) {
			s := newTestServer(t, node.cfg)
			for _, ep := range []struct{ method, path, want string }{
				{http.MethodPost, "/checkpoint", node.checkpoint},
				{http.MethodGet, "/stats", node.stats},
				{http.MethodGet, "/healthz", node.healthz},
			} {
				rec := do(t, s, ep.method, ep.path, nil)
				if got := strings.Join(keyPaths(t, rec.Body.Bytes()), " "); got != ep.want {
					t.Errorf("%s %s keys:\n got  %s\n want %s\n body %s", ep.method, ep.path, got, ep.want, rec.Body)
				}
			}
		})
	}
}
