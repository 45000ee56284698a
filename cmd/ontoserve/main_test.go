package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
)

// TestMalformedSnapshotRefusesToServe is the fail-fast contract: a snapshot
// with a malformed tail must abort startup with a clear error AND leave the
// base store untouched — store.Restore keeps the valid prefix in whatever
// store it writes, so buildConfig must stage through a scratch store.
func TestMalformedSnapshotRefusesToServe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.triples")
	content := `{"Subject":"a","Predicate":"b","Object":"c"}
{"Subject":"d","Predicate":"e","Object":"f"}
this line is not JSON
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	base := store.New()
	_, err := buildConfig(base, true, false, path, "", "")
	if err == nil {
		t.Fatal("buildConfig served a snapshot with a malformed tail")
	}
	if !strings.Contains(err.Error(), "partially restored") {
		t.Fatalf("error %q does not explain the partial-restore refusal", err)
	}
	if base.Len() != 0 {
		t.Fatalf("the valid prefix (%d triples) leaked into the base store; it must stay empty", base.Len())
	}
}

// TestDurableBootSequence mirrors run()'s boot order — open the engine over
// the base store, seed the corpus through the journal on the first boot, and
// restart: recovery must reproduce the store, the second boot must NOT
// re-assert the corpus (the log is the single source of truth once the
// directory holds state — re-seeding would resurrect durably removed corpus
// triples).
func TestDurableBootSequence(t *testing.T) {
	dataDir := t.TempDir()

	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: dataDir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig(base, eng.LastSeq() == 0, true, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Base != base {
		t.Fatal("buildConfig must serve the caller's (journaled) store")
	}
	loaded := base.Len()
	if loaded == 0 {
		t.Fatal("paper corpus loaded nothing")
	}
	if eng.LastSeq() == 0 {
		t.Fatal("corpus load journaled nothing; the boot order is wrong")
	}
	// A client durably removes one corpus triple; the restart below must not
	// bring it back.
	removed := base.Triples()[0]
	if !base.Remove(removed) {
		t.Fatalf("Remove(%v) found nothing", removed)
	}
	seqBeforeRestart := eng.LastSeq()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recover, then rebuild the config exactly as run() does — with
	// seeding off, because the directory holds state.
	base2 := store.New()
	eng2, err := durable.Open(base2, durable.Options{Dir: dataDir, Fsync: durable.FsyncOff})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer eng2.Close()
	if base2.Len() != loaded-1 {
		t.Fatalf("recovered %d triples, served %d before restart", base2.Len(), loaded-1)
	}
	if _, err := buildConfig(base2, eng2.LastSeq() == 0, true, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if base2.Contains(removed) {
		t.Fatalf("restart resurrected the durably removed triple %v", removed)
	}
	if base2.Len() != loaded-1 {
		t.Fatalf("non-seeding boot changed the recovered store: %d -> %d triples", loaded-1, base2.Len())
	}
	if got := eng2.LastSeq(); got != seqBeforeRestart {
		t.Fatalf("non-seeding boot appended log records: seq %d -> %d", seqBeforeRestart, got)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-paper", "-data-dir", t.TempDir(), "-fsync", "sometimes"}, &stderr); code != 2 {
		t.Fatalf("run with a bad -fsync = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	// The flag is checked whether or not a data directory makes it matter.
	stderr.Reset()
	if code := run([]string{"-paper", "-fsync", "sometimes"}, &stderr); code != 2 || !strings.Contains(stderr.String(), "sometimes") {
		t.Fatalf("run with a bad -fsync and no -data-dir = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{}, &stderr); code != 2 {
		t.Fatalf("run with no corpus = %d, want 2", code)
	}
	// A replica's corpus is the primary's snapshot: every local corpus or
	// durability flag is a configuration conflict, not a boot.
	for _, args := range [][]string{
		{"-replicate-from", "http://p:1", "-paper"},
		{"-replicate-from", "http://p:1", "-annotations", "x.triples"},
		{"-replicate-from", "http://127.0.0.1:1", "-f", "x.tbox"},
		{"-replicate-from", "http://p:1", "-data-dir", t.TempDir()},
	} {
		stderr.Reset()
		if code := run(args, &stderr); code != 2 {
			t.Fatalf("run with %v = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "replicate-from") {
			t.Fatalf("conflict error does not explain itself: %s", stderr.String())
		}
	}
}

// TestMiBFlagZeroDisables: -cache and -checkpoint-mib say 0 to mean off,
// while the Config and Options fields they set pick a default at 0; a
// -checkpoint-mib 0 used to checkpoint every 64 MiB.
func TestMiBFlagZeroDisables(t *testing.T) {
	for _, c := range []struct {
		mib  int
		want int64
	}{{0, -1}, {-1, -1}, {1, 1 << 20}, {durable.DefaultCheckpointBytes >> 20, durable.DefaultCheckpointBytes}} {
		if got := budget(c.mib); got != c.want {
			t.Errorf("budget(%d) = %d, want %d", c.mib, got, c.want)
		}
	}
}

// TestSettableValues pins the configuration surface: every flag ontoserve
// parses and every exported field of the three option structs it fills. A
// new knob has to be added to these lists on purpose.
func TestSettableValues(t *testing.T) {
	var usage strings.Builder
	if code := run([]string{"-h"}, &usage); code != 0 {
		t.Fatalf("run -h = %d: %s", code, usage.String())
	}
	var flags []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ := strings.Cut(rest, " ")
			flags = append(flags, name)
		}
	}
	fields := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				names = append(names, typ.Field(i).Name)
			}
		}
		return names
	}
	surface := []struct {
		name      string
		got, want []string
	}{
		{"flags", flags, []string{"addr", "annotations", "cache", "checkpoint-mib", "data-dir", "f", "fsync",
			"max-solutions", "paper", "pprof-addr", "replicate-from", "rules", "slow-query", "slow-query-log", "timeout"}},
		{"server.Config", fields(server.Config{}), []string{"Base", "Rules", "Durable", "QueryTimeout",
			"MaxSolutions", "CacheMaxBytes", "Metrics", "SlowQueryThreshold", "SlowQueryLog", "Replica"}},
		{"durable.Options", fields(durable.Options{}), []string{"Dir", "Fsync", "CheckpointBytes", "Metrics"}},
		{"repl.Options", fields(repl.Options{}), []string{"Primary", "Client", "Logger"}},
	}
	total := 0
	for _, s := range surface {
		if !slices.Equal(s.got, s.want) {
			t.Errorf("%s = %v, want %v", s.name, s.got, s.want)
		}
		total += len(s.got)
	}
	t.Logf("%d settable values (%d flags, %d + %d + %d option fields)",
		total, len(flags), len(surface[1].got), len(surface[2].got), len(surface[3].got))
	if total != 32 {
		t.Errorf("%d settable values, want 32", total)
	}
}

// TestReplicateFromMustBeAURL: "-replicate-from localhost:8080" parses as a
// URL (scheme "localhost") and used to fail at the first request with
// "unsupported protocol scheme"; it is refused up front, naming the value.
func TestReplicateFromMustBeAURL(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-replicate-from", "localhost:8080"}, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), `"localhost:8080"`) || strings.Contains(stderr.String(), "unsupported protocol") {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
}

// lockedBuffer is a stderr the test can read while run is still writing.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestSIGTERMWithParkedPoll is the operator's view of a primary stopping
// while a replica is attached: a wait=25s long poll is parked, an
// acknowledged write sits in an unsynced log tail (-fsync off), and SIGTERM must still end in exit 0 and "shut
// down cleanly" within a second or so — the poll answered, the engine closed
// — with the write in the reopened directory.
func TestSIGTERMWithParkedPoll(t *testing.T) {
	dir := t.TempDir()
	var stderr lockedBuffer
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-paper", "-addr", "127.0.0.1:0", "-data-dir", dir,
			"-fsync", "off"}, &stderr)
	}()
	// The listen address is logged once run is past signal.NotifyContext, so
	// from then on SIGTERM cancels run's context instead of killing the test.
	var url string
	for deadline := time.Now().Add(10 * time.Second); url == ""; time.Sleep(5 * time.Millisecond) {
		if _, rest, ok := strings.Cut(stderr.String(), "triples on "); ok {
			url, _, _ = strings.Cut(rest, "\n")
		} else if time.Now().After(deadline) {
			t.Fatalf("ontoserve never started serving: %s", stderr.String())
		}
	}

	resp, err := http.Post(url+"/triples", "application/json",
		strings.NewReader(`{"add":[{"subject":"sigterm-witness","predicate":"type","object":"car"}]}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /triples: %v %v", resp, err)
	}
	resp.Body.Close()

	var stats struct {
		Engine struct {
			Generation uint64 `json:"generation"`
			Digest     string `json:"digest"`
		} `json:"engine"`
	}
	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Engine.Generation != 1 {
		t.Fatalf("/stats after one write: %+v, %v", stats, err)
	}
	polled := make(chan string, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/repl/deltas?from=%d&digest=%s&wait=25s", url, stats.Engine.Generation, stats.Engine.Digest))
		if err != nil {
			polled <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		polled <- resp.Status + " " + string(body)
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 0 || !strings.Contains(stderr.String(), "shut down cleanly") {
			t.Fatalf("exit %d after %v: %s", code, time.Since(start), stderr.String())
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("still running 3s after SIGTERM (the parked poll is holding the shutdown): %s", stderr.String())
	}
	if got := <-polled; got != "200 OK " {
		t.Fatalf("the parked poll was answered %q, want 200 and nothing", got)
	}

	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopening %s: %v", dir, err)
	}
	defer eng.Close()
	if !base.Contains(store.Triple{Subject: "sigterm-witness", Predicate: "type", Object: "car"}) {
		t.Fatal("the acknowledged write is not in the reopened directory")
	}
}
