package durable_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/store"
)

// This file runs the real server over the real engine on the memory disk and
// pins both halves of the durability error contract (DESIGN.md "The disk
// seam"): a failed log write is sticky and turns every later
// content-changing /triples into a 500 while reads go on; a failed
// checkpoint is a 500 for POST /checkpoint only, is reported in
// durability.error, and is cleared by the next checkpoint that succeeds.

// failingServer is a server over a durable engine whose disk fails the
// operation op on files ending in ext while fail is set.
type failingServer struct {
	t    *testing.T
	srv  *server.Server
	fail atomic.Bool
}

func newFailingServer(t *testing.T, op, ext string) *failingServer {
	t.Helper()
	fs := &failingServer{t: t}
	inject := func(o, name string) error {
		if fs.fail.Load() && o == op && strings.HasSuffix(name, ext) {
			return syscall.EIO
		}
		return nil
	}
	base := store.New()
	eng, err := durable.OpenOnMemDisk(base, durable.Options{CheckpointBytes: -1}, inject)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := base.AddBatch([]store.Triple{
		{Subject: "beetle", Predicate: store.TypePredicate, Object: "car"},
		{Subject: "car", Predicate: "subClassOf", Object: "vehicle"},
	}); err != nil {
		t.Fatal(err)
	}
	if fs.srv, err = server.New(server.Config{Base: base, Durable: eng}); err != nil {
		t.Fatal(err)
	}
	return fs
}

// do sends one request and returns the status and body.
func (fs *failingServer) do(method, path string, body any) (int, []byte) {
	fs.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			fs.t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	fs.srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec.Code, rec.Body.Bytes()
}

// add posts a /triples request asserting one fresh instance.
func (fs *failingServer) add(name string) (int, string) {
	fs.t.Helper()
	code, body := fs.do(http.MethodPost, "/triples", server.MutateRequest{
		Add: []server.TripleJSON{{Subject: name, Predicate: store.TypePredicate, Object: "car"}},
	})
	return code, string(body)
}

// durabilityError reads durability.error off GET /stats, which must answer.
func (fs *failingServer) durabilityError() string {
	fs.t.Helper()
	code, body := fs.do(http.MethodGet, "/stats", nil)
	var st server.StatsResponse
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil || st.Durability == nil {
		fs.t.Fatalf("/stats = %d %s", code, body)
	}
	return st.Durability.Err
}

func TestServerOverFailingDisk(t *testing.T) {
	t.Run("wal fsync", func(t *testing.T) {
		fs := newFailingServer(t, "sync", ".wal")
		if code, body := fs.add("van0"); code != http.StatusOK {
			t.Fatalf("/triples on a healthy disk = %d %s", code, body)
		}
		fs.fail.Store(true)
		for _, name := range []string{"van1", "van2", "van3"} {
			if code, body := fs.add(name); code != http.StatusInternalServerError || !strings.Contains(body, "not durable") {
				t.Fatalf("/triples adding %s after the fsync failure = %d %s, want 500 not durable", name, code, body)
			}
			fs.fail.Store(false) // the log's error is sticky, not the disk's
		}
		code, body := fs.do(http.MethodPost, "/query", server.QueryRequest{BGP: "?x type car"})
		if code != http.StatusOK || !strings.Contains(string(body), "van3") {
			t.Fatalf("/query after the fsync failure = %d %s, want 200 with the applied writes", code, body)
		}
		if fs.durabilityError() == "" {
			t.Fatal("durability.error is empty on a failed log")
		}
	})

	t.Run("checkpoint publish", func(t *testing.T) {
		fs := newFailingServer(t, "rename", ".tmp")
		fs.fail.Store(true)
		if code, body := fs.do(http.MethodPost, "/checkpoint", nil); code != http.StatusInternalServerError {
			t.Fatalf("/checkpoint with a failing rename = %d %s, want 500", code, body)
		}
		if code, body := fs.add("van1"); code != http.StatusOK {
			t.Fatalf("/triples after the failed checkpoint = %d %s, want 200", code, body)
		}
		if fs.durabilityError() == "" {
			t.Fatal("durability.error is empty after a failed checkpoint")
		}
		fs.fail.Store(false)
		code, body := fs.do(http.MethodPost, "/checkpoint", nil)
		var resp server.CheckpointResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Durability.Err != "" {
			t.Fatalf("the next checkpoint = %d %s, want 200 with the error cleared", code, body)
		}
		if e := fs.durabilityError(); e != "" {
			t.Fatalf("durability.error %q survived a successful checkpoint", e)
		}
	})
}
