package repl

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/reason"
	"repro/internal/store"
)

// This file is the in-package tests' primary and consumer: a durable engine
// over a fresh directory with a reasoner writing through it, the LogServer
// over the engine, and a mirror — a plain store following the log through a
// durable.Follower, holding its digest to every record's, the replica's
// checks without the replica's HTTP.

// testLog is one primary: its engine, its reasoner and its log server.
type testLog struct {
	t   testing.TB
	eng *durable.Engine
	r   *reason.Reasoner
	srv *LogServer
	n   int // writes made by write
}

// newLog opens a primary over a fresh directory, seeded with one triple.
func newLog(t testing.TB) *testLog {
	t.Helper()
	base := store.New()
	eng, err := durable.Open(base, durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncOff, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := base.AddBatch([]store.Triple{{Subject: "c0", Predicate: reason.SubClassOfPredicate, Object: "c1"}}); err != nil {
		t.Fatal(err)
	}
	r, err := reason.Materialize(base, reason.RDFSRules())
	if err != nil {
		t.Fatal(err)
	}
	return &testLog{t: t, eng: eng, r: r, srv: NewLogServer(eng)}
}

// write applies the next write of a fixed schedule — an instance typed, and
// every third write one retracted beside it — and returns the position it
// left.
func (l *testLog) write() store.Position {
	l.t.Helper()
	l.n++
	adds := []store.Triple{{Subject: "item-" + strconv.Itoa(l.n), Predicate: store.TypePredicate, Object: "c" + strconv.Itoa(l.n%2)}}
	var removes []store.Triple
	if l.n%3 == 0 {
		removes = []store.Triple{{Subject: "item-" + strconv.Itoa(l.n-1), Predicate: store.TypePredicate, Object: "c" + strconv.Itoa((l.n-1)%2)}}
	}
	if _, _, err := l.r.Apply(adds, removes, nil); err != nil {
		l.t.Fatal(err)
	}
	return l.r.Base().Position()
}

// reply is one /repl/deltas answer.
type reply struct {
	code   int
	body   []byte
	latest uint64
}

// poll asks the log server for the records after from, with the query's
// other parameters, under ctx.
func (l *testLog) poll(ctx context.Context, from store.Position, query string) reply {
	rec := httptest.NewRecorder()
	target := fmt.Sprintf("%s?from=%d&digest=%v%s", DeltasPath, from.Gen, from.Digest, query)
	l.srv.ServeDeltas(rec, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
	latest, _ := strconv.ParseUint(rec.Header().Get(GenerationHeader), 10, 64)
	return reply{code: rec.Code, body: rec.Body.Bytes(), latest: latest}
}

// read is a poll that never parks.
func (l *testLog) read(from store.Position, query string) reply {
	return l.poll(context.Background(), from, query)
}

// mirror is a plain store following a log: each write applied adds then
// removes in one section, and held to the digest the record carries.
type mirror struct {
	st *store.Store
	f  *durable.Follower
}

// newMirror boots a mirror from the log's snapshot.
func newMirror(t testing.TB, eng *durable.Engine) *mirror {
	t.Helper()
	data, _, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return loadMirror(t, data)
}

// loadMirror boots a mirror from snapshot bytes.
func loadMirror(t testing.TB, snap []byte) *mirror {
	t.Helper()
	st := store.New()
	f, err := durable.LoadSnapshot(st, snap)
	if err != nil {
		t.Fatal(err)
	}
	return &mirror{st: st, f: f}
}

// read applies a deltas body and returns how many writes it applied.
func (m *mirror) read(body []byte) (int, error) {
	return m.f.Read(body, m.apply)
}

func (m *mirror) apply(adds, removes []store.Triple, at store.Position) error {
	tx := m.st.Begin()
	var err error
	m.st.Write(func() bool {
		if _, err = tx.AddBatch(adds); err == nil {
			for _, r := range removes {
				tx.Remove(r)
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if got := m.st.Position().Digest; got != at.Digest {
		return fmt.Errorf("mirror digest %v after the write at generation %d, the record's %v: %w", got, at.Gen, at.Digest, durable.ErrDiverged)
	}
	return nil
}

// frames splits a body at its frames' length prefixes, for tests that drop,
// repeat or reorder whole records: a test's knife, not a decoder — a frame is
// a 4-byte length, a 4-byte checksum and that many bytes.
func frames(body []byte) [][]byte {
	var out [][]byte
	for off := 0; off+8 <= len(body); {
		end := off + 8 + int(binary.LittleEndian.Uint32(body[off:]))
		if end > len(body) {
			break
		}
		out = append(out, body[off:end])
		off = end
	}
	return out
}

// within fails the test unless done closes within d.
func within(t *testing.T, d time.Duration, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not happen within %v", what, d)
	}
}
