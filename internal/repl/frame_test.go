package repl

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/store"
)

// These tests pin how a replica reads a /repl/deltas body — durable's
// Follower, whose checks are recovery's — over bodies a real log serves and
// the damage a connection or a confused primary can do to them.

// TestDecodeLineFrame: one write's body hands the write to apply whole, by
// name — adds, then removes — with the position the primary recorded, and
// the follower stands at that position after it.
func TestDecodeLineFrame(t *testing.T) {
	l := newLog(t)
	l.write()
	l.write()
	m := newMirror(t, l.eng)
	from := m.f.Position()
	// item-3 typed and item-2's type retracted.
	at := l.write()
	type write struct {
		adds, removes []store.Triple
		at            store.Position
	}
	var got []write
	n, err := m.f.Read(l.read(from, "").body, func(adds, removes []store.Triple, at store.Position) error {
		got = append(got, write{slices.Clone(adds), slices.Clone(removes), at})
		return m.apply(adds, removes, at)
	})
	want := []write{{
		adds:    []store.Triple{{Subject: "item-3", Predicate: store.TypePredicate, Object: "c1"}},
		removes: []store.Triple{{Subject: "item-2", Predicate: store.TypePredicate, Object: "c0"}},
		at:      at,
	}}
	if err != nil || n != 1 || len(got) != 1 || !slices.Equal(got[0].adds, want[0].adds) || !slices.Equal(got[0].removes, want[0].removes) || got[0].at != at {
		t.Fatalf("read %d writes %+v, %v; want %+v", n, got, err, want)
	}
	if m.f.Position() != at {
		t.Fatalf("the follower stands at %v after the write at %v", m.f.Position(), at)
	}
}

// TestReadFeedBody pins what Replica.poll relies on beyond one write: which
// bodies are a successful round, which demand a re-snapshot
// (durable.ErrDiverged) and which are a plain retry (durable.ErrTorn) — and
// that whatever was applied before the error stays applied, in order,
// exactly once.
func TestReadFeedBody(t *testing.T) {
	l := newLog(t)
	l.write()
	snap, at0, err := l.eng.Snapshot() // every case's follower starts here
	if err != nil {
		t.Fatal(err)
	}
	at := []store.Position{at0}
	for i := 0; i < 4; i++ {
		at = append(at, l.write())
	}
	// body is the records after write from, through write through.
	body := func(from, through int) []byte {
		return l.read(at[from], fmt.Sprintf("&max=%d", through-from)).body
	}
	whole := body(0, 4)
	fs := frames(whole)
	for _, tc := range []struct {
		name      string
		pre, body []byte           // pre is read first, and must read cleanly
		want      []store.Position // positions handed to apply
		err       error            // of body's read: nil, durable.ErrTorn or durable.ErrDiverged
	}{
		{"whole writes", nil, whole, at[1:], nil},
		{"caught up", whole, nil, at[1:], nil},
		{"empty body", nil, []byte{}, nil, nil},
		{"a replayed response applies nothing", whole, whole, at[1:], nil},
		{"duplicated frames are skipped", body(0, 2), whole, at[1:], nil},
		{"a frame repeated mid-stream is refused", nil, slices.Concat(body(0, 1), frames(body(0, 1))[len(frames(body(0, 1)))-1], body(1, 4)), at[1:2], durable.ErrDiverged},
		{"skipped generation", nil, body(1, 4), nil, durable.ErrDiverged},
		{"skipped generation mid-stream", nil, slices.Concat(body(0, 1), body(2, 4)), at[1:2], durable.ErrDiverged},
		{"torn line", nil, whole[:len(whole)-3], at[1:4], durable.ErrTorn},
		{"a body ending between writes", nil, slices.Concat(fs[:len(fs)-1]...), at[1:4], nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := loadMirror(t, snap)
			var got []store.Position
			read := func(body []byte) error {
				_, err := m.f.Read(body, func(adds, removes []store.Triple, at store.Position) error {
					got = append(got, at)
					return m.apply(adds, removes, at)
				})
				return err
			}
			if err := read(tc.pre); err != nil {
				t.Fatalf("the first body: %v", err)
			}
			err := read(tc.body)
			if !slices.Equal(got, tc.want) {
				t.Errorf("applied %v, want %v", got, tc.want)
			}
			if (tc.err == nil) != (err == nil) || (tc.err != nil && !errors.Is(err, tc.err)) {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
		})
	}

	// An apply error ends the read at that write, and the follower stands
	// before it.
	boom := errors.New("boom")
	m := loadMirror(t, snap)
	n := 0
	_, err = m.f.Read(whole, func([]store.Triple, []store.Triple, store.Position) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 || m.f.Position() != at[0] {
		t.Fatalf("apply error: err=%v after %d applies, follower at %v", err, n, m.f.Position())
	}
}

// FuzzReadFeed throws arbitrary bodies at the replica's reader of
// /repl/deltas: whatever the bytes, it must never panic, fail only with
// durable.ErrTorn or durable.ErrDiverged (or the apply's own error, a
// digest mismatch — itself ErrDiverged), hand apply whole writes only — each
// one's names minted by the body's dictionary records or the snapshot, and
// left standing where the last accepted write put it — and, read again
// after a clean read, apply nothing.
func FuzzReadFeed(f *testing.F) {
	l := newLog(f)
	l.write()
	snap, at0, err := l.eng.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.write()
	}
	whole := l.read(at0, "").body
	fs := frames(whole)
	f.Add(whole)
	f.Add([]byte{})
	f.Add(whole[:len(whole)/2])
	f.Add(whole[:len(whole)-1])
	f.Add(append(slices.Clone(whole), whole...))
	f.Add(slices.Concat(fs[1:]...))                         // the first record missing: a gap
	f.Add(slices.Concat(append([][]byte{fs[0]}, fs...)...)) // the first record twice
	f.Add(slices.Concat(fs[len(fs)/2:]...))
	f.Add(bytes.Repeat([]byte{0}, 16))
	f.Add([]byte(`{"gen":1,"add":[{"s":"a","p":"b","o":"c"}]}` + "\n"))
	corrupt := slices.Clone(whole)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	f.Add(slices.Concat(fs[0], fs[2], fs[1]))
	f.Fuzz(func(t *testing.T, body []byte) {
		m := loadMirror(t, snap)
		var applied []store.Position
		mismatched := false // the last write reached the store but not its digest
		_, err := m.f.Read(body, func(adds, removes []store.Triple, at store.Position) error {
			for _, tr := range append(slices.Clone(adds), removes...) {
				if tr.Subject == "" || tr.Predicate == "" || tr.Object == "" {
					t.Fatalf("a write names an unminted or empty id: %v", tr)
				}
			}
			if err := m.apply(adds, removes, at); err != nil {
				mismatched = true
				return err
			}
			applied = append(applied, at)
			return nil
		})
		if err != nil && !errors.Is(err, durable.ErrTorn) && !errors.Is(err, durable.ErrDiverged) {
			t.Fatalf("read failed with %v, neither torn nor diverged", err)
		}
		want := at0
		if len(applied) > 0 {
			want = applied[len(applied)-1]
		}
		if m.f.Position() != want {
			t.Fatalf("the follower stands at %v, the last write applied left %v", m.f.Position(), want)
		}
		if got := m.st.Position().Digest; !mismatched && got != want.Digest {
			t.Fatalf("the mirror's digest %v is not its position's %v", got, want.Digest)
		}
		if err == nil {
			n, err := m.read(body)
			if n != 0 || err != nil {
				t.Fatalf("reading a clean body again applied %d writes: %v", n, err)
			}
		}
	})
}
