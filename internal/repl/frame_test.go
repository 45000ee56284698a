package repl

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestDecodeLineFrame(t *testing.T) {
	fr, tr, err := DecodeLine([]byte(`{"gen":7,"add":[{"s":"a","p":"type","o":"b"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		t.Fatalf("frame line decoded as trailer %+v", tr)
	}
	if fr.Gen != 7 || len(fr.Add) != 1 || len(fr.Remove) != 0 {
		t.Fatalf("frame = %+v", fr)
	}
	if got := fr.Add[0].Triple(); got.Subject != "a" || got.Predicate != "type" || got.Object != "b" {
		t.Fatalf("triple = %+v", got)
	}
}

func TestDecodeLineTrailer(t *testing.T) {
	fr, tr, err := DecodeLine([]byte(`{"done":true,"gen":42,"oldest":30}`))
	if err != nil {
		t.Fatal(err)
	}
	if fr != nil {
		t.Fatalf("trailer line decoded as frame %+v", fr)
	}
	if !tr.Done || tr.Gen != 42 || tr.Oldest != 30 {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestDecodeLineRejects(t *testing.T) {
	for _, tc := range []struct {
		name, line string
	}{
		{"not json", `{"gen":`},
		{"no generation", `{"add":[{"s":"a","p":"b","o":"c"}]}`},
		{"empty component", `{"gen":3,"add":[{"s":"a","p":"","o":"c"}]}`},
		{"empty remove component", `{"gen":3,"remove":[{"s":"","p":"b","o":"c"}]}`},
		{"empty component beside a valid side", `{"gen":3,"add":[{"s":"a","p":"b","o":"c"}],"remove":[{"s":"x","p":"y","o":""}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if fr, tr, err := DecodeLine([]byte(tc.line)); err == nil {
				t.Fatalf("accepted %q as frame=%+v trailer=%+v", tc.line, fr, tr)
			}
		})
	}
}

// TestFrameRoundTrip pins the wire format: what the primary's handler
// encodes, DecodeLine reads back unchanged — a one-sided frame without its
// empty side, a two-sided frame (one write that asserted and retracted, a
// triple on both sides included) with both.
func TestFrameRoundTrip(t *testing.T) {
	in := Frame{
		Gen:    9,
		Add:    []WireTriple{{S: "x", P: "type", O: "c"}, {S: "y", P: "type", O: "c"}},
		Remove: nil,
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	fr, tr, err := DecodeLine(blob)
	if err != nil || tr != nil {
		t.Fatalf("decode: frame=%v trailer=%v err=%v", fr, tr, err)
	}
	if fr.Gen != in.Gen || len(fr.Add) != 2 || fr.Add[1] != in.Add[1] {
		t.Fatalf("round trip changed the frame: %+v", fr)
	}
	if strings.Contains(string(blob), "remove") {
		t.Fatalf("empty fields serialized: %s", blob)
	}

	in.Remove = []WireTriple{{S: "y", P: "type", O: "c"}, {S: "z", P: "type", O: "c"}}
	if blob, err = json.Marshal(in); err != nil {
		t.Fatal(err)
	}
	fr, tr, err = DecodeLine(blob)
	if err != nil || tr != nil {
		t.Fatalf("decode of a two-sided frame: frame=%v trailer=%v err=%v", fr, tr, err)
	}
	if !reflect.DeepEqual(*fr, in) {
		t.Fatalf("round trip changed the two-sided frame: %+v, want %+v", *fr, in)
	}
}

// FuzzDecodeLine holds DecodeLine to its contract on arbitrary input: it
// must never panic, and anything it accepts must satisfy the frame
// invariants the replica's apply loop relies on.
func FuzzDecodeLine(f *testing.F) {
	f.Add([]byte(`{"gen":1,"add":[{"s":"a","p":"b","o":"c"}]}`))
	f.Add([]byte(`{"gen":2,"remove":[{"s":"a","p":"b","o":"c"}]}`))
	f.Add([]byte(`{"gen":3,"reset":true}`))
	f.Add([]byte(`{"gen":4,"add":[{"s":"a","p":"b","o":"c"}],"remove":[{"s":"x","p":"y","o":"z"}]}`))
	f.Add([]byte(`{"done":true,"gen":42,"oldest":30}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, line []byte) {
		fr, tr, err := DecodeLine(line)
		if err != nil {
			if fr != nil || tr != nil {
				t.Fatalf("error with non-nil result: frame=%v trailer=%v", fr, tr)
			}
			return
		}
		if (fr == nil) == (tr == nil) {
			t.Fatalf("accepted line must yield exactly one of frame/trailer: frame=%v trailer=%v", fr, tr)
		}
		if fr == nil {
			return
		}
		if fr.Gen == 0 {
			t.Fatalf("accepted frame without a generation: %s", line)
		}
		for _, tr := range append(append([]WireTriple{}, fr.Add...), fr.Remove...) {
			if tr.S == "" || tr.P == "" || tr.O == "" {
				t.Fatalf("accepted triple with empty component: %s", line)
			}
		}
	})
}
