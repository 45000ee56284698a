package repl

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

const trailerLine = `{"done":true,"gen":42,"oldest":30}` + "\n"

// decodeFeed runs readFeed over body from applied and collects what it
// hands to apply.
func decodeFeed(body string, applied uint64) ([]Frame, Trailer, error) {
	var got []Frame
	tr, err := readFeed(strings.NewReader(body), applied, func(fr Frame) error {
		got = append(got, fr)
		return nil
	})
	return got, tr, err
}

// The TestDecodeLine* tests pin how readFeed decodes one line of a body: a
// frame, the trailer, and the malformed lines it refuses.

func TestDecodeLineFrame(t *testing.T) {
	got, _, err := decodeFeed(`{"gen":7,"add":[{"s":"a","p":"type","o":"b"}]}`+"\n"+trailerLine, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("applied %d frames, want the one", len(got))
	}
	fr := got[0]
	if fr.Gen != 7 || len(fr.Add) != 1 || len(fr.Remove) != 0 {
		t.Fatalf("frame = %+v", fr)
	}
	if got := fr.Add[0].Triple(); got.Subject != "a" || got.Predicate != "type" || got.Object != "b" {
		t.Fatalf("triple = %+v", got)
	}
}

func TestDecodeLineTrailer(t *testing.T) {
	got, tr, err := decodeFeed(trailerLine, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("trailer line decoded as frame %+v", got)
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
			if got, tr, err := decodeFeed(tc.line+"\n"+trailerLine, 2); err == nil || len(got) != 0 {
				t.Fatalf("accepted %q: applied=%+v trailer=%+v err=%v", tc.line, got, tr, err)
			}
		})
	}
}

// TestReadFeedBody pins what Replica.poll relies on beyond single lines:
// which bodies are a successful round, which demand a re-snapshot
// (errWindowPassed) and which are a plain retry — and that whatever was
// applied before the error stays applied, in order, exactly once.
func TestReadFeedBody(t *testing.T) {
	frame := func(gen string) string { return `{"gen":` + gen + `,"add":[{"s":"a","p":"b","o":"c"}]}` + "\n" }
	trailer := func(gen, oldest string) string {
		return `{"done":true,"gen":` + gen + `,"oldest":` + oldest + `}` + "\n"
	}
	for _, tc := range []struct {
		name, body string
		applied    uint64
		want       []uint64 // generations handed to apply
		ok, passed bool     // err == nil; errors.Is(err, errWindowPassed)
	}{
		{"frames then trailer", frame("3") + frame("4") + trailer("4", "1"), 2, []uint64{3, 4}, true, false},
		{"caught up", trailer("2", "1"), 2, nil, true, false},
		{"duplicated frames are skipped", frame("1") + frame("2") + frame("3") + trailer("3", "1"), 2, []uint64{3}, true, false},
		{"a replayed response applies nothing", frame("1") + frame("2") + trailer("2", "1"), 2, nil, true, false},
		{"a frame repeated mid-stream is skipped", frame("3") + frame("3") + frame("4") + trailer("4", "1"), 2, []uint64{3, 4}, true, false},
		{"skipped generation", frame("4") + trailer("4", "1"), 2, nil, false, true},
		{"skipped generation mid-stream", frame("3") + frame("5") + trailer("5", "1"), 2, []uint64{3}, false, true},
		{"missing trailer", frame("3"), 2, []uint64{3}, false, false},
		{"empty body", "", 2, nil, false, false},
		{"torn line", frame("3") + `{"gen":4,"add":[{"s":"a"`, 2, []uint64{3}, false, false},
		{"frame after the trailer", frame("3") + trailer("4", "1") + frame("4"), 2, []uint64{3}, false, false},
		{"two trailers", trailer("2", "1") + trailer("2", "1"), 2, nil, false, false},
		{"history rewound", trailer("1", "1"), 2, nil, false, true},
		{"trailer behind its own frames", frame("3") + trailer("2", "1"), 2, []uint64{3}, false, true},
		{"oldest past latest", trailer("4", "6"), 2, nil, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := decodeFeed(tc.body, tc.applied)
			var gens []uint64
			for _, fr := range got {
				gens = append(gens, fr.Gen)
			}
			if !reflect.DeepEqual(gens, tc.want) {
				t.Errorf("applied generations %v, want %v", gens, tc.want)
			}
			if (err == nil) != tc.ok || errors.Is(err, errWindowPassed) != tc.passed {
				t.Errorf("err = %v, want ok=%v windowPassed=%v", err, tc.ok, tc.passed)
			}
		})
	}

	// An apply error ends the round at that frame.
	boom := errors.New("boom")
	n := 0
	_, err := readFeed(strings.NewReader(frame("3")+frame("4")+trailer("4", "1")), 2, func(Frame) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("apply error: err=%v after %d applies", err, n)
	}
}

// TestFrameRoundTrip pins the wire format: what the primary's handler
// encodes, readFeed reads back unchanged — a one-sided frame without its
// empty side, a two-sided frame (one write that asserted and retracted, a
// triple on both sides included) with both.
func TestFrameRoundTrip(t *testing.T) {
	in := Frame{
		Gen:    9,
		Add:    []WireTriple{{S: "x", P: "type", O: "c"}, {S: "y", P: "type", O: "c"}},
		Remove: nil,
	}
	roundTrip := func() Frame {
		t.Helper()
		var body bytes.Buffer
		Window{Frames: []Frame{in}, Latest: in.Gen, Oldest: in.Gen}.encode(&body)
		if in.Remove == nil && strings.Contains(body.String(), "remove") {
			t.Fatalf("empty fields serialized: %s", &body)
		}
		got, tr, err := decodeFeed(body.String(), in.Gen-1)
		if err != nil || len(got) != 1 || tr != (Trailer{Done: true, Gen: in.Gen, Oldest: in.Gen}) {
			t.Fatalf("decode of %q: frames=%v trailer=%+v err=%v", &body, got, tr, err)
		}
		return got[0]
	}
	if fr := roundTrip(); fr.Gen != in.Gen || len(fr.Add) != 2 || fr.Add[1] != in.Add[1] {
		t.Fatalf("round trip changed the frame: %+v", fr)
	}
	in.Remove = []WireTriple{{S: "y", P: "type", O: "c"}, {S: "z", P: "type", O: "c"}}
	if fr := roundTrip(); !reflect.DeepEqual(fr, in) {
		t.Fatalf("round trip changed the two-sided frame: %+v, want %+v", fr, in)
	}
}

// FuzzReadFeed holds readFeed — the decoder Replica.poll runs — to its
// contract on arbitrary bodies: it never panics, it hands apply nothing but
// well-formed successors of the applied generation (so no generation at or
// below it, none twice, none skipped), and it accepts a body only when its
// last line, and no earlier one, is the trailer.
func FuzzReadFeed(f *testing.F) {
	for _, body := range []string{
		// FuzzDecodeLine's corpus, one line each (as bodies, all but the
		// trailer lack a trailer).
		`{"gen":1,"add":[{"s":"a","p":"b","o":"c"}]}`,
		`{"gen":2,"remove":[{"s":"a","p":"b","o":"c"}]}`,
		`{"gen":3,"reset":true}`,
		`{"gen":4,"add":[{"s":"a","p":"b","o":"c"}],"remove":[{"s":"x","p":"y","o":"z"}]}`,
		`{"done":true,"gen":42,"oldest":30}`,
		`{}`,
		`null`,
		`[1,2,3]`,
		// Whole bodies.
		`{"gen":1,"add":[{"s":"a","p":"b","o":"c"}]}` + "\n" + `{"gen":2,"remove":[{"s":"a","p":"b","o":"c"}]}` + "\n" + `{"done":true,"gen":2,"oldest":1}` + "\n",
		`{"gen":1,"add":[{"s":"a","p":"b","o":"c"}]}` + "\n" + `{"gen":3,"add":[{"s":"a","p":"b","o":"d"}]}` + "\n" + `{"done":true,"gen":3,"oldest":1}` + "\n",
		`{"done":true,"gen":2,"oldest":1}` + "\n" + `{"gen":3,"add":[{"s":"a","p":"b","o":"c"}]}` + "\n",
		`{"gen":1,"add":[{"s":"a","p":"b","o":"c"}]}` + "\n" + `{"gen":2,"add":[{"s":"a"`,
	} {
		f.Add([]byte(body), uint64(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, applied uint64) {
		last := applied
		_, err := readFeed(bytes.NewReader(body), applied, func(fr Frame) error {
			if fr.Gen != last+1 {
				t.Fatalf("applied generation %d after %d: %s", fr.Gen, last, body)
			}
			last = fr.Gen
			for _, tr := range append(append([]WireTriple{}, fr.Add...), fr.Remove...) {
				if tr.S == "" || tr.P == "" || tr.O == "" {
					t.Fatalf("applied a triple with an empty component: %s", body)
				}
			}
			return nil
		})
		if err != nil {
			return
		}
		// An accepted body, re-read with nothing but encoding/json: its last
		// value is the trailer and no earlier one is.
		trailers, lastIsTrailer := 0, false
		for dec := json.NewDecoder(bytes.NewReader(body)); ; {
			var ln struct {
				Done bool `json:"done"`
			}
			if dec.Decode(&ln) != nil {
				break
			}
			if lastIsTrailer = ln.Done; ln.Done {
				trailers++
			}
		}
		if trailers != 1 || !lastIsTrailer {
			t.Fatalf("accepted a body whose trailer is not its one last line: %s", body)
		}
	})
}
