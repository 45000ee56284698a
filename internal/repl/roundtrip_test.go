package repl

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// randomFrame builds a frame at gen with 0–3 triples a side (never both
// empty: a frame is a write that changed something) over a small vocabulary
// that includes names JSON must escape.
func randomFrame(rng *rand.Rand, gen uint64) Frame {
	names := []string{"a", "b", "item 1", `q"uote`, "back\\slash", "é", "<x>", "line\nbreak"}
	side := func(n int) []WireTriple {
		var out []WireTriple // nil when empty, as Publish leaves it
		for i := 0; i < n; i++ {
			out = append(out, WireTriple{S: names[rng.IntN(len(names))], P: names[rng.IntN(len(names))], O: names[rng.IntN(len(names))]})
		}
		return out
	}
	na, nr := rng.IntN(4), rng.IntN(4)
	if na+nr == 0 {
		na = 1
	}
	return Frame{Gen: gen, Add: side(na), Remove: side(nr)}
}

// TestHandlerReadFeedRoundTrip is the two ends of the protocol against each
// other: whatever history the feed publishes, a consumer that pages through
// ServeDeltas and decodes every body with readFeed — bodies delivered whole,
// delivered twice (a duplicated long-poll response) or cut at a random byte
// (a connection dying mid-delta) — ends up having applied exactly the
// published frames, in order, each once.
func TestHandlerReadFeedRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		feed := newFeed(256)
		var published, applied []Frame
		var last string // the previous response body, for replays
		cursor := func() uint64 { return uint64(len(applied)) }
		consume := func(body string) (Trailer, error) {
			return readFeed(strings.NewReader(body), cursor(), func(fr Frame) error {
				applied = append(applied, fr)
				return nil
			})
		}
		for round := 0; len(applied) < 200; round++ {
			for n := rng.IntN(6); n > 0 && len(published) < 200; n-- {
				fr := randomFrame(rng, uint64(len(published)+1))
				published = append(published, fr)
				feed.Append(fr)
			}
			rec := httptest.NewRecorder()
			target := fmt.Sprintf("%s?from=%d&max=%d", DeltasPath, cursor(), 1+rng.IntN(8))
			feed.ServeDeltas(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK || rec.Header().Get(EpochHeader) != feed.epoch {
				t.Fatalf("seed %d: GET %s = %d, epoch %q", seed, target, rec.Code, rec.Header().Get(EpochHeader))
			}
			body := rec.Body.String()
			switch fault := rng.IntN(4); {
			case fault == 0 && last != "": // the previous response arrives again first
				if _, err := consume(last); err != nil {
					t.Fatalf("seed %d round %d: a replayed response is not a successful empty round: %v", seed, round, err)
				}
			case fault == 1: // the connection dies mid-body; the consumer re-polls
				cut := rng.IntN(len(body))
				if _, err := consume(body[:cut]); err == nil && cut < len(body)-1 {
					t.Fatalf("seed %d round %d: a body cut at byte %d of %d was accepted: %q", seed, round, cut, len(body), body[:cut])
				} else if errors.Is(err, errWindowPassed) {
					t.Fatalf("seed %d round %d: a torn body demanded a re-snapshot: %v", seed, round, err)
				}
			}
			tr, err := consume(body)
			if err != nil {
				t.Fatalf("seed %d round %d: whole body refused: %v\n%s", seed, round, err, body)
			}
			if tr.Gen != uint64(len(published)) {
				t.Fatalf("seed %d round %d: trailer %+v with %d published", seed, round, tr, len(published))
			}
			if !reflect.DeepEqual(applied, published[:len(applied)]) {
				t.Fatalf("seed %d round %d: applied frames are not a prefix of the published history", seed, round)
			}
			last = body
		}
		if len(applied) != len(published) {
			t.Fatalf("seed %d: applied %d of %d frames", seed, len(applied), len(published))
		}
	}
}
