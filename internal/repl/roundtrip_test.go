package repl

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/store"
)

// TestHandlerReadFeedRoundTrip is the two ends of the protocol against each
// other: whatever history the primary writes, a consumer that pages through
// ServeDeltas with a random &max and reads every body with the replica's
// Follower — bodies delivered whole, delivered twice (a duplicated long-poll
// response) or cut at a random byte (a connection dying mid-body) — ends up
// having applied exactly the primary's writes, in order, each once: its
// digest matches every record's, and its store the primary's.
func TestHandlerReadFeedRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		l := newLog(t)
		m := newMirror(t, l.eng)
		var written []store.Position
		var applied []store.Position
		var last []byte // the previous response body, for replays
		consume := func(body []byte) error {
			_, err := m.f.Read(body, func(adds, removes []store.Triple, at store.Position) error {
				if err := m.apply(adds, removes, at); err != nil {
					return err
				}
				applied = append(applied, at)
				return nil
			})
			return err
		}
		for round := 0; len(applied) < 120; round++ {
			for n := rng.IntN(6); n > 0 && len(written) < 120; n-- {
				written = append(written, l.write())
			}
			rp := l.read(m.f.Position(), fmt.Sprintf("&max=%d", 1+rng.IntN(8)))
			if rp.code != http.StatusOK {
				t.Fatalf("seed %d round %d: %d", seed, round, rp.code)
			}
			switch fault := rng.IntN(4); {
			case fault == 0 && last != nil: // the previous response arrives again first
				if err := consume(last); err != nil {
					t.Fatalf("seed %d round %d: a replayed response is not a clean read: %v", seed, round, err)
				}
			case fault == 1 && len(rp.body) > 0: // the connection dies mid-body; the consumer re-polls
				if err := consume(rp.body[:rng.IntN(len(rp.body))]); err != nil && !errors.Is(err, durable.ErrTorn) {
					t.Fatalf("seed %d round %d: a cut body is not merely torn: %v", seed, round, err)
				}
				rp = l.read(m.f.Position(), "&max=8")
			}
			if err := consume(rp.body); err != nil {
				t.Fatalf("seed %d round %d: whole body refused: %v", seed, round, err)
			}
			if !slices.Equal(applied, written[:len(applied)]) {
				t.Fatalf("seed %d round %d: the applied writes are not a prefix of the written history", seed, round)
			}
			last = rp.body
		}
		if !slices.Equal(applied, written) {
			t.Fatalf("seed %d: applied %d of %d writes", seed, len(applied), len(written))
		}
		if got, want := m.st.Triples(), l.r.Base().Triples(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: the consumer holds %d triples, the primary %d", seed, len(got), len(want))
		}
	}
}
