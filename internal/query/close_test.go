package query

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/query/exec"
	"repro/internal/store"
)

// TestCloseReturnsEveryBuffer checks the Close contract against the
// executor's pool counters: however an iteration stops — limit, consumer
// gone, interrupt inside a probe, interrupt between rows, exhaustion — every
// pooled buffer the evaluation drew has gone back exactly once by the time
// the caller is done with the iterator, and a redundant Close changes
// nothing.
func TestCloseReturnsEveryBuffer(t *testing.T) {
	triples, bgp := fanoutCase(rand.New(rand.NewSource(-1)))
	s := store.New()
	if _, err := s.AddBatch(triples); err != nil {
		t.Fatal(err)
	}
	bgp = bgp[len(bgp)-2:] // the owner → spoke join; drop the optional mark pattern
	total := len(bindings(t, Eval(s, bgp)))

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"limit: Close after the first batch", func(t *testing.T) {
			sols := Eval(s, bgp)
			if sb, ok := sols.NextBatch(); !ok || sb.Len() == 0 || sb.Len() >= total {
				t.Fatalf("first batch: ok=%v len=%d of %d solutions", ok, sb.Len(), total)
			}
			sols.Close()
			sols.Close()
			if _, ok := sols.NextBatch(); ok || sols.Next() || sols.Err() != nil {
				t.Fatalf("iterator still live after Close (err %v)", sols.Err())
			}
		}},
		{"consumer gone: ProjectFunc yield returns false", func(t *testing.T) {
			if err := Eval(s, bgp).ProjectFunc("x", func(string) bool { return false }); err != nil {
				t.Fatal(err)
			}
		}},
		{"unknown projection variable", func(t *testing.T) {
			if err := Eval(s, bgp).ProjectFunc("nope", func(string) bool { return true }); err == nil {
				t.Fatal("projection on an unknown variable succeeded")
			}
		}},
		{"interrupt inside a join probe", func(t *testing.T) {
			sols := Eval(s, bgp, Interrupt(func() bool { return true }))
			for sols.Next() {
			}
			if !errors.Is(sols.Err(), ErrInterrupted) {
				t.Fatalf("Err = %v, want ErrInterrupted", sols.Err())
			}
			sols.Close()
		}},
		{"interrupt between rows of a batch", func(t *testing.T) {
			stop := false
			sols := Eval(s, bgp, Interrupt(func() bool { return stop }))
			for n := 0; sols.Next(); n++ {
				stop = n >= 10
			}
			if !errors.Is(sols.Err(), ErrInterrupted) {
				t.Fatalf("Err = %v, want ErrInterrupted", sols.Err())
			}
		}},
		{"Close after exhaustion", func(t *testing.T) {
			sols := Eval(s, bgp)
			n := 0
			for sols.Next() {
				n++
			}
			sols.Close()
			if n != total || sols.Err() != nil {
				t.Fatalf("drained %d of %d solutions, err %v", n, total, sols.Err())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gets0, puts0 := exec.PoolCounters()
			c.run(t)
			gets1, puts1 := exec.PoolCounters()
			if g, p := gets1-gets0, puts1-puts0; g == 0 || g != p {
				t.Fatalf("pool gets %d, puts %d: want equal and nonzero", g, p)
			}
			// A double release would hand one buffer to two later queries;
			// the next evaluation must still be right.
			if got := len(bindings(t, Eval(s, bgp))); got != total {
				t.Fatalf("evaluation after the case yields %d solutions, want %d", got, total)
			}
		})
	}
}
