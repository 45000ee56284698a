package obs

import (
	"testing"
	"time"
)

// TestClockPartitions pins the request clock's contract: the stages of a
// reading, StageOther included, sum to its total exactly in integer
// nanoseconds, marks accumulate, the nil Clock is a no-op, and a request's
// worth of marks allocates nothing.
func TestClockPartitions(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		if n := s.String(); n == "" || seen[n] {
			t.Fatalf("stage %d is named %q, empty or taken", s, n)
		}
		seen[s.String()] = true
	}

	var c Clock
	c.Start()
	spin := func() {
		for end := Now() + int64(50*time.Microsecond); Now() < end; {
		}
	}
	for _, s := range []Stage{StageDecode, StageLookup, StagePlan, StageExec, StageEncode, StageExec, StageEncode} {
		spin()
		c.Mark(s)
	}
	spin() // unmarked: other
	ns, total := c.Read()
	var sum int64
	for s, v := range ns {
		if v < 0 {
			t.Fatalf("stage %s read %d ns", Stage(s), v)
		}
		sum += v
	}
	if sum != total {
		t.Fatalf("stages sum to %d ns, the total is %d", sum, total)
	}
	for _, s := range []Stage{StageDecode, StageLookup, StagePlan, StageOther} {
		if ns[s] < int64(50*time.Microsecond) {
			t.Errorf("stage %s read %d ns, want at least one 50µs spin", s, ns[s])
		}
	}
	for _, s := range []Stage{StageExec, StageEncode} {
		if ns[s] < int64(100*time.Microsecond) {
			t.Errorf("stage %s read %d ns, want two 50µs spins accumulated", s, ns[s])
		}
	}
	if ns[StagePropagate] != 0 || ns[StageCommit] != 0 {
		t.Errorf("unmarked write stages read %d / %d ns, want 0", ns[StagePropagate], ns[StageCommit])
	}
	// A second reading moves only other and the total.
	later, total2 := c.Read()
	if total2 < total || later[StageOther]-ns[StageOther] != total2-total || later[StageDecode] != ns[StageDecode] {
		t.Errorf("a later reading moved more than other: %v (total %d) after %v (total %d)", later, total2, ns, total)
	}

	var none *Clock
	none.Mark(StageDecode)
	if ns, total := none.Read(); total != 0 || ns != [NumStages]int64{} {
		t.Errorf("the nil Clock read %v, total %d", ns, total)
	}

	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Start()
		for s := Stage(0); s < NumStages; s++ {
			c.Mark(s)
		}
		ns, total = c.Read()
	}); allocs != 0 {
		t.Errorf("a clock's start, marks and reading allocate %v times, want 0", allocs)
	}
}
