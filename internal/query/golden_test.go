package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestPlannerGolden pins the planner's decisions on a fixed BGP set — the
// harness's Q1–Q4 shapes, an expanded type pattern, a disconnected pair, a
// 7-pattern BGP (the greedy path) and an unknown literal — over the join
// corpus: for each, the trace's Exhaustive, Considered, Chosen and Cost and
// every level's EstRows and Expand. The golden was written before the
// planner's patterns became exec.Pattern steps (PR 25) and must pass
// unchanged after.
func TestPlannerGolden(t *testing.T) {
	s := store.New()
	if _, err := s.AddBatch(joinWorkload(20_000)); err != nil {
		t.Fatal(err)
	}
	oi := e5Index(t)
	cases := []struct {
		name, bgp string
		expand    bool
	}{
		{"Q1", "?x type class-5", false},
		{"Q2", "?x type class-5 . ?x locatedIn site-5", false},
		{"Q3", "?x type class-5 . ?x locatedIn ?s . ?s partOf region-3", false},
		{"Q4", "?s partOf region-3", false},
		{"expanded", "?x type root . ?x locatedIn ?s", true},
		{"disconnected", "?x type class-7 . ?s partOf region-1", false},
		{"greedy", "?x type class-5 . ?x locatedIn ?s . ?s partOf ?r . ?y locatedIn ?s . ?y type ?c . ?z partOf ?r . ?w locatedIn ?z", false},
		{"unknown", "?x type nosuchclass . ?x locatedIn ?s", false},
	}
	var b strings.Builder
	for _, c := range cases {
		var tr Trace
		opts := []Option{WithTrace(&tr)}
		if c.expand {
			opts = append(opts, Expand(oi))
		}
		sols := Eval(s, MustParseBGP(c.bgp), opts...)
		if err := sols.Err(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sols.Close()
		fmt.Fprintf(&b, "%s: exhaustive=%v considered=%d chosen=%v cost=%v levels=", c.name, tr.Exhaustive, tr.Considered, tr.Chosen, tr.Cost)
		for _, lv := range tr.Levels {
			fmt.Fprintf(&b, " [%d est=%v expand=%d]", lv.Index, lv.EstRows, lv.Expand)
		}
		b.WriteString("\n")
	}
	if got := b.String(); got != plannerGolden {
		t.Fatalf("planner transcript differs from the golden\n got:\n%s\nwant:\n%s", got, plannerGolden)
	}
}

// plannerGolden is the transcript the planner produced before PR 25.
const plannerGolden = `Q1: exhaustive=true considered=1 chosen=[0] cost=33 levels= [0 est=32 expand=0]
Q2: exhaustive=true considered=2 chosen=[0 1] cost=97 levels= [0 est=32 expand=0] [1 est=1 expand=0]
Q3: exhaustive=true considered=6 chosen=[0 1 2] cost=161 levels= [0 est=32 expand=0] [1 est=1 expand=0] [2 est=1 expand=0]
Q4: exhaustive=true considered=1 chosen=[0] cost=14 levels= [0 est=13 expand=0]
expanded: exhaustive=true considered=2 chosen=[0 1] cost=3073 levels= [0 est=1024 expand=32] [1 est=1 expand=0]
disconnected: exhaustive=true considered=2 chosen=[1 0] cost=443 levels= [1 est=13 expand=0] [0 est=32 expand=0]
greedy: exhaustive=false considered=1 chosen=[0 1 2 5 3 4 6] cost=5.273353680577847e+06 levels= [0 est=32 expand=0] [1 est=1 expand=0] [2 est=1 expand=0] [5 est=12.714285714285714 expand=0] [3 est=111.85393258426966 expand=0] [4 est=1 expand=0] [6 est=111.85393258426966 expand=0]
unknown: exhaustive=false considered=0 chosen=[] cost=0 levels=
`
