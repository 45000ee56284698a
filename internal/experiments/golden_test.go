package experiments

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// timingColumns names, per experiment, the columns that report measured wall
// time — the ones EXPERIMENTS.md's header sentence exempts from determinism.
// They are the only cells the paper-table goldens do not compare, and the
// experiments that have them are the ones TestPaperTablesGolden leaves to
// TestPaperTablesGoldenTimed (paper_golden_test.go): they take seconds.
var timingColumns = map[string][]string{
	"E5c": {"materialize ms", "expanded µs/query", "materialized µs/query", "speedup"},
	"A1":  {"mean µs/query"},
}

// TestPaperTablesGolden runs every experiment without timing columns at its
// default parameters and compares the table with the one EXPERIMENTS.md
// records, line by line with trailing blanks trimmed: a change that moves a
// number of the reproduction fails here.
func TestPaperTablesGolden(t *testing.T) {
	checkPaperTables(t, false)
}

// checkPaperTables regenerates the experiments with timing columns, or those
// without, and compares each with its fenced block of EXPERIMENTS.md, the
// block whose first line is the table's title line. A table with timing
// columns is compared cell by cell with those columns masked, since their
// widths move with their values.
func checkPaperTables(t *testing.T, timed bool) {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := paperBlocks(string(doc))
	for _, e := range All() {
		id := e.ID
		if _, ok := timingColumns[id]; ok != timed {
			continue
		}
		got := e.Run().String()
		title, _, _ := strings.Cut(got, "\n")
		want, ok := blocks[title]
		if !ok {
			t.Errorf("%s: EXPERIMENTS.md has no block headed %q", id, title)
			continue
		}
		g, w := maskTiming(got, timingColumns[id]), maskTiming(want, timingColumns[id])
		if len(g) != len(w) {
			t.Errorf("%s: %d lines, EXPERIMENTS.md records %d:\n%s", id, len(g), len(w), got)
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s line %d:\n got  %q\n want %q", id, i+1, g[i], w[i])
			}
		}
	}
}

// paperBlocks returns EXPERIMENTS.md's fenced blocks keyed by their first
// line, the first block of each key winning.
func paperBlocks(doc string) map[string]string {
	blocks := map[string]string{}
	parts := strings.Split(doc, "\n```")
	for i := 1; i < len(parts); i += 2 {
		body := strings.TrimPrefix(parts[i], "\n")
		first, _, _ := strings.Cut(body, "\n")
		if _, seen := blocks[first]; !seen {
			blocks[first] = body
		}
	}
	return blocks
}

// cellGap separates the cells of a rendered table: cells hold single spaces
// at most, columns are padded apart by two or more.
var cellGap = regexp.MustCompile(`  +`)

// maskTiming splits a rendered table into lines with trailing blanks
// trimmed. With masked columns named, every line below the header row is
// split into its cells and the masked ones, rule dashes included, become *.
func maskTiming(table string, masked []string) []string {
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	var cols []string
	for i, line := range lines {
		line = strings.TrimRight(line, " ")
		lines[i] = line
		if len(masked) == 0 || i == 0 {
			continue
		}
		cells := cellGap.Split(line, -1)
		if i == 1 {
			cols = cells
			continue
		}
		for j := range cells {
			if j < len(cols) && slices.Contains(masked, cols[j]) {
				cells[j] = "*"
			}
		}
		lines[i] = strings.Join(cells, "  ")
	}
	return lines
}
