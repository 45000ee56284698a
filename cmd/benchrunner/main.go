// Command benchrunner regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	benchrunner -list
//	benchrunner all
//	benchrunner E2 E5
//
// Each experiment prints the same table the internal/experiments benchmarks
// measure, with the default parameters recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available experiments and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchrunner [-list] <experiment id>... | all\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Description)
		}
		return 0
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}

	var selected []experiments.Experiment
	if len(rest) == 1 && strings.EqualFold(rest[0], "all") {
		selected = experiments.All()
	} else {
		for _, id := range rest {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "benchrunner: unknown experiment %q (use -list)\n", id)
				return 1
			}
			selected = append(selected, e)
		}
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, e.Run().String())
	}
	return 0
}
