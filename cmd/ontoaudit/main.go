// Command ontoaudit runs the ontology audit of package core over a TBox, and
// doubles as a BGP query shell over an annotation store.
//
// Usage:
//
//	ontoaudit -paper
//	ontoaudit -f ontology.tbox [-depth 4] [-annotations data.triples] [-usage usage.tsv]
//	ontoaudit -paper -query "?x type car" [-expand | -materialize [-rules extra.rules]]
//	ontoaudit -f ontology.tbox -annotations data.triples -query "?x type car . ?x ?p ?o" [-expand]
//	ontoaudit -paper -materialize [-provenance]
//	ontoaudit -serialize-paper > paper.tbox
//
// -query evaluates a basic graph pattern (patterns separated by '.', terms
// whitespace-separated, ?name a variable) against the annotation store
// instead of running the audit, printing one solution per row; -expand
// rewrites type-patterns through the TBox's ontology index, so class queries
// also retrieve instances of subsumed classes.
//
// -materialize takes the precomputed route to the same answers: the TBox's
// subsumption closure is exported as subClassOf triples next to the
// annotations, the RDFS-style rule set of internal/reason (plus any -rules
// file, one "head :- body . body" rule per line) is forward-chained to a
// fixpoint, and -query then evaluates over the materialized view with no
// expansion at all. Without -query, -materialize prints a summary of the
// materialization (asserted/inferred counts, engine statistics); with
// -provenance it dumps every triple tagged "asserted" or "inferred" as JSON
// lines instead.
//
// The TBox format is the small text format of internal/tboxio (see the
// package documentation). -annotations is a store snapshot (one JSON triple
// per line, as written by Store.Snapshot) whose "type" triples are the
// annotations to audit; -usage is a two-column whitespace-separated file
// mapping instances to the class their actual usage belongs to, which enables
// the pragmatic (retrieval quality) part of the audit. -paper audits the
// paper's own eq. (4)/(8) example together with its doorknob vocabularies and
// a small annotated store, which is the quickest way to see every section of
// the report populated.
//
// Exit status: 0 on success (including an explicit -h/-help), 1 on a
// runtime error (unreadable or malformed input files, failed audit), 2 on a
// usage error (unknown flags, stray positional arguments, contradictory
// flag combinations) — in which case a usage message goes to standard
// error.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/reason"
	"repro/internal/store"
	"repro/internal/tboxio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable surface: flags in, report or
// solutions on stdout, diagnostics on stderr, exit code out. Usage errors
// (unknown flags, stray arguments, contradictory combinations) return 2
// with a usage message; runtime errors (bad files, malformed rules) return
// 1; nothing panics on bad input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ontoaudit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "path to a TBox in the tboxio text format")
	paper := fs.Bool("paper", false, "audit the paper's own car/dog example with its corpus and vocabularies")
	serialize := fs.Bool("serialize-paper", false, "print the paper's TBox in the input format and exit")
	depth := fs.Int("depth", 3, "maximum unfolding depth for the structural audit")
	annotations := fs.String("annotations", "", "path to a store snapshot (JSON triples) with type annotations")
	usage := fs.String("usage", "", "path to a whitespace-separated instance/class usage ground-truth file")
	bgpText := fs.String("query", "", "evaluate a BGP (e.g. \"?x type car . ?x ?p ?o\") over the annotations instead of auditing")
	expand := fs.Bool("expand", false, "with -query: expand type-patterns through the TBox's ontology index")
	materialize := fs.Bool("materialize", false, "forward-chain the RDFS rules over the annotations + TBox hierarchy; -query then runs over the materialized view")
	rulesFile := fs.String("rules", "", "with -materialize: a file of extra Horn rules (one \"head :- body . body\" per line)")
	provenance := fs.Bool("provenance", false, "with -materialize (and no -query): dump the materialized triples tagged asserted/inferred")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ontoaudit -paper | -f <file> [-depth N] [-annotations <file>] [-usage <file>] [-query <bgp> [-expand|-materialize]] [-materialize [-rules <file>] [-provenance]] | -serialize-paper\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// An explicit -h/-help is not a usage error.
			return 0
		}
		// flag already printed the error and the usage message.
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ontoaudit: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "ontoaudit: %v\n", err)
		return 1
	}

	if *serialize {
		text, err := tboxio.SerializeString(core.PaperTBox())
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, text)
		return 0
	}

	var input core.Input
	switch {
	case *paper:
		input = core.PaperInput()
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return fail(err)
		}
		tb, err := tboxio.Parse(f)
		closeErr := f.Close()
		if err != nil {
			return fail(err)
		}
		if closeErr != nil {
			return fail(closeErr)
		}
		input = core.Input{TBox: tb}
	default:
		fmt.Fprintln(stderr, "ontoaudit: need an ontology; pass -paper or -f")
		fs.Usage()
		return 2
	}
	input.MaxDepth = *depth

	if *annotations != "" {
		s, err := loadAnnotations(*annotations)
		if err != nil {
			return fail(err)
		}
		input.Annotations = s
	}
	if *usage != "" {
		trueClass, err := loadUsage(*usage)
		if err != nil {
			return fail(err)
		}
		input.TrueClass = trueClass
	}

	// Contradictory flag combinations are usage errors, not runtime errors.
	usageErr := func(msg string) int {
		fmt.Fprintf(stderr, "ontoaudit: %s\n", msg)
		fs.Usage()
		return 2
	}
	if *rulesFile != "" && !*materialize {
		return usageErr("-rules only makes sense with -materialize")
	}
	if *provenance && !*materialize {
		return usageErr("-provenance only makes sense with -materialize")
	}
	if *provenance && *bgpText != "" {
		return usageErr("-provenance dumps the whole materialization; it cannot be combined with -query")
	}
	if *expand && *materialize {
		return usageErr("-expand and -materialize are alternative routes to the same answers; pick one")
	}

	if *materialize {
		if err := runMaterialize(stdout, input, *bgpText, *rulesFile, *provenance); err != nil {
			return fail(err)
		}
		return 0
	}

	if *bgpText != "" {
		if err := runQuery(stdout, input, *bgpText, *expand); err != nil {
			return fail(err)
		}
		return 0
	}

	report, err := core.Audit(input)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, report.Render())
	return 0
}

// runMaterialize forward-chains the RDFS rules (plus any user rules) over
// the annotation store extended with the TBox's subsumption closure, then
// either evaluates the BGP over the materialized view, dumps the
// provenance-tagged triples, or prints a materialization summary.
func runMaterialize(stdout io.Writer, input core.Input, bgpText, rulesFile string, provenance bool) error {
	if input.Annotations == nil {
		return errors.New("-materialize needs an annotation store; pass -annotations or -paper")
	}
	rules := reason.RDFSRules()
	if rulesFile != "" {
		text, err := os.ReadFile(rulesFile)
		if err != nil {
			return err
		}
		user, err := reason.ParseRules(string(text))
		if err != nil {
			return fmt.Errorf("%s: %w", rulesFile, err)
		}
		rules = append(rules, user...)
	}
	oi, err := store.NewOntologyIndex(input.TBox)
	if err != nil {
		return fmt.Errorf("classifying the TBox for -materialize: %w", err)
	}
	if _, err := input.Annotations.AddBatch(reason.OntologyTriples(oi)); err != nil {
		return err
	}
	r, err := reason.Materialize(input.Annotations, rules)
	if err != nil {
		return err
	}
	if bgpText != "" {
		bgp, err := query.ParseBGP(bgpText)
		if err != nil {
			return err
		}
		return printSolutions(stdout, r.Query(bgp))
	}
	if provenance {
		_, err := r.View().SnapshotProvenance(stdout)
		return err
	}
	st := r.Stats()
	fmt.Fprintf(stdout, "materialized: %d asserted + %d inferred = %d triples\n",
		r.Base().Len(), r.InferredCount(), r.View().Len())
	fmt.Fprintf(stdout, "rules: %d (RDFS%s)\n", len(rules), map[bool]string{true: " + user rules", false: ""}[rulesFile != ""])
	fmt.Fprintf(stdout, "engine: %d semi-naive rounds, %d derivations\n", st.Rounds, st.Derived)
	return nil
}

// runQuery evaluates the BGP over the input's annotation store and prints a
// header of variable names followed by one tab-separated row per solution,
// rows sorted for deterministic output.
func runQuery(stdout io.Writer, input core.Input, bgpText string, expand bool) error {
	if input.Annotations == nil {
		return errors.New("-query needs an annotation store; pass -annotations or -paper")
	}
	bgp, err := query.ParseBGP(bgpText)
	if err != nil {
		return err
	}
	var opts []query.Option
	if expand {
		oi, err := store.NewOntologyIndex(input.TBox)
		if err != nil {
			return fmt.Errorf("classifying the TBox for -expand: %w", err)
		}
		opts = append(opts, query.Expand(oi))
	}
	return printSolutions(stdout, query.Eval(input.Annotations, bgp, opts...))
}

// printSolutions drains a solution iterator, printing a header of variable
// names and one tab-separated row per solution, rows sorted for
// deterministic output.
func printSolutions(stdout io.Writer, sols *query.Solutions) error {
	defer sols.Close()
	vars := sols.Vars()
	var rows []string
	for sols.Next() {
		cells := make([]string, len(vars))
		for i, v := range vars {
			cells[i], _ = sols.Value(v)
		}
		rows = append(rows, strings.Join(cells, "\t"))
	}
	if err := sols.Err(); err != nil {
		return err
	}
	sort.Strings(rows)
	if len(vars) > 0 {
		header := make([]string, len(vars))
		for i, v := range vars {
			header[i] = "?" + v
		}
		fmt.Fprintln(stdout, strings.Join(header, "\t"))
	}
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	fmt.Fprintf(stdout, "%d solutions\n", len(rows))
	return nil
}

// loadAnnotations restores a store snapshot from a file.
func loadAnnotations(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := store.New()
	if _, err := store.Restore(s, f); err != nil {
		return nil, err
	}
	return s, nil
}

// loadUsage reads the "instance class" ground-truth file: one pair per line,
// whitespace separated, '#' starting a comment line.
func loadUsage(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	scanner := bufio.NewScanner(f)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"instance class\", got %q", path, line, text)
		}
		out[fields[0]] = fields[1]
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
