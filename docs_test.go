package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// narratives are the documents whose citations of the code are checked.
var narratives = []string{"DESIGN.md", "API.md", ".claude/skills/verify/SKILL.md"}

// ciFile is the workflow whose go test commands are checked.
const ciFile = ".github/workflows/ci.yml"

// TestDocNamesResolve holds the documents to the code they describe:
//
//   - every backticked pkg.Name, pkg.Type.Member and Type.Member in the
//     narratives names a declaration of this repository (a lower-case first
//     component that is not one of its packages — sync.Pool, a JSON key, a
//     local variable — is not a reference);
//   - every Test…, Fuzz… and Benchmark… name in them is a function, or a
//     prefix of one inside a -run pattern;
//   - every alternative of a -run pattern and every -fuzz target of ci.yml is
//     a function of a package the command tests, because go test passes when
//     its pattern matches nothing;
//   - every section of DESIGN.md cited by its quoted name, in a Go comment,
//     a narrative or ci.yml, is a heading or a bold paragraph label of
//     DESIGN.md, and every link to a DESIGN.md anchor resolves.
func TestDocNamesResolve(t *testing.T) {
	code := indexCode(t)
	design := readDoc(t, "DESIGN.md")
	sections, anchors := designSections(design)

	var errs []string
	for _, name := range narratives {
		d := design
		if name != "DESIGN.md" {
			d = readDoc(t, name)
		}
		errs = append(errs, checkNames(d, code)...)
		errs = append(errs, checkTestNames(d, code)...)
		errs = append(errs, checkCitations(d.name, d.prose, sections)...)
		errs = append(errs, checkAnchors(d, anchors)...)
	}
	for _, c := range code.comments {
		errs = append(errs, checkCitations(c.file, c.text, sections)...)
	}
	ci := readDoc(t, ciFile)
	errs = append(errs, checkCI(ci, code)...)
	errs = append(errs, checkCitations(ci.name, ci.comments(), sections)...)
	for _, e := range errs {
		t.Error(e)
	}
}

// text is document text with the source line of every byte recoverable.
type text struct {
	s     string
	line0 int   // the line of s[0]
	nl    []int // offsets of the newlines in s
}

// newText indexes the newlines of s, whose first byte is on line line0.
func newText(s string, line0 int) text {
	t := text{s: s, line0: line0}
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			t.nl = append(t.nl, i)
		}
	}
	return t
}

// lineAt returns the line of the byte at off.
func (t text) lineAt(off int) int { return t.line0 + sort.SearchInts(t.nl, off) }

// doc is a Markdown or YAML document: raw holds every line, prose the same
// text with fenced code blanked out to spaces, so offsets agree.
type doc struct {
	name              string
	raw, prose        text
	lines, proseLines []string
}

// readDoc reads a document of the repository root.
func readDoc(t *testing.T, name string) doc {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	prose := make([]string, len(lines))
	fenced := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if fence {
			fenced = !fenced
		}
		prose[i] = l
		if fence || fenced {
			prose[i] = strings.Repeat(" ", len(l))
		}
	}
	return doc{name: name, raw: newText(string(b), 1), prose: newText(strings.Join(prose, "\n"), 1), lines: lines, proseLines: prose}
}

// comments returns a YAML document with everything but its # comments
// blanked, so a citation may wrap across comment lines.
func (d doc) comments() text {
	out := make([]string, len(d.lines))
	for i, l := range d.lines {
		if c, ok := strings.CutPrefix(strings.TrimSpace(l), "#"); ok {
			out[i] = c
		}
	}
	return newText(strings.Join(out, "\n"), 1)
}

// pkgIndex is what one directory's Go files, tests included, declare.
type pkgIndex struct {
	decls   map[string]bool            // top-level names
	funcs   map[string]bool            // top-level functions
	members map[string]map[string]bool // type → its methods and fields
}

// comment is one Go comment group, its lines joined.
type comment struct {
	file string
	text text
}

// codeIndex is what the repository's Go files declare, and their comments.
type codeIndex struct {
	pkgs     []*pkgIndex
	byName   map[string][]*pkgIndex // package name or directory base name
	byDir    map[string]*pkgIndex
	types    map[string][]*pkgIndex
	comments []comment
}

// indexCode parses every Go file of the repository.
func indexCode(t *testing.T) *codeIndex {
	t.Helper()
	c := &codeIndex{byName: map[string][]*pkgIndex{}, byDir: map[string]*pkgIndex{}, types: map[string][]*pkgIndex{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := c.byDir[dir]
		if p == nil {
			p = &pkgIndex{decls: map[string]bool{}, funcs: map[string]bool{}, members: map[string]map[string]bool{}}
			c.byDir[dir] = p
			c.pkgs = append(c.pkgs, p)
			c.byName[filepath.Base(dir)] = append(c.byName[filepath.Base(dir)], p)
		}
		if name := strings.TrimSuffix(f.Name.Name, "_test"); name != filepath.Base(dir) && !contains(c.byName[name], p) {
			c.byName[name] = append(c.byName[name], p)
		}
		p.add(f)
		for _, cg := range f.Comments {
			var b strings.Builder
			for i, cm := range cg.List {
				if i > 0 {
					b.WriteByte('\n')
				}
				b.WriteString(strings.TrimPrefix(cm.Text, "//"))
			}
			c.comments = append(c.comments, comment{path, newText(b.String(), fset.Position(cg.Pos()).Line)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c.pkgs {
		for typ := range p.members {
			c.types[typ] = append(c.types[typ], p)
		}
	}
	return c
}

// contains reports whether p is one of ps.
func contains(ps []*pkgIndex, p *pkgIndex) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// member records that typ exists and, unless name is empty, has a method or
// field name.
func (p *pkgIndex) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	if name != "" {
		p.members[typ][name] = true
	}
}

// add records the top-level declarations of one file.
func (p *pkgIndex) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.decls[d.Name.Name] = true
				p.funcs[d.Name.Name] = true
			} else if len(d.Recv.List) > 0 {
				p.member(baseType(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					p.decls[s.Name.Name] = true
					p.member(s.Name.Name, "")
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							p.member(s.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 {
							p.member(s.Name.Name, baseType(fl.Type))
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.decls[n.Name] = true
					}
				}
			}
		}
	}
}

// baseType names the type a receiver or embedded field expression refers to.
func baseType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	reference = regexp.MustCompile(`^([A-Za-z]\w*(?:\.[A-Za-z]\w*)+)(?:\(.*\)|\[.*\])*$`)
	goIdent   = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*$`)
	fileExt   = map[string]bool{"go": true, "md": true, "json": true, "seg": true, "tmp": true, "sh": true, "yml": true, "txt": true, "tbox": true, "log": true, "test": true}
)

// checkNames resolves the backticked references of a narrative.
func checkNames(d doc, code *codeIndex) []string {
	var errs []string
	for _, m := range codeSpan.FindAllStringSubmatchIndex(d.prose.s, -1) {
		span := strings.Join(strings.Fields(d.prose.s[m[2]:m[3]]), " ")
		r := reference.FindStringSubmatch(span)
		if r == nil {
			continue
		}
		if msg := code.resolve(strings.Split(r[1], ".")); msg != "" {
			errs = append(errs, fmt.Sprintf("%s:%d: `%s`: %s", d.name, d.prose.lineAt(m[2]), span, msg))
		}
	}
	return errs
}

// resolve returns why parts names nothing, or "" when it resolves or is not
// a reference to this repository.
func (c *codeIndex) resolve(parts []string) string {
	if fileExt[parts[len(parts)-1]] {
		return ""
	}
	for _, p := range parts {
		if !goIdent.MatchString(p) {
			return "" // a metric or JSON key, not a Go name
		}
	}
	if pkgs := c.byName[parts[0]]; len(pkgs) > 0 {
		for _, p := range pkgs {
			if !p.decls[parts[1]] {
				continue
			}
			if len(parts) == 2 || p.members[parts[1]][parts[2]] {
				return ""
			}
		}
		return "no such declaration in package " + parts[0]
	}
	if first := parts[0][0]; first < 'A' || first > 'Z' {
		return ""
	}
	pkgs := c.types[parts[0]]
	if len(pkgs) == 0 {
		return "no type " + parts[0] + " in the repository"
	}
	for _, p := range pkgs {
		if p.members[parts[0]][parts[1]] {
			return ""
		}
	}
	return "type " + parts[0] + " has no method or field " + parts[1]
}

var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// checkTestNames requires every cited test, fuzz target and benchmark to
// exist; inside a -run pattern a prefix of one will do, as go test matches.
func checkTestNames(d doc, code *codeIndex) []string {
	var runSpans [][2]int
	for _, m := range codeSpan.FindAllStringIndex(d.prose.s, -1) {
		if strings.Contains(d.prose.s[m[0]:m[1]], "-run") {
			runSpans = append(runSpans, [2]int{m[0], m[1]})
		}
	}
	inRun := func(off int) bool {
		if n := d.raw.lineAt(off) - 1; strings.TrimSpace(d.proseLines[n]) == "" && strings.Contains(d.lines[n], "-run") {
			return true // a fenced command
		}
		for _, s := range runSpans {
			if s[0] <= off && off < s[1] {
				return true
			}
		}
		return false
	}
	var errs []string
	for _, m := range testName.FindAllStringIndex(d.raw.s, -1) {
		name := d.raw.s[m[0]:m[1]]
		if !code.hasFunc(code.pkgs, name, inRun(m[0])) {
			errs = append(errs, fmt.Sprintf("%s:%d: %s is no function of the repository", d.name, d.raw.lineAt(m[0]), name))
		}
	}
	return errs
}

// hasFunc reports whether one of pkgs declares a function name, or with
// prefix set one whose name starts with name.
func (c *codeIndex) hasFunc(pkgs []*pkgIndex, name string, prefix bool) bool {
	for _, p := range pkgs {
		if p.funcs[name] {
			return true
		}
		if prefix {
			for f := range p.funcs {
				if strings.HasPrefix(f, name) {
					return true
				}
			}
		}
	}
	return false
}

// checkCI requires every -run alternative and -fuzz target of a go test
// command in ci.yml to be a function of a package the command names.
func checkCI(ci doc, code *codeIndex) []string {
	var errs []string
	for i, line := range ci.lines {
		for _, cmd := range strings.Split(line, "&&") {
			args := shellWords(cmd)
			at := -1
			for j := 0; j+1 < len(args); j++ {
				if args[j] == "go" && args[j+1] == "test" {
					at = j + 2
					break
				}
			}
			if at < 0 {
				continue
			}
			var pkgs []*pkgIndex
			var run, fuzz string
			for j := at; j < len(args); j++ {
				switch a := args[j]; {
				case a == "-run" && j+1 < len(args):
					j++
					run = args[j]
				case a == "-fuzz" && j+1 < len(args):
					j++
					fuzz = args[j]
				case a == "./...":
					pkgs = code.pkgs
				case strings.HasPrefix(a, "./"):
					if p := code.byDir[strings.TrimPrefix(a, "./")]; p != nil {
						pkgs = append(pkgs, p)
					} else {
						errs = append(errs, fmt.Sprintf("%s:%d: no package %s", ciFile, i+1, a))
					}
				}
			}
			var names []string
			if run != "" && run != "^$" {
				names = strings.Split(run, "|")
			}
			if fuzz != "" {
				names = append(names, fuzz)
			}
			for _, n := range names {
				n = strings.TrimSuffix(strings.TrimPrefix(n, "^"), "$")
				kind := n == "Test" || n == "Example" || n == "Fuzz" || n == "Benchmark"
				if !code.hasFunc(pkgs, n, kind) {
					errs = append(errs, fmt.Sprintf("%s:%d: %s is no function of the packages the command tests", ciFile, i+1, n))
				}
			}
		}
	}
	return errs
}

// shellWords splits a command line on blanks, honouring single quotes.
func shellWords(s string) []string {
	var words []string
	var b strings.Builder
	quoted, in := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, in = !quoted, true
		case (r == ' ' || r == '\t' || r == '(' || r == ')') && !quoted:
			if in {
				words = append(words, b.String())
				b.Reset()
				in = false
			}
		default:
			b.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, b.String())
	}
	return words
}

var (
	heading   = regexp.MustCompile(`(?m)^#+ +(.+?) *$`)
	boldLabel = regexp.MustCompile(`\*\*([^*]+?)\.\*\*`)
	citation  = regexp.MustCompile(`DESIGN\.md(?:'s)?[\s,(]*"([^"]+)"`)
	nextCite  = regexp.MustCompile(`^\s*(?:,|and)\s*"([^"]+)"`)
	anchorRef = regexp.MustCompile(`(?:DESIGN\.md)?#([a-z0-9_-]+)\)`)
)

// designSections returns DESIGN.md's headings and bold paragraph labels,
// and the anchors its headings get.
func designSections(design doc) (names, anchors map[string]bool) {
	names, anchors = map[string]bool{}, map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(design.prose.s, -1) {
		names[m[1]] = true
		anchors[slug(m[1])] = true
	}
	for _, m := range boldLabel.FindAllStringSubmatch(design.prose.s, -1) {
		names[strings.Join(strings.Fields(m[1]), " ")] = true
	}
	return names, anchors
}

// slug is the anchor a Markdown renderer gives a heading.
func slug(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkCitations requires every section of DESIGN.md that t cites by its
// quoted name to exist.
func checkCitations(file string, t text, sections map[string]bool) []string {
	var errs []string
	for _, m := range citation.FindAllStringSubmatchIndex(t.s, -1) {
		cites := [][]int{{m[2], m[3]}}
		for rest := m[1]; ; {
			n := nextCite.FindStringSubmatchIndex(t.s[rest:])
			if n == nil {
				break
			}
			cites = append(cites, []int{rest + n[2], rest + n[3]})
			rest += n[1]
		}
		for _, c := range cites {
			name := strings.Join(strings.Fields(t.s[c[0]:c[1]]), " ")
			if !sections[name] {
				errs = append(errs, fmt.Sprintf("%s:%d: DESIGN.md has no section or label %q", file, t.lineAt(c[0]), name))
			}
		}
	}
	return errs
}

// checkAnchors requires every link to a DESIGN.md anchor to resolve; in
// DESIGN.md itself a bare #anchor is one too.
func checkAnchors(d doc, anchors map[string]bool) []string {
	var errs []string
	for _, m := range anchorRef.FindAllStringSubmatchIndex(d.prose.s, -1) {
		local := !strings.HasPrefix(d.prose.s[m[0]:m[1]], "DESIGN.md")
		if local && d.name != "DESIGN.md" {
			continue
		}
		if a := d.prose.s[m[2]:m[3]]; !anchors[a] {
			errs = append(errs, fmt.Sprintf("%s:%d: DESIGN.md has no anchor #%s", d.name, d.prose.lineAt(m[0]), a))
		}
	}
	return errs
}
