// Package doccheck enforces the repository's documentation contract for the
// engine packages: each has a package doc comment, where its package-local
// design lives, and every exported identifier carries a doc comment. A
// declaration is documented if the declaration itself, its spec, or (for
// grouped const/var/type blocks) the group has a comment; test files are
// skipped; methods count when both the method name and the receiver type are
// exported.
package doccheck

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/tools/analysis"
)

// Analyzer is the doccheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "doccheck",
	Doc: "check that every engine package and every exported identifier in it has a doc comment\n\n" +
		"A group comment covers every const/var in its block; methods are checked when the receiver\n" +
		"type is exported too; test files are exempt.",
	Run: run,
}

// Packages lists the package paths the contract applies to — the engine
// packages whose godoc is the public surface and the design's package-local
// half. Tests may override this to point the analyzer at fixture packages.
var Packages = []string{
	"repro/internal/store",
	"repro/internal/query",
	"repro/internal/query/exec",
	"repro/internal/reason",
	"repro/internal/server",
	"repro/internal/durable",
	"repro/internal/obs",
	"repro/internal/repl",
	"repro/internal/model",
}

func run(pass *analysis.Pass) (any, error) {
	checked := false
	for _, p := range Packages {
		if pass.Pkg.Path() == p {
			checked = true
			break
		}
	}
	if !checked {
		return nil, nil
	}
	var first *ast.File // the non-test file that sorts first
	documented := false
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if first == nil || name < pass.Fset.Position(first.Pos()).Filename {
			first = f
		}
		documented = documented || f.Doc != nil
		checkFile(pass, f)
	}
	if first != nil && !documented {
		pass.Reportf(first.Name.Pos(), "package %s has no doc comment", first.Name.Name)
	}
	return nil, nil
}

// checkFile walks one file's top-level declarations.
func checkFile(pass *analysis.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !receiverExported(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				pass.Reportf(d.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						pass.Reportf(sp.Pos(), "exported type %s has no doc comment", sp.Name.Name)
					}
				case *ast.ValueSpec:
					// A group comment (d.Doc) covers every const/var in the
					// block; otherwise each exported spec needs its own.
					if d.Doc != nil || sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, id := range sp.Names {
						if id.IsExported() {
							pass.Reportf(id.Pos(), "exported %s %s has no doc comment", kindOf(d.Tok), id.Name)
						}
					}
				}
			}
		}
	}
}

// kindOf names a ValueSpec's declaration kind for the diagnostic.
func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// receiverExported reports whether a function's receiver type (if any) is
// exported; methods on unexported types are not part of the public surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}
