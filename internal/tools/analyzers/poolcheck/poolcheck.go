// Package poolcheck verifies the buffer-reuse rules of the pooled batch
// operators (DESIGN.md "Buffer ownership"): a value taken from a
// sync.Pool must be returned to it — or handed off to something that will —
// on every path out of the function, pools must recycle pointers rather than
// slice headers, and every Get must be type-asserted where it happens.
//
// The leak check is path-sensitive, built on pathwalk: assigning
// `pool.Get().(*T)` to a local creates an obligation; the obligation is
// discharged when the value is passed to a call (Put included), returned,
// stored into a structure, sent, captured by a closure, or aliased —
// positions where ownership leaves the function — and any path reaching a
// return with the obligation still open is a leak. Three syntactic rules
// ride along: Put of a slice-typed value (boxes the header per call, the
// exact mistake the array-pointer pools in internal/query/exec exist to
// avoid), a Get whose result is not type-asserted at the call site, and a
// package-level sync.Pool with Gets but no Put anywhere in the package.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/tools/analysis"
	"repro/internal/tools/analyzers/internal/pathwalk"
)

// Analyzer is the poolcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "check sync.Pool discipline: Get balanced by Put on all paths, pointer-shaped pool members, asserted Gets\n\n" +
		"A value obtained from a sync.Pool and kept in a local must be Put back or handed off on every\n" +
		"path out of the function; Put of a slice-typed value and an unasserted Get are reported, as is\n" +
		"a package-level pool that is Get from but never Put to.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, reported: make(map[token.Pos]bool)}
	for _, f := range pass.Files {
		c.syntactic(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.checkFunc(n.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(n.Body)
			}
			return true
		})
	}
	c.pools()
	return nil, nil
}

type checker struct {
	pass     *analysis.Pass
	reported map[token.Pos]bool

	// Package-level pool accounting for the Get-without-Put rule,
	// accumulated across files by syntactic.
	poolVars  []*types.Var
	poolGets  map[types.Object]int
	poolPuts  map[types.Object]int
	poolDecls map[types.Object]token.Pos
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// obligation is one pooled value whose release this function still owes.
type obligation struct {
	obj  types.Object // the local holding the value
	pool string       // canonical pool expression, for the message
	pos  token.Pos    // the Get call
}

// poolState is the abstract state: open obligations.
type poolState struct {
	obls []obligation
}

// checkFunc runs the path-sensitive leak check over one function body.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	pathwalk.Walk(body, poolState{}, pathwalk.Hooks{
		Exec: c.exec,
		Key: func(st pathwalk.State) string {
			s := st.(poolState)
			keys := make([]string, len(s.obls))
			for i, o := range s.obls {
				keys[i] = o.obj.Name() + "@" + c.pass.Fset.Position(o.pos).String()
			}
			sort.Strings(keys)
			return strings.Join(keys, ",")
		},
		Return: func(st pathwalk.State, _ token.Pos) {
			for _, o := range st.(poolState).obls {
				c.report(o.pos, "value from %s.Get is not returned to the pool (Put) or handed off on every path out of the function", o.pool)
			}
		},
		LoopIterEnd: func(entry, end pathwalk.State, _ ast.Stmt) {
			open := make(map[types.Object]bool)
			for _, o := range entry.(poolState).obls {
				open[o.obj] = true
			}
			for _, o := range end.(poolState).obls {
				if !open[o.obj] {
					c.report(o.pos, "value from %s.Get leaks across a loop iteration: a fresh Get every pass with no Put", o.pool)
				}
			}
		},
	})
}

// exec interprets one atomic node: first discharge obligations whose value
// escapes or is released in it, then open obligations for fresh Gets.
func (c *checker) exec(n ast.Node, st pathwalk.State) pathwalk.State {
	s := poolState{obls: append([]obligation(nil), st.(poolState).obls...)}
	if len(s.obls) > 0 {
		c.scanConsumption(n, &s)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Rhs {
				c.defineObligation(n.Lhs[i], n.Rhs[i], &s)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i := range vs.Values {
						c.defineObligation(vs.Names[i], vs.Values[i], &s)
					}
				}
			}
		}
	}
	return s
}

// defineObligation opens an obligation when a pool Get is assigned to a
// simple local. Gets assigned into fields or used inline transfer ownership
// immediately and are not tracked.
func (c *checker) defineObligation(lhs, rhs ast.Expr, s *poolState) {
	pool, ok := c.poolGetCall(rhs)
	if !ok {
		return
	}
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	discharge(s, obj) // a reassignment replaces the old obligation
	s.obls = append(s.obls, obligation{obj: obj, pool: pool, pos: rhs.Pos()})
}

// scanConsumption discharges every obligation whose local appears in an
// ownership-transferring position in n: as (part of an aliasing) call
// argument, a method receiver, a return operand, an assignment source, a
// composite-literal element, a channel send, or captured by a function
// literal.
func (c *checker) scanConsumption(n ast.Node, s *poolState) {
	mark := func(e ast.Expr) {
		if id, ok := stripAlias(e).(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				discharge(s, obj)
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// A closure capturing the local owns its release.
			ast.Inspect(m.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
						discharge(s, obj)
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if !c.isBuiltinLenCap(m) {
				for _, arg := range m.Args {
					mark(arg)
				}
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
					mark(sel.X)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				mark(r)
			}
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				mark(r)
			}
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				mark(el)
			}
		case *ast.SendStmt:
			mark(m.Value)
		}
		return true
	})
}

// stripAlias unwraps expression forms that alias the whole underlying
// object: parentheses, address-of, slicing, type assertions. Element reads
// like buf[0] are deliberately not unwrapped — they pass a copy, not the
// buffer.
func stripAlias(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return e
			}
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			return e
		}
	}
}

// discharge closes the obligation for obj, if open.
func discharge(s *poolState, obj types.Object) {
	for i, o := range s.obls {
		if o.obj == obj {
			s.obls = append(s.obls[:i:i], s.obls[i+1:]...)
			return
		}
	}
}

// isBuiltinLenCap reports whether the call is len or cap, whose arguments
// neither alias nor consume.
func (c *checker) isBuiltinLenCap(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	return id.Name == "len" || id.Name == "cap"
}

// poolGetCall reports whether e is (possibly behind a type assertion)
// a Get() on a sync.Pool, returning the pool's canonical expression.
func (c *checker) poolGetCall(e ast.Expr) (string, bool) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			_, pool, ok := c.poolMethod(call, "Get")
			if !ok || len(call.Args) != 0 {
				return "", false
			}
			return pool, true
		}
	}
}

// poolMethod matches a call of the named method on a sync.Pool receiver.
func (c *checker) poolMethod(call *ast.CallExpr, name string) (*ast.SelectorExpr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, "", false
	}
	t := c.pass.TypesInfo.Types[sel.X].Type
	if t == nil {
		return nil, "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return nil, "", false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != "Pool" {
		return nil, "", false
	}
	return sel, pathwalk.ExprKey(c.pass.Fset, sel.X), true
}

// syntactic applies the non-path rules to one file: slice-typed Put
// arguments, unasserted Gets, and pool Get/Put accounting.
func (c *checker) syntactic(f *ast.File) {
	if c.poolGets == nil {
		c.poolGets = make(map[types.Object]int)
		c.poolPuts = make(map[types.Object]int)
		c.poolDecls = make(map[types.Object]token.Pos)
	}

	// Record package-level sync.Pool vars.
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				t := v.Type()
				if p, isPtr := t.(*types.Pointer); isPtr {
					t = p.Elem()
				}
				if n, isNamed := t.(*types.Named); isNamed {
					obj := n.Obj()
					if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
						c.poolVars = append(c.poolVars, v)
						c.poolDecls[v] = name.Pos()
					}
				}
			}
		}
	}

	// Gets appearing as the operand of a type assertion are the asserted
	// (correct) form.
	asserted := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if ta, ok := n.(*ast.TypeAssertExpr); ok {
			e := ta.X
			for {
				if p, isParen := e.(*ast.ParenExpr); isParen {
					e = p.X
					continue
				}
				break
			}
			if call, isCall := e.(*ast.CallExpr); isCall {
				asserted[call] = true
			}
		}
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, pool, ok := c.poolMethod(call, "Put"); ok && len(call.Args) == 1 {
			c.countPool(sel, c.poolPuts)
			if t := c.pass.TypesInfo.Types[call.Args[0]].Type; t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); isSlice {
					c.report(call.Pos(), "slice passed to %s.Put: every Put boxes the slice header into a fresh allocation; pool a pointer (e.g. *[N]T) instead", pool)
				}
			}
		}
		if sel, pool, ok := c.poolMethod(call, "Get"); ok && len(call.Args) == 0 {
			c.countPool(sel, c.poolGets)
			if !asserted[call] {
				c.report(call.Pos(), "result of %s.Get is not type-asserted at the call site; assert to the pooled pointer type immediately", pool)
			}
		}
		return true
	})
}

// countPool attributes a Get/Put to a package-level pool var, when the
// receiver is a plain identifier.
func (c *checker) countPool(sel *ast.SelectorExpr, counts map[types.Object]int) {
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			counts[obj]++
		}
	}
}

// pools reports package-level pools that are drawn from but never refilled.
func (c *checker) pools() {
	for _, v := range c.poolVars {
		if c.poolGets[v] > 0 && c.poolPuts[v] == 0 {
			c.report(c.poolDecls[v], "sync.Pool %s has Get calls but no Put anywhere in the package: pooled objects are never recycled", v.Name())
		}
	}
}
