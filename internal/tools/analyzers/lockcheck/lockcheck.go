// Package lockcheck verifies the repository's mutex discipline
// (DESIGN.md "Enforced invariants"): every sync.Mutex/RWMutex acquisition is
// released on every path out of the function, no second mutex is acquired
// while one is held, and no exported method of the package is called while a
// lock is held (exported methods take their own locks; calling one from
// under a lock self-deadlocks or double-locks).
//
// The check is path-sensitive and intraprocedural, built on pathwalk: the
// abstract state is the multiset of held locks plus the deferred releases,
// branches fork it, and at every return (and across every loop iteration)
// the state must balance. Releasing a lock the function did not acquire is
// deliberately not a finding — that is the split acquire/release helper
// pattern, a helper releasing what its caller acquired — and intentional
// violations carry an //ontolint:ignore lockcheck comment with a reason.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/tools/analysis"
	"repro/internal/tools/analyzers/internal/pathwalk"
)

// Analyzer is the lockcheck analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "check that mutexes are released on all paths, never nested, and never held across exported calls\n\n" +
		"Lock/RLock must be balanced by Unlock/RUnlock (explicit or deferred) on every path out of the\n" +
		"function and across every loop iteration; acquiring a second mutex while one is held, locking a\n" +
		"held mutex again, and calling an exported same-package method under a lock are reported.",
	Run: run,
}

// heldLock is one acquisition not yet released.
type heldLock struct {
	key   string // canonical receiver expression, e.g. "sh.mu"
	write bool   // Lock/Unlock rather than RLock/RUnlock
	pos   token.Pos
}

// lockState is the abstract state: held locks in acquisition order, plus
// releases scheduled by defer.
type lockState struct {
	held     []heldLock
	deferred []string // key + mode of deferred Unlock/RUnlock calls
}

// sig renders a lock's key+mode for matching against deferred releases.
func (h heldLock) sig() string {
	if h.write {
		return h.key + "/w"
	}
	return h.key + "/r"
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, reported: make(map[token.Pos]bool)}
	for _, f := range pass.Files {
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
	return nil, nil
}

// checker carries per-package state; reported dedupes diagnostics so a lock
// site is flagged once however many paths reach it.
type checker struct {
	pass     *analysis.Pass
	reported map[token.Pos]bool
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// checkFunc walks one function body. Function literals are checked as
// independent functions (by run's Inspect), starting lock-free: a closure
// invoked under a caller's lock is out of intraprocedural scope.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	pathwalk.Walk(body, lockState{}, pathwalk.Hooks{
		Exec: c.exec,
		Key: func(st pathwalk.State) string {
			s := st.(lockState)
			parts := make([]string, 0, len(s.held)+len(s.deferred)+1)
			for _, h := range s.held {
				parts = append(parts, h.sig())
			}
			parts = append(parts, "|")
			parts = append(parts, s.deferred...)
			return strings.Join(parts, ",")
		},
		Return:      c.atReturn,
		LoopIterEnd: c.loopIterEnd,
	})
}

// exec interprets one atomic node: defer registrations, lock/unlock calls,
// and exported calls made under a lock.
func (c *checker) exec(n ast.Node, st pathwalk.State) pathwalk.State {
	s := clone(st.(lockState))
	if d, ok := n.(*ast.DeferStmt); ok {
		if op, key, ok := c.mutexOp(d.Call); ok && (op == "Unlock" || op == "RUnlock") {
			s.deferred = append(s.deferred, heldLock{key: key, write: op == "Unlock"}.sig())
		}
		return s
	}
	pathwalk.Calls(n, func(call *ast.CallExpr) {
		if op, key, ok := c.mutexOp(call); ok {
			switch op {
			case "Lock", "RLock":
				c.acquire(&s, call, key, op == "Lock")
			case "Unlock", "RUnlock":
				release(&s, key, op == "Unlock")
			}
			return
		}
		if len(s.held) > 0 {
			if name, ok := c.exportedSamePkgMethod(call); ok {
				c.report(call.Pos(), "call to exported method %s while %s is held: exported methods acquire their own locks", name, s.held[len(s.held)-1].key)
			}
		}
	})
	return s
}

// acquire adds a lock to the held set, reporting re-entrant and nested
// acquisitions.
func (c *checker) acquire(s *lockState, call *ast.CallExpr, key string, write bool) {
	for _, h := range s.held {
		if h.key == key {
			c.report(call.Pos(), "%s is acquired while already held (acquired at %s): mutexes in Go are not re-entrant", key, c.pass.Fset.Position(h.pos))
			return
		}
	}
	if len(s.held) > 0 {
		c.report(call.Pos(), "acquiring %s while %s is held: nested mutex acquisition risks deadlock against a writer locking in the opposite order", key, s.held[len(s.held)-1].key)
	}
	s.held = append(s.held, heldLock{key: key, write: write, pos: call.Pos()})
}

// release drops the most recent matching acquisition. A release with no
// matching acquisition is not a finding: a split acquire/release helper
// releases locks its caller acquired.
func release(s *lockState, key string, write bool) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].key == key && s.held[i].write == write {
			s.held = append(s.held[:i:i], s.held[i+1:]...)
			return
		}
	}
}

// atReturn checks that every held lock has a deferred release at a function
// exit.
func (c *checker) atReturn(st pathwalk.State, _ token.Pos) {
	s := st.(lockState)
	deferred := append([]string(nil), s.deferred...)
held:
	for _, h := range s.held {
		sig := h.sig()
		for i, d := range deferred {
			if d == sig {
				deferred = append(deferred[:i], deferred[i+1:]...)
				continue held
			}
		}
		c.report(h.pos, "%s acquired here is not released on every path out of the function", h.key)
	}
}

// loopIterEnd checks that a loop iteration leaves the lock state exactly as
// it found it; an imbalanced iteration compounds on every pass.
func (c *checker) loopIterEnd(entry, end pathwalk.State, loop ast.Stmt) {
	a, b := entry.(lockState), end.(lockState)
	if stateSig(a) != stateSig(b) {
		c.report(loop.Pos(), "lock state changes across a loop iteration: held %s at loop entry, %s at iteration end", heldNames(a), heldNames(b))
	}
}

func stateSig(s lockState) string {
	parts := make([]string, 0, len(s.held)+len(s.deferred))
	for _, h := range s.held {
		parts = append(parts, h.sig())
	}
	parts = append(parts, s.deferred...)
	return strings.Join(parts, ",")
}

func heldNames(s lockState) string {
	if len(s.held) == 0 {
		return "none"
	}
	names := make([]string, len(s.held))
	for i, h := range s.held {
		names[i] = h.key
	}
	return strings.Join(names, ", ")
}

func clone(s lockState) lockState {
	return lockState{
		held:     append([]heldLock(nil), s.held...),
		deferred: append([]string(nil), s.deferred...),
	}
}

// mutexOp classifies a call as a sync mutex operation, returning the method
// name and the canonical key of the mutex expression. Embedded mutexes
// (s.Lock() on a struct embedding sync.Mutex) key on the embedding value.
func (c *checker) mutexOp(call *ast.CallExpr) (op, key string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	if !isSyncLock(sig.Recv().Type()) {
		return "", "", false
	}
	return name, pathwalk.ExprKey(c.pass.Fset, sel.X), true
}

// isSyncLock reports whether t is sync.Mutex, sync.RWMutex or sync.Locker
// (possibly behind a pointer).
func isSyncLock(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Locker":
		return true
	}
	return false
}

// exportedSamePkgMethod reports whether the call invokes an exported method
// whose receiver is an exported named type of the package under analysis —
// the class of calls that re-enter the package's public, self-locking
// surface.
func (c *checker) exportedSamePkgMethod(call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	fn, isFn := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || !fn.Exported() {
		return "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := n.Obj()
	if obj.Pkg() != c.pass.Pkg || !obj.Exported() {
		return "", false
	}
	return obj.Name() + "." + fn.Name(), true
}
