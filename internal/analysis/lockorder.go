package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// transportPkgs are the packages bound by the locking discipline
// DESIGN.md §7 documents: the action mutex mu is outermost, the mailbox
// mutex mbMu next, and the injector mutex injMu innermost. The node
// engine owns all three; the UDP and TCP movers stay in scope because
// their Send and Flush run inside the engine's atomic sections.
var transportPkgs = []string{
	"internal/transport/engine",
	"internal/transport/udp",
	"internal/transport/tcp",
}

// lockRank orders the documented mutexes. Acquisitions must happen in
// increasing rank; unranked mutexes (gmu, connMu, ...) are out of scope.
var lockRank = map[string]int{"mu": 1, "mbMu": 2, "injMu": 3}

// LockOrder enforces the node engine's documented mu → mbMu → injMu
// acquisition order, rejects re-acquisition of a held rank, and forbids
// taking any ranked mutex inside an atomic-section callback (a func
// literal handed to a Do method, which already runs under mu).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the documented mu → mbMu → injMu lock order in the transport node engine",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	if !pathMatches(pass.Path, transportPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLocks(pass, fd.Body.List, map[string]token.Pos{})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkAtomicCallback(pass, call)
			return true
		})
	}
	return nil
}

// walkLocks tracks held ranked mutexes through a statement list in
// lexical order. Branches are analyzed against a snapshot of the held
// set and their acquisitions are not propagated past the branch — a
// deliberate under-approximation that keeps the checker free of false
// positives from unbalanced control flow.
func walkLocks(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			applyLockExpr(pass, s.X, held)
		case *ast.DeferStmt:
			// defer x.Unlock() keeps x held to function end: no change.
			// Nested func literals start lock-free.
			walkFuncLits(pass, s.Call)
		case *ast.GoStmt:
			walkFuncLits(pass, s.Call)
		case *ast.BlockStmt:
			walkLocks(pass, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				walkLocks(pass, []ast.Stmt{s.Init}, held)
			}
			walkLocks(pass, s.Body.List, snapshot(held))
			if s.Else != nil {
				walkLocks(pass, []ast.Stmt{s.Else}, snapshot(held))
			}
		case *ast.ForStmt:
			walkLocks(pass, s.Body.List, snapshot(held))
		case *ast.RangeStmt:
			walkLocks(pass, s.Body.List, snapshot(held))
		case *ast.SwitchStmt:
			walkCases(pass, s.Body, held)
		case *ast.TypeSwitchStmt:
			walkCases(pass, s.Body, held)
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLocks(pass, cc.Body, snapshot(held))
				}
			}
		case *ast.LabeledStmt:
			walkLocks(pass, []ast.Stmt{s.Stmt}, held)
		default:
			ast.Inspect(stmt, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					walkLocks(pass, fl.Body.List, map[string]token.Pos{})
					return false
				}
				return true
			})
		}
	}
}

func walkCases(pass *Pass, body *ast.BlockStmt, held map[string]token.Pos) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			walkLocks(pass, cc.Body, snapshot(held))
		}
	}
}

func snapshot(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// applyLockExpr interprets one expression statement: Lock/Unlock calls
// on ranked mutexes mutate the held set, and func literals inside the
// expression are walked lock-free.
func applyLockExpr(pass *Pass, e ast.Expr, held map[string]token.Pos) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	walkFuncLits(pass, call)
	name, op := rankedLockCall(pass, call)
	if name == "" {
		return
	}
	switch op {
	case "Lock", "RLock":
		for h := range held {
			if lockRank[h] > lockRank[name] {
				pass.Reportf(call.Pos(), "acquires %s while holding %s: the documented transport order is mu → mbMu → injMu", name, h)
			} else if h == name {
				pass.Reportf(call.Pos(), "acquires %s while already holding it", name)
			}
		}
		held[name] = call.Pos()
	case "Unlock", "RUnlock":
		delete(held, name)
	}
}

// walkFuncLits analyzes func-literal arguments of a call with a fresh
// (empty) held set: a goroutine or stored closure runs on its own stack.
func walkFuncLits(pass *Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok {
			walkLocks(pass, fl.Body.List, map[string]token.Pos{})
		}
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		walkLocks(pass, fl.Body.List, map[string]token.Pos{})
	}
}

// rankedLockCall recognizes x.<mu>.<Lock|Unlock|RLock|RUnlock>() where
// <mu> is one of the ranked mutex fields with a sync.Mutex or
// sync.RWMutex type, returning the field name and the operation.
func rankedLockCall(pass *Pass, call *ast.CallExpr) (field, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	name := baseName(sel.X)
	if _, ranked := lockRank[name]; !ranked {
		return "", ""
	}
	if !isSyncMutex(pass.Info.TypeOf(sel.X)) {
		return "", ""
	}
	return name, sel.Sel.Name
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// checkAtomicCallback flags ranked-mutex acquisition inside a func
// literal passed to a Do method: Do is the transports' atomic-section
// entry point and already holds the action mutex, so any ranked Lock in
// the callback either self-deadlocks (mu) or runs socket-side work under
// a lock the callback must not know about.
func checkAtomicCallback(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return
	}
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, op := rankedLockCall(pass, inner); name != "" && (op == "Lock" || op == "RLock") {
				pass.Reportf(inner.Pos(), "acquires %s inside an atomic-section callback: Do already runs under mu; hoist the locking out of the callback", name)
			}
			return true
		})
	}
}
