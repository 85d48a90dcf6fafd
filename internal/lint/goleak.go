package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goleakScope is where goroutine lifecycles must be provable: the serving
// layer (shard engine and router, whose probers live for the process) and
// the two scheduling substrates spawn long-lived workers whose leaks
// accumulate under production load.
var goleakScope = []string{"internal/server", "internal/sched", "internal/rt", "internal/route"}

// goleakAnalyzer requires every `go` statement in the scoped packages to
// have a statically visible exit path. Accepted evidence, in the spawned
// body (func literals inspected in place, named functions resolved through
// the call graph):
//
//   - a receive from ctx.Done() (select case or direct),
//   - a closed-channel drain: ranging over a channel or a comma-ok receive,
//   - a sync.WaitGroup join: the body calls wg.Wait itself, or calls
//     wg.Done on a WaitGroup whose Wait is visible in the same package
//     (the spawning type's Close/Drain joining its workers),
//   - purely finite bodies: no unconditional `for {`, no channel receives,
//     and sends only on channels made with a capacity in the spawning
//     function (a buffered handoff cannot block forever).
//
// Anything else — an infinite loop with no channel exit, a goroutine parked
// on an unbuffered channel nobody is guaranteed to service — is reported.
func goleakAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "goleak",
		Doc:  "go statements in server/sched/rt/route need a statically visible exit path",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			if !pathInScope(pkg.Path, goleakScope) {
				continue
			}
			waits := packageWaitObjects(pkg)
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						gs, ok := n.(*ast.GoStmt)
						if !ok {
							return true
						}
						body := goBody(pass, pkg, gs)
						if body == nil {
							return true // spawning an imported function: out of reach
						}
						if !hasExitPath(pkg.Info, body, fn, waits) {
							pass.Reportf(gs.Pos(), "goroutine has no statically visible exit path (ctx.Done select, closed-channel drain, or WaitGroup join); leaked workers accumulate under load")
						}
						return true
					})
				}
			}
		}
	}
	return a
}

// goBody resolves the function body a go statement spawns: a literal's own
// body, or the declaration of a directly named module function.
func goBody(pass *Pass, pkg *Package, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if callee := calleeFunc(pkg.Info, gs.Call); callee != nil {
		if decl, _ := pass.Graph.DeclOf(callee); decl != nil {
			return decl.Body
		}
	}
	return nil
}

// packageWaitObjects collects every object (field or variable) on which some
// function in pkg calls (*sync.WaitGroup).Wait — the visible join points.
func packageWaitObjects(pkg *Package) map[types.Object]bool {
	waits := make(map[types.Object]bool)
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if funcFullName(calleeFunc(pkg.Info, call)) != "(*sync.WaitGroup).Wait" {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if obj := selectorBaseObject(pkg.Info, sel.X); obj != nil {
					waits[obj] = true
				}
			}
			return true
		})
	}
	return waits
}

// selectorBaseObject resolves the receiver expression of a method call to a
// stable object: `wg` -> the local var, `s.workers` -> the field var.
func selectorBaseObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		if f := fieldVar(info, e); f != nil {
			return f
		}
		return info.ObjectOf(e.Sel)
	case *ast.UnaryExpr:
		return selectorBaseObject(info, e.X)
	case *ast.StarExpr:
		return selectorBaseObject(info, e.X)
	}
	return nil
}

// hasExitPath applies the goleak evidence rules to a spawned body. spawner
// is the declaration containing the go statement (where buffered channels
// would have been made); waits is the package's WaitGroup join set.
func hasExitPath(info *types.Info, body *ast.BlockStmt, spawner *ast.FuncDecl, waits map[types.Object]bool) bool {
	evidence := false
	infiniteFor := false
	hasReceive := false
	unbufferedSend := false

	buffered := bufferedChannels(info, spawner)

	ast.Inspect(body, func(n ast.Node) bool {
		if evidence {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					evidence = true // drains until close
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			hasReceive = true
			if recvFromDone(info, n.X) {
				evidence = true
			}
		case *ast.AssignStmt:
			// v, ok := <-ch observes closure: a comma-ok drain.
			if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
				if un, ok := ast.Unparen(n.Rhs[0]).(*ast.UnaryExpr); ok && un.Op == token.ARROW {
					evidence = true
				}
			}
		case *ast.SendStmt:
			if obj := selectorBaseObject(info, chanBase(n.Chan)); obj == nil || !buffered[obj] {
				unbufferedSend = true
			}
		case *ast.ForStmt:
			if n.Cond == nil {
				infiniteFor = true
			}
		case *ast.CallExpr:
			switch funcFullName(calleeFunc(info, n)) {
			case "(*sync.WaitGroup).Wait":
				evidence = true // the goroutine is itself a joiner
			case "(*sync.WaitGroup).Done":
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if obj := selectorBaseObject(info, sel.X); obj != nil && waits[obj] {
						evidence = true // joined by a visible Wait in this package
					}
				}
			}
		}
		return true
	})
	if evidence {
		return true
	}
	// No explicit exit signal: accept only structurally finite bodies.
	return !infiniteFor && !hasReceive && !unbufferedSend
}

// chanBase peels an index expression so readyD[d] <- x resolves to readyD.
func chanBase(e ast.Expr) ast.Expr {
	if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok {
		return ix.X
	}
	return e
}

// recvFromDone reports whether e is a call to context.Context.Done (the
// canonical cancellation receive).
func recvFromDone(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	callee := calleeFunc(info, call)
	return callee != nil && callee.Name() == "Done" && callee.Pkg() != nil && callee.Pkg().Path() == "context"
}

// bufferedChannels collects channel objects the function makes with an
// explicit capacity (3-arg make, or make into an element of a slice) — a
// send on those cannot block past the buffer, so a finite goroutine feeding
// one terminates.
func bufferedChannels(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fn == nil || fn.Body == nil {
		return out
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinCall(info, call, "make") || len(call.Args) < 2 {
				continue
			}
			if t, ok := info.Types[call.Args[0]]; !ok || t.Type == nil {
				continue
			} else if _, isChan := t.Type.Underlying().(*types.Chan); !isChan {
				continue
			}
			if obj := selectorBaseObject(info, chanBase(as.Lhs[i])); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}
