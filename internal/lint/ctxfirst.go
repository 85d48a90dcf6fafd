package lint

import (
	"go/ast"
	"go/types"
)

// ctxFirstScope is the set of packages whose exported APIs sit on blocking
// paths: the runtime facade, the scheduler, and the serving layer (shard
// engine and router).
var ctxFirstScope = []string{"internal/rt", "internal/sched", "internal/server", "internal/route"}

// ctxFirstAnalyzer enforces context discipline in the blocking layers:
// context.Context must be the first parameter wherever it appears, exported
// APIs that can block must accept one (http handlers derive theirs from
// *http.Request and io.Closer-shaped Close() is exempt), and a function that
// already has a ctx must propagate it rather than minting
// context.Background/TODO.
func ctxFirstAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "ctxfirst",
		Doc:  "blocking exported APIs in rt/sched/server/route take context.Context first and propagate it",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			if !pathInScope(pkg.Path, ctxFirstScope) {
				continue
			}
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						checkCtxFunc(pass, pkg, decl)
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							ts, ok := spec.(*ast.TypeSpec)
							if !ok {
								continue
							}
							if it, ok := ts.Type.(*ast.InterfaceType); ok && ts.Name.IsExported() {
								checkCtxInterface(pass, pkg, it)
							}
						}
					}
				}
			}
		}
	}
	return a
}

func checkCtxFunc(pass *Pass, pkg *Package, fn *ast.FuncDecl) {
	info := pkg.Info
	sig, _ := info.Defs[fn.Name].(*types.Func)
	if sig == nil {
		return
	}
	st, ok := sig.Type().(*types.Signature)
	if !ok {
		return
	}
	params := st.Params()

	ctxIndex := -1
	hasHTTPReq := false
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isContextType(t) && ctxIndex < 0 {
			ctxIndex = i
		}
		if isHTTPRequestPtr(t) {
			hasHTTPReq = true
		}
	}
	if ctxIndex > 0 {
		pass.Reportf(fn.Name.Pos(), "context.Context must be the first parameter of %s", fn.Name.Name)
	}

	if fn.Body == nil {
		return
	}

	exported := fn.Name.IsExported() && exportedReceiver(fn, info)
	isCloser := fn.Name.Name == "Close" && params.Len() == 0
	if exported && !isCloser && ctxIndex < 0 && !hasHTTPReq && blockingBody(info, fn.Body) {
		pass.Reportf(fn.Name.Pos(), "exported %s can block but takes no context.Context; accept ctx as the first parameter", fn.Name.Name)
	}

	// Propagation: a function that was handed a ctx must not mint a fresh
	// root context for downstream calls. Re-binding the ctx parameter itself
	// (`if ctx == nil { ctx = context.Background() }`) is the standard
	// defensive default and is allowed.
	if ctxIndex >= 0 {
		ctxParam := st.Params().At(ctxIndex)
		rebind := make(map[*ast.CallExpr]bool)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.ObjectOf(id) != ctxParam {
					continue
				}
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
					rebind[call] = true
				}
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || rebind[call] {
				return true
			}
			switch funcFullName(calleeFunc(info, call)) {
			case "context.Background", "context.TODO":
				pass.Reportf(call.Pos(), "%s already receives a ctx; propagate it instead of %s",
					fn.Name.Name, types.ExprString(call.Fun))
			}
			return true
		})
	}
}

// checkCtxInterface applies the ctx-position rule to exported interface
// methods (the contract callers program against).
func checkCtxInterface(pass *Pass, pkg *Package, it *ast.InterfaceType) {
	for _, m := range it.Methods.List {
		ft, ok := m.Type.(*ast.FuncType)
		if !ok || ft.Params == nil {
			continue
		}
		idx := 0
		for _, f := range ft.Params.List {
			t := pkg.Info.TypeOf(f.Type)
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			if t != nil && isContextType(t) && idx > 0 {
				for _, name := range m.Names {
					pass.Reportf(f.Type.Pos(), "context.Context must be the first parameter of interface method %s", name.Name)
				}
			}
			idx += n
		}
	}
}

// exportedReceiver reports whether fn is part of the package's exported
// surface: a plain function, or a method on an exported named type.
func exportedReceiver(fn *ast.FuncDecl, info *types.Info) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := info.TypeOf(fn.Recv.List[0].Type)
	if t == nil {
		return true
	}
	if n, ok := derefType(t).(*types.Named); ok {
		return n.Obj().Exported()
	}
	return true
}

// blockingBody reports whether root contains an operation that can block
// (blockingOp). Func literals are skipped — goroutines the function spawns
// block on their own schedule, not the caller's — and so are the comm ops of
// a select with a default (`case ch <- v:`), which only fire when ready; the
// clause bodies are still walked.
func blockingBody(info *types.Info, root ast.Node) bool {
	blocking := false
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CommClause:
			for _, s := range n.Body {
				blocking = blocking || blockingBody(info, s)
			}
			return false
		}
		blocking = blocking || blockingOp(info, n) != notBlocking
		return !blocking
	})
	return blocking
}
