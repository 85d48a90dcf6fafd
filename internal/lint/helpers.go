package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == name && isAnyBuiltin(info, call)
}

// isAnyBuiltin reports whether call invokes any language builtin.
func isAnyBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// calleeFunc resolves the *types.Func a call statically targets (direct
// function or method calls; nil for builtins, conversions, and calls through
// function values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcFullName is the callee's canonical name, e.g. "time.Sleep",
// "(*sync.WaitGroup).Wait".
func funcFullName(f *types.Func) string {
	if f == nil {
		return ""
	}
	return f.FullName()
}

// blockKind names an operation that can park the calling goroutine.
type blockKind int

const (
	notBlocking blockKind = iota
	blockSend             // channel send
	blockRecv             // channel receive
	blockSelect           // select with no default clause
	blockCall             // time.Sleep, WaitGroup.Wait, Cond.Wait
)

// blockingOp is lockdiscipline's "can this block?" classifier. It looks at
// n alone, not its children, so the caller picks its walk. A CFG selectOp
// blocks only as the head of a select with no default; its comm ops fire only
// once ready.
func blockingOp(info *types.Info, n ast.Node) blockKind {
	switch n := n.(type) {
	case *ast.SendStmt:
		return blockSend
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return blockRecv
		}
	case *ast.SelectStmt:
		if !selectHasDefault(n) {
			return blockSelect
		}
	case *selectOp:
		if n.Comm == nil && !n.HasDefault {
			return blockSelect
		}
	case *ast.CallExpr:
		switch funcFullName(calleeFunc(info, n)) {
		case "time.Sleep", "(*sync.WaitGroup).Wait", "(*sync.Cond).Wait":
			return blockCall
		}
	}
	return notBlocking
}

// selectHasDefault reports whether s has a default clause, which makes it
// non-blocking.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// pathInScope reports whether a package import path is (or is inside) one of
// the given path suffixes, e.g. suffix "internal/sched" matches
// "sparsetask/internal/sched" and "fixture/internal/sched/sub".
func pathInScope(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(path, s) || strings.Contains(path, s+"/") {
			return true
		}
	}
	return false
}

// derefType removes one level of pointer indirection.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
