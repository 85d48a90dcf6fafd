package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// bceAnalyzer flags indexing patterns that defeat Go's bounds-check
// elimination, in functions on the hot path (the same hotpath/coldcall
// closure hotpathalloc walks — a bounds check per element is only worth a
// finding where the element loop is the workload). Two patterns:
//
//  1. Re-indexing a parent slice inside a loop with a loop-variant sum,
//     a[base+j]: the compiler cannot prove base+j < len(a) and re-checks
//     every iteration. Pre-slicing a window before the loop
//     (w := a[base:base+n]; w[j]) gives the prover a length to work with.
//
//  2. Unrolled bodies touching s[i], s[i+1], ... s[i+k] with no bounds
//     hint: each constant offset keeps its own check. An explicit-high
//     reslice of s in the function (s = s[:n], ci := idx[lo:hi]), a loop
//     condition of the form i+K <= len(s), or touching the maximum offset
//     first all let the compiler drop the inner checks.
//
// Findings in propagated functions carry the same provenance chain as
// hotpathalloc findings.
func bceAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "bce",
		Doc:  "hot-path loops must not defeat bounds-check elimination (pre-slice windows, hint lengths before unrolled bodies)",
	}
	a.Run = func(pass *Pass) {
		g := pass.Graph
		cold := coldBoundaries(g, nil) // hotpathalloc owns annotation validation
		reached, via := hotClosure(g, cold)

		for _, f := range g.Funcs() {
			if !reached[f] || cold[f] {
				continue
			}
			decl, pkg := g.DeclOf(f)
			if decl.Body == nil {
				continue
			}
			suffix := ""
			if !hasAnnotation(decl.Doc, "hotpath") {
				suffix = fmt.Sprintf(" [hot path: %s]", g.Chain(via, f))
			}
			checkBCE(pass, pkg, decl, suffix)
		}
	}
	return a
}

func checkBCE(pass *Pass, pkg *Package, fn *ast.FuncDecl, suffix string) {
	info := pkg.Info
	windowed := explicitHighSlices(info, fn.Body)
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format+"%s", append(args, suffix)...)
	}

	// Pattern 1: s[base+i] where i is the innermost loop's own induction
	// variable, appearing bare — the access walks a contiguous window the
	// loop could have pre-sliced, but the compiler cannot prove base+i <
	// len(s). Strided gathers (b[p*n+j]: the induction variable only appears
	// scaled) are skipped: no contiguous window exists for those.
	type idxSite struct {
		ix *ast.IndexExpr
		iv types.Object // induction variable of the innermost enclosing loop
	}
	var sites []idxSite
	var collect func(n ast.Node, iv types.Object)
	collect = func(n ast.Node, iv types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // a different function; checked via its own graph node
			case *ast.ForStmt:
				if n.Init != nil {
					collect(n.Init, iv)
				}
				next := inductionVar(info, n)
				if n.Cond != nil {
					collect(n.Cond, next)
				}
				if n.Post != nil {
					collect(n.Post, next)
				}
				collect(n.Body, next)
				return false
			case *ast.RangeStmt:
				collect(n.Body, rangeKeyVar(info, n))
				return false
			case *ast.IndexExpr:
				if iv != nil {
					sites = append(sites, idxSite{n, iv})
				}
			}
			return true
		})
	}
	collect(fn.Body, nil)
	for _, s := range sites {
		ix := s.ix
		base, ok := ast.Unparen(ix.X).(*ast.Ident)
		if !ok || !isSliceExprType(info, ix.X) {
			continue
		}
		sum, ok := ast.Unparen(ix.Index).(*ast.BinaryExpr)
		if !ok || sum.Op != token.ADD {
			continue
		}
		var other ast.Expr
		switch {
		case isIdentFor(info, sum.X, s.iv):
			other = sum.Y
		case isIdentFor(info, sum.Y, s.iv):
			other = sum.X
		default:
			continue
		}
		if isConstExpr(info, other) {
			continue // s[i+3] is pattern 2's territory
		}
		if usesObject(info, other, s.iv) {
			continue // both addends vary with the loop: not window-shaped
		}
		report(ix.Pos(), "indexing %s with loop-variant base+%s defeats bounds-check elimination; pre-slice a window before the loop (w := %s[lo:hi])", base.Name, s.iv.Name(), base.Name)
	}

	// Pattern 2: unrolled constant-offset runs without a bounds hint,
	// grouped per statement block so an if-guarded remainder loop does not
	// pollute the main unrolled body.
	walkBlocks(fn.Body, nil, func(list []ast.Stmt, loop *ast.ForStmt) {
		checkUnrolled(info, list, loop, windowed, report)
	})
}

// walkBlocks visits every statement list in body with its nearest enclosing
// ForStmt (nil inside range loops and outside loops), without descending
// into func literals.
func walkBlocks(body *ast.BlockStmt, loop *ast.ForStmt, visit func([]ast.Stmt, *ast.ForStmt)) {
	var walk func(s ast.Stmt, loop *ast.ForStmt)
	walk = func(s ast.Stmt, loop *ast.ForStmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			visit(s.List, loop)
			for _, c := range s.List {
				walk(c, loop)
			}
		case *ast.ForStmt:
			walk(s.Body, s)
		case *ast.RangeStmt:
			walk(s.Body, nil)
		case *ast.IfStmt:
			walk(s.Body, loop)
			if s.Else != nil {
				walk(s.Else, loop)
			}
		case *ast.SwitchStmt:
			walk(s.Body, loop)
		case *ast.TypeSwitchStmt:
			walk(s.Body, loop)
		case *ast.SelectStmt:
			walk(s.Body, loop)
		case *ast.CaseClause:
			walk(&ast.BlockStmt{List: s.Body}, loop)
		case *ast.CommClause:
			walk(&ast.BlockStmt{List: s.Body}, loop)
		case *ast.LabeledStmt:
			walk(s.Stmt, loop)
		}
	}
	walk(body, loop)
}

// constOffsetAccess is one s[iv+c] (or s[iv], c=0) occurrence.
type constOffsetAccess struct {
	c   int64
	pos token.Pos
}

type accessKey struct {
	base types.Object
	iv   types.Object
}

// checkUnrolled looks at the index expressions of one statement list's
// direct statements (not nested blocks) and reports constant-offset runs
// s[iv], s[iv+1], ... that carry no bounds hint.
func checkUnrolled(info *types.Info, list []ast.Stmt, loop *ast.ForStmt, windowed map[types.Object]bool, report func(token.Pos, string, ...any)) {
	groups := make(map[accessKey][]constOffsetAccess)
	var keys []accessKey
	for _, s := range list {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.BlockStmt, *ast.FuncLit:
				return false // nested lists get their own visit
			}
			ix, ok := n.(*ast.IndexExpr)
			if !ok || !isSliceExprType(info, ix.X) {
				return true
			}
			base, ok := ast.Unparen(ix.X).(*ast.Ident)
			if !ok {
				return true
			}
			iv, c, ok := splitConstOffset(info, ix.Index)
			if !ok {
				return true
			}
			k := accessKey{info.ObjectOf(base), info.ObjectOf(iv)}
			if k.base == nil || k.iv == nil {
				return true
			}
			if _, seen := groups[k]; !seen {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], constOffsetAccess{c, ix.Pos()})
			return true
		})
	}
	for _, k := range keys {
		accs := groups[k]
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		maxC := int64(0)
		offsets := make(map[int64]bool)
		for _, a := range accs {
			offsets[a.c] = true
			if a.c > maxC {
				maxC = a.c
			}
		}
		if len(offsets) < 2 || maxC < 1 {
			continue // not an unrolled run
		}
		if windowed[k.base] {
			continue // explicit-high reslice already hints the length
		}
		if loop != nil && loopCondBounds(info, loop, k.iv, k.base, maxC) {
			continue // the loop condition proves iv+maxC in range
		}
		if accs[0].c == maxC {
			continue // max offset touched first: later checks fold away
		}
		report(accs[0].pos, "unrolled accesses of %s up to offset +%d lack a bounds hint; reslice with an explicit high (%s = %s[:n]) or bound the loop with i+%d <= len(%s)",
			k.base.Name(), maxC, k.base.Name(), k.base.Name(), maxC+1, k.base.Name())
	}
}

// inductionVar extracts the induction variable of a classic for loop: the
// single identifier its post statement increments or advances.
func inductionVar(info *types.Info, loop *ast.ForStmt) types.Object {
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(post.X).(*ast.Ident); ok {
			return info.ObjectOf(id)
		}
	case *ast.AssignStmt:
		if len(post.Lhs) == 1 {
			if id, ok := ast.Unparen(post.Lhs[0]).(*ast.Ident); ok {
				return info.ObjectOf(id)
			}
		}
	}
	return nil
}

// rangeKeyVar extracts the key variable of a range loop.
func rangeKeyVar(info *types.Info, loop *ast.RangeStmt) types.Object {
	if id, ok := loop.Key.(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// isIdentFor reports whether e is a bare identifier resolving to obj.
func isIdentFor(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

// usesObject reports whether e references obj anywhere.
func usesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// splitConstOffset decomposes an index expression into induction ident and
// constant offset: `i` -> (i, 0), `i+2`/`2+i` -> (i, 2).
func splitConstOffset(info *types.Info, e ast.Expr) (*ast.Ident, int64, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if isConstExpr(info, e) {
			return nil, 0, false // a named constant, not an induction var
		}
		return e, 0, true
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return nil, 0, false
		}
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && !isConstExpr(info, e.X) {
			if c, ok := constInt(info, e.Y); ok {
				return id, c, true
			}
		}
		if id, ok := ast.Unparen(e.Y).(*ast.Ident); ok && !isConstExpr(info, e.Y) {
			if c, ok := constInt(info, e.X); ok {
				return id, c, true
			}
		}
	}
	return nil, 0, false
}

// loopCondBounds reports whether loop's condition proves iv+maxC is a valid
// index of base: `iv+K <= len(base)` with K > maxC, or `iv+K < len(base)`
// with K >= maxC (plus the mirrored orientations).
func loopCondBounds(info *types.Info, loop *ast.ForStmt, iv, base types.Object, maxC int64) bool {
	cond, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	lhs, op, rhs := cond.X, cond.Op, cond.Y
	// Normalize to iv-side OP len-side.
	switch op {
	case token.GEQ:
		lhs, op, rhs = rhs, token.LEQ, lhs
	case token.GTR:
		lhs, op, rhs = rhs, token.LSS, lhs
	case token.LEQ, token.LSS:
	default:
		return false
	}
	if !isLenOf(info, rhs, base) {
		return false
	}
	id, k, ok := splitConstOffset(info, lhs)
	if !ok || info.ObjectOf(id) != iv {
		return false
	}
	if op == token.LEQ {
		return k > maxC
	}
	return k >= maxC
}

// isLenOf reports whether e is `len(x)` with x resolving to obj.
func isLenOf(info *types.Info, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !isBuiltinCall(info, call, "len") || len(call.Args) != 1 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

// explicitHighSlices collects objects assigned from a slice expression with
// an explicit high bound (s[a:b], s[:n]) anywhere in body — the compiler
// knows their length relative to the reslice, and so does the reader.
func explicitHighSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			se, ok := ast.Unparen(rhs).(*ast.SliceExpr)
			if !ok || se.High == nil {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isSliceExprType reports whether e's type is a slice or array.
func isSliceExprType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// isConstExpr reports whether e is a compile-time constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.Value != nil
}

// constInt returns e's constant integer value.
func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}
