package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathAllocAnalyzer enforces the PR-3 zero-allocation contract
// interprocedurally. Functions annotated `// sparselint:hotpath` are roots;
// the bans — no closures capturing variables, no append without a capacity
// preallocated in the same function, no implicit interface conversions, no
// fmt calls or string concatenation, no map/slice literals, no make —
// propagate over the whole-module call graph to every function reachable
// from a root: direct calls, interface dispatch (resolved CHA-style), and
// function values taken as values. Expressions inside panic(...) arguments
// are exempt — failure paths never run in steady state.
//
// A reachable function annotated `// sparselint:coldcall <reason>` is a
// boundary: its body is not checked and propagation stops there. The
// annotation is itself validated — the reason is mandatory, combining it
// with sparselint:hotpath is contradictory, and every direct call to a
// coldcall function from hot code must sit in a cold context (a conditional
// branch, a defer, or a panic argument): an unconditional coldcall on the
// steady-state path is a mislabeled hot call.
func hotpathAllocAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc:  "no heap-escaping constructs reachable from sparselint:hotpath roots (coldcall bounds the walk)",
	}
	a.Run = func(pass *Pass) {
		g := pass.Graph
		cold := coldBoundaries(g, pass)
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
			checkHotFunc(pass, pkg, decl, suffix)
			checkColdCallSites(pass, g, decl, f, cold, via)
		}
	}
	return a
}

// coldBoundaries collects the sparselint:coldcall-annotated functions and
// validates the annotations themselves: the reason is mandatory, and pairing
// coldcall with hotpath is contradictory. bce shares it, so both analyzers
// see one hot closure (bce passes a nil pass and skips the validation half —
// hotpathalloc owns those findings).
func coldBoundaries(g *CallGraph, pass *Pass) map[*types.Func]bool {
	cold := make(map[*types.Func]bool)
	for _, f := range g.Funcs() {
		decl, _ := g.DeclOf(f)
		reason, ok := annotationArg(decl.Doc, "coldcall")
		if !ok {
			continue
		}
		cold[f] = true
		if pass == nil {
			continue
		}
		if reason == "" {
			pass.Reportf(decl.Name.Pos(), "sparselint:coldcall on %s needs a reason", f.Name())
		}
		if hasAnnotation(decl.Doc, "hotpath") {
			pass.Reportf(decl.Name.Pos(), "%s is annotated both sparselint:hotpath and sparselint:coldcall; pick one", f.Name())
		}
	}
	return cold
}

// hotClosure computes the transitive hot set: everything reachable from a
// hotpath-annotated root, stopping at (but including) coldcall boundaries.
func hotClosure(g *CallGraph, cold map[*types.Func]bool) (map[*types.Func]bool, map[*types.Func]CallEdge) {
	var roots []*types.Func
	for _, f := range g.Funcs() {
		decl, _ := g.DeclOf(f)
		if hasAnnotation(decl.Doc, "hotpath") {
			roots = append(roots, f)
		}
	}
	return g.ReachableFrom(roots, func(f *types.Func) bool { return cold[f] })
}

// checkColdCallSites validates the coldcall boundary contract at f's call
// sites: a direct call from hot code into a coldcall function must be
// conditionally executed (or deferred), never on the unconditional
// steady-state path.
func checkColdCallSites(pass *Pass, g *CallGraph, decl *ast.FuncDecl, f *types.Func, cold map[*types.Func]bool, via map[*types.Func]CallEdge) {
	var spans []span
	collected := false
	for _, e := range g.EdgesFrom(f) {
		if !cold[e.Callee] || e.Kind != CallDirect {
			continue
		}
		if !collected {
			spans = coldSpans(pass, g.decls[f].Pkg.Info, decl.Body)
			collected = true
		}
		if !inSpans(spans, e.Site) {
			pass.Reportf(e.Site, "sparselint:coldcall %s is called unconditionally from hot code in %s; a cold boundary must sit behind an error/init/panic branch", e.Callee.Name(), f.Name())
		}
	}
}

// span is a source interval [lo, hi).
type span struct{ lo, hi token.Pos }

func inSpans(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s.lo && pos < s.hi {
			return true
		}
	}
	return false
}

// coldSpans collects the conditionally-executed intervals of body: if/else
// bodies, switch cases, select clauses, defers, and panic arguments.
func coldSpans(pass *Pass, info *types.Info, body *ast.BlockStmt) []span {
	var spans []span
	add := func(n ast.Node) {
		if n != nil {
			spans = append(spans, span{n.Pos(), n.End()})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			add(n.Body)
			add(n.Else)
		case *ast.CaseClause:
			for _, s := range n.Body {
				add(s)
			}
		case *ast.CommClause:
			for _, s := range n.Body {
				add(s)
			}
		case *ast.DeferStmt:
			add(n)
		case *ast.CallExpr:
			if isBuiltinCall(info, n, "panic") {
				for _, arg := range n.Args {
					add(arg)
				}
			}
		}
		return true
	})
	return spans
}

func checkHotFunc(pass *Pass, pkg *Package, fn *ast.FuncDecl, suffix string) {
	info := pkg.Info
	prealloc := preallocatedSlices(info, fn.Body)
	// Findings in propagated (unannotated) functions carry the provenance
	// chain back to their hotpath root.
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format+"%s", append(args, suffix)...)
	}

	// Spans of panic(...) arguments: constructs inside them only run on the
	// failure path and are exempt.
	var panicSpans []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltinCall(info, call, "panic") {
			for _, arg := range call.Args {
				panicSpans = append(panicSpans, span{arg.Pos(), arg.End()})
			}
		}
		return true
	})
	exempt := func(pos token.Pos) bool { return inSpans(panicSpans, pos) }

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A func literal that captures variables forces a heap-allocated
			// closure (and usually moves the captures to the heap with it).
			// Don't descend: the literal body is a different function.
			if !exempt(n.Pos()) {
				if caps := capturedVars(info, n); len(caps) > 0 {
					report(n.Pos(), "closure captures %s; capturing closures allocate in hot paths", caps[0])
				}
			}
			return false
		case *ast.CallExpr:
			if exempt(n.Pos()) {
				return true
			}
			switch {
			case isBuiltinCall(info, n, "append"):
				if !appendPreallocated(info, n, prealloc) {
					report(n.Pos(), "append may grow its backing array; reslice a preallocated buffer ([:0]) instead")
				}
			case isBuiltinCall(info, n, "make"):
				report(n.Pos(), "make allocates; hoist the allocation out of the hot path")
			default:
				if isAnyBuiltin(info, n) {
					// panic boxes its argument, but it is the failure path;
					// the other builtins (len, cap, copy, delete) don't box.
					return true
				}
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
					if types.IsInterface(tv.Type) && len(n.Args) == 1 && isConcrete(info, n.Args[0]) {
						report(n.Pos(), "conversion to interface %s allocates", tv.Type)
					}
					return true
				}
				if callee := calleeFunc(info, n); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
					report(n.Pos(), "fmt.%s allocates (formatting + interface boxing)", callee.Name())
				}
				checkInterfaceArgs(report, info, n)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !exempt(n.Pos()) {
				if t, ok := info.Types[n]; ok {
					if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.CompositeLit:
			if !exempt(n.Pos()) {
				if t, ok := info.Types[n]; ok {
					switch t.Type.Underlying().(type) {
					case *types.Map:
						report(n.Pos(), "map literal allocates")
					case *types.Slice:
						report(n.Pos(), "slice literal allocates")
					}
				}
			}
		}
		return true
	})
}

// preallocatedSlices collects objects assigned from a slice expression
// (x[a:b], x[:0]) anywhere in body: appending to these reuses a buffer whose
// capacity was provisioned elsewhere, the PR-3 arena pattern.
func preallocatedSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, ok := rhs.(*ast.SliceExpr); !ok {
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

// appendPreallocated reports whether the append target is a variable known
// to alias a preallocated buffer in this function.
func appendPreallocated(info *types.Info, call *ast.CallExpr, prealloc map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	return prealloc[info.ObjectOf(id)]
}

// checkInterfaceArgs flags arguments whose concrete value is implicitly
// converted to an interface parameter — the boxing that makes fmt-style
// APIs allocate.
func checkInterfaceArgs(report func(token.Pos, string, ...any), info *types.Info, call *ast.CallExpr) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos && i == params.Len()-1 {
				pt = params.At(params.Len() - 1).Type() // x... passes the slice itself
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if isConcrete(info, arg) {
			report(arg.Pos(), "implicit conversion of %s to interface %s allocates", info.Types[arg].Type, pt)
		}
	}
}

// isConcrete reports whether e has a concrete (non-interface, non-nil) type.
func isConcrete(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !types.IsInterface(tv.Type)
}

// capturedVars lists variables a func literal references that are declared
// outside it (free variables, excluding package-level objects which do not
// force a closure allocation).
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	var out []string
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true // package scope: no capture needed
		}
		seen[obj] = true
		out = append(out, v.Name())
		return true
	})
	return out
}
