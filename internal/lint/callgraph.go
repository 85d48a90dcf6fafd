package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallKind classifies how a call-graph edge was discovered.
type CallKind uint8

const (
	// CallDirect is a static call to a named function or method.
	CallDirect CallKind = iota
	// CallInterface is a call through an interface method, resolved
	// class-hierarchy-analysis style to every module type satisfying the
	// interface.
	CallInterface
	// CallRef is a function value escaping to its assignment site: the
	// referencing function is treated as a potential caller, because once a
	// function value escapes, every later indirect call is invisible to
	// static analysis. This is what makes `exec := kernels.Exec` carry the
	// hot-path obligation to kernels.Exec.
	CallRef
)

func (k CallKind) String() string {
	switch k {
	case CallDirect:
		return "direct"
	case CallInterface:
		return "iface"
	default:
		return "ref"
	}
}

// CallEdge is one caller → callee relationship with its source position.
// Calls made inside func literals are attributed to the enclosing
// declaration: a closure runs with (and propagates the obligations of) its
// creator.
type CallEdge struct {
	Caller *types.Func
	Callee *types.Func
	Site   token.Pos
	Kind   CallKind
}

// declSite pairs a function's AST with its package, for body checks.
type declSite struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// CallGraph is the whole-module static call graph hotpath propagates its
// obligations over. Nodes are *types.Func objects; only functions declared
// in the module carry bodies and outgoing edges, but edges may point at
// imported functions (those are leaves).
type CallGraph struct {
	decls map[*types.Func]declSite
	out   map[*types.Func][]CallEdge
}

// BuildCallGraph constructs the CHA-style call graph of prog: direct calls,
// interface method calls resolved through the module's interface
// satisfaction sets, and function values tracked to the site where they are
// taken as a value.
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		decls: make(map[*types.Func]declSite),
		out:   make(map[*types.Func][]CallEdge),
	}

	// Every named non-interface type declared in the module, for interface
	// satisfaction queries.
	var concrete []*types.Named
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named)
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if def, _ := pkg.Info.Defs[fn.Name].(*types.Func); def != nil {
					g.decls[def] = declSite{Decl: fn, Pkg: pkg}
				}
			}
		}
	}
	sort.Slice(concrete, func(i, j int) bool {
		return concrete[i].Obj().Id() < concrete[j].Obj().Id()
	})

	// Memoized interface-method resolution: for an interface method m, the
	// set of concrete module methods that may answer a dynamic dispatch.
	implCache := make(map[*types.Func][]*types.Func)
	resolveIface := func(m *types.Func) []*types.Func {
		if impls, ok := implCache[m]; ok {
			return impls
		}
		sig, _ := m.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			implCache[m] = nil
			return nil
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			implCache[m] = nil
			return nil
		}
		var impls []*types.Func
		for _, named := range concrete {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				impls = append(impls, impl)
			}
		}
		implCache[m] = impls
		return impls
	}

	// Sorted caller order keeps edge discovery — and with it the provenance
	// chains ReachableFrom hands to diagnostics — deterministic run to run.
	for _, f := range g.Funcs() {
		site := g.decls[f]
		if site.Decl.Body == nil {
			continue
		}
		info := site.Pkg.Info

		// Identifiers in call position: their use is a call, not a value.
		callFun := make(map[*ast.Ident]bool)
		ast.Inspect(site.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callFun[fun] = true
			case *ast.SelectorExpr:
				callFun[fun.Sel] = true
			}
			return true
		})

		ast.Inspect(site.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := calleeFunc(info, n)
				if callee == nil {
					return true
				}
				if sig, _ := callee.Type().(*types.Signature); sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
					for _, impl := range resolveIface(callee) {
						g.addEdge(CallEdge{Caller: f, Callee: impl, Site: n.Pos(), Kind: CallInterface})
					}
					return true
				}
				g.addEdge(CallEdge{Caller: f, Callee: callee, Site: n.Pos(), Kind: CallDirect})
			case *ast.Ident:
				if callFun[n] {
					return true
				}
				if ref, ok := info.Uses[n].(*types.Func); ok {
					if _, inModule := g.decls[ref]; inModule {
						g.addEdge(CallEdge{Caller: f, Callee: ref, Site: n.Pos(), Kind: CallRef})
					}
				}
			}
			return true
		})
	}
	for _, edges := range g.out {
		sort.Slice(edges, func(i, j int) bool { return edges[i].Site < edges[j].Site })
	}
	return g
}

func (g *CallGraph) addEdge(e CallEdge) {
	g.out[e.Caller] = append(g.out[e.Caller], e)
}

// DeclOf returns the AST declaration and package of a module function, or
// (nil, nil) for imported functions.
func (g *CallGraph) DeclOf(f *types.Func) (*ast.FuncDecl, *Package) {
	s, ok := g.decls[f]
	if !ok {
		return nil, nil
	}
	return s.Decl, s.Pkg
}

// EdgesFrom returns f's outgoing edges in source order.
func (g *CallGraph) EdgesFrom(f *types.Func) []CallEdge { return g.out[f] }

// Funcs returns every module-declared function, sorted by full name (a
// deterministic iteration order for analyzers).
func (g *CallGraph) Funcs() []*types.Func {
	fs := make([]*types.Func, 0, len(g.decls))
	for f := range g.decls {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].FullName() < fs[j].FullName() })
	return fs
}

// ReachableFrom computes the set of functions reachable from roots over
// every edge kind. boundary marks functions whose bodies are not entered:
// they join the reachable frontier (so callers can validate them) but their
// outgoing edges are not followed. The returned via map records, for each
// non-root reached function, the edge that first reached it — provenance
// for diagnostics.
func (g *CallGraph) ReachableFrom(roots []*types.Func, boundary func(*types.Func) bool) (map[*types.Func]bool, map[*types.Func]CallEdge) {
	reached := make(map[*types.Func]bool)
	via := make(map[*types.Func]CallEdge)
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if !reached[r] {
			reached[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if boundary(f) {
			continue
		}
		for _, e := range g.out[f] {
			if reached[e.Callee] {
				continue
			}
			reached[e.Callee] = true
			via[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return reached, via
}

// Chain renders the provenance path from a root to f, e.g.
// "runWorker → take → rngNext". It follows via edges backwards, capped so a
// cycle cannot loop forever.
func (g *CallGraph) Chain(via map[*types.Func]CallEdge, f *types.Func) string {
	var names []string
	for hops := 0; hops < 32; hops++ {
		names = append(names, f.Name())
		e, ok := via[f]
		if !ok {
			break
		}
		f = e.Caller
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// Dump writes a deterministic text rendering of the graph (the -graph debug
// view of cmd/sparselint): one line per edge, callers sorted by full name.
func (g *CallGraph) Dump(fset *token.FileSet) string {
	var b strings.Builder
	for _, f := range g.Funcs() {
		for _, e := range g.out[f] {
			fmt.Fprintf(&b, "%s -> %s [%s] %s\n", f.FullName(), e.Callee.FullName(), e.Kind, fset.Position(e.Site))
		}
	}
	return b.String()
}
