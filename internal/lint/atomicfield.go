package lint

import (
	"go/ast"
	"go/types"
)

// atomicFieldAnalyzer allows typed atomics only: any call to a package-level
// sync/atomic function (atomic.AddInt64(&s.n, 1) and friends) is a finding.
// Such a function works on a plain word that the rest of the program can
// still read or write without sync/atomic, the mixed access the race
// detector catches only when the interleaving fires. The atomic.Int64-style
// types have no plain access path, and go vet's copylocks reports copies of
// them.
func atomicFieldAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "atomicfield",
		Doc:  "typed atomics only: no calls to package-level sync/atomic functions",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					f := calleeFunc(pkg.Info, call)
					if f != nil && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic" && f.Type().(*types.Signature).Recv() == nil {
						pass.Reportf(call.Pos(), "atomic.%s works on a plain word that can also be accessed plainly; use a typed atomic (atomic.Int64, atomic.Pointer, …)", f.Name())
					}
					return true
				})
			}
		}
	}
	return a
}
