package lint

import (
	"go/ast"
	"go/types"
)

// The dataflow engine: a forward worklist solver over the CFG of one
// function. An analysis supplies an abstract state (flowState) and two
// operations (flowTransfers); the solver computes the fixpoint of block
// entry states. Every lattice used here (held locks, error-check facts) is
// finite per function, so the fixpoint terminates; a step cap turns a
// non-monotone transfer bug into a "did not converge" finding instead of a
// hang. The clients are lockdiscipline and errflow, and funcBodies is the
// walk they share.

// flowState is one analysis' abstract state at a program point.
type flowState interface {
	// clone returns an independent copy.
	clone() flowState
	// mergeFrom joins other into the receiver (the join at a CFG merge
	// point) and reports whether the receiver changed.
	mergeFrom(other flowState) bool
}

// flowTransfers is the analysis half of the engine.
type flowTransfers interface {
	// transfer mutates st through the evaluation of one CFG node.
	transfer(st flowState, n ast.Node)
	// refine mutates st with the knowledge that cond evaluated to true
	// (negated false) or false (negated true) on the edge being followed.
	refine(st flowState, cond ast.Expr, negated bool)
}

// solveForward runs the worklist algorithm and returns the entry state of
// every reachable block (the map never contains unreachable blocks), and
// whether a fixpoint was reached within the step cap. When it was not, the
// states are partial and must not be reported from.
func solveForward(g *CFG, tr flowTransfers, entry flowState) (map[*CFGBlock]flowState, bool) {
	in := map[*CFGBlock]flowState{g.Entry: entry}
	work := []*CFGBlock{g.Entry}
	queued := map[*CFGBlock]bool{g.Entry: true}
	steps, limit := 0, 256*(len(g.Blocks)+1)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		if steps++; steps > limit {
			return in, false
		}
		out := in[blk].clone()
		for _, n := range blk.Nodes {
			tr.transfer(out, n)
		}
		for _, e := range blk.Succs {
			st := out.clone()
			if e.Cond != nil {
				tr.refine(st, e.Cond, e.Negated)
			}
			cur, ok := in[e.To]
			changed := false
			if !ok {
				in[e.To] = st
				changed = true
			} else {
				changed = cur.mergeFrom(st)
			}
			if changed && !queued[e.To] {
				queued[e.To] = true
				work = append(work, e.To)
			}
		}
	}
	return in, true
}

// replayBlocks re-runs the transfer function over every reachable block in
// index order, starting each block from its solved entry state. Analyses use
// this as the reporting pass: with the fixpoint known, a second traversal
// with reporting enabled sees every node exactly once under its final facts.
func replayBlocks(g *CFG, tr flowTransfers, solved map[*CFGBlock]flowState) {
	for _, blk := range g.Blocks {
		st, ok := solved[blk]
		if !ok {
			continue
		}
		work := st.clone()
		for _, n := range blk.Nodes {
			tr.transfer(work, n)
		}
	}
}

// funcBody is one function a CFG client analyses: a declaration's body or a
// func literal's. Name identifies it in findings.
type funcBody struct {
	Name string
	Type *ast.FuncType
	Body *ast.BlockStmt
}

// funcBodies lists every function body in pkg in source order: each
// FuncDecl body, then the func literals inside that declaration (package
// variable initializers included). A closure is analysed as a function in
// its own right; to its parent's CFG it is an opaque value.
func funcBodies(pkg *Package) []funcBody {
	var out []funcBody
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			parent := "package scope"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Body == nil {
					continue
				}
				parent = declName(fn)
				out = append(out, funcBody{Name: parent, Type: fn.Type, Body: fn.Body})
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcBody{Name: "func literal in " + parent, Type: lit.Type, Body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// declName renders a declaration for findings: "f" or "(*T).m".
func declName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}

// reportNoFixpoint is what a client does when solveForward gives up: a
// finding naming the function, so a transfer bug fails the lint gate rather
// than silently dropping the findings a partial state would miss.
func reportNoFixpoint(pass *Pass, fb funcBody) {
	pass.Reportf(fb.Body.Pos(), "dataflow analysis of %s did not converge; its findings are incomplete", fb.Name)
}
