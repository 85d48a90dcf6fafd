package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// The errflow analyzer requires error values in the serving layer and the
// command-line tools to be checked on every path. It runs the dataflow
// engine path-sensitively per function: an error-typed local assigned from a
// call carries an "unchecked" obligation that any read — a condition, a
// return, an argument, a closure capture — discharges; the obligation
// survives CFG joins pessimistically, so an error checked on only one branch
// is still a finding.
//
// Reported shapes:
//   - assigned-then-overwritten: `err = f(); err = g()` with no read between;
//   - unchecked at exit: an obligation alive on some path to a return;
//   - `_`-discarded: an error result assigned to the blank identifier;
//   - dropped in statement, go, or defer position: a call whose error result
//     nobody receives.
//
// Exemptions (the Go idioms that would otherwise force suppressions
// everywhere): zero-argument Close (deferred response-body/file cleanup),
// the fmt print family (best-effort console output; buffered writers
// surface errors at Flush), and writers that are documented never to fail
// (bytes.Buffer, strings.Builder, hash.Hash).

var errflowScope = []string{"internal/server", "internal/route", "cmd"}

// errflowDropExempt lists full-name prefixes of callees whose dropped error
// results are sanctioned.
var errflowDropExempt = []string{
	"fmt.Print",
	"fmt.Fprint",
	"(*bytes.Buffer).",
	"(*strings.Builder).",
	"(hash.",
}

func errflowAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "errflow",
		Doc:  "error values in server/route/cmd must be checked on all paths, not overwritten, discarded, or dropped",
	}
	a.Run = runErrflow
	return a
}

func runErrflow(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		if !pathInScope(pkg.Path, errflowScope) {
			continue
		}
		for _, fb := range funcBodies(pkg) {
			checkErrflowBody(pass, pkg, fb)
		}
	}
}

func checkErrflowBody(pass *Pass, pkg *Package, fb funcBody) {
	fl := &errflowFlow{pass: pass, info: pkg.Info, excluded: make(map[types.Object]bool)}
	// Named error results are implicitly returned: assignments to them are
	// the function's answer, not an unchecked obligation.
	if fb.Type.Results != nil {
		for _, f := range fb.Type.Results.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					fl.excluded[obj] = true
				}
			}
		}
	}
	g := buildCFG(fb.Body)
	solved, ok := solveForward(g, fl, newErrflowState())
	if !ok {
		reportNoFixpoint(pass, fb)
		return
	}
	fl.report = true
	replayBlocks(g, fl, solved)

	// Obligations alive at exit were never checked on some path.
	exit, ok := solved[g.Exit]
	if !ok {
		return
	}
	st := exit.(*errflowState)
	type open struct {
		obj  types.Object
		fact errFact
	}
	var opens []open
	for obj, fact := range st.facts {
		if !fact.checked {
			opens = append(opens, open{obj, fact})
		}
	}
	sort.Slice(opens, func(i, j int) bool { return opens[i].fact.pos < opens[j].fact.pos })
	for _, o := range opens {
		pass.Reportf(o.fact.pos, "error assigned to %s may reach a return without being checked", o.obj.Name())
	}
}

// ---------------------------------------------------------------- state

type errFact struct {
	pos     token.Pos // assignment site
	checked bool
}

type errflowState struct {
	facts map[types.Object]errFact
}

func newErrflowState() *errflowState {
	return &errflowState{facts: make(map[types.Object]errFact)}
}

func (s *errflowState) clone() flowState {
	return &errflowState{facts: maps.Clone(s.facts)}
}

func (s *errflowState) mergeFrom(other flowState) bool {
	o := other.(*errflowState)
	changed := false
	for obj, of := range o.facts {
		sf, ok := s.facts[obj]
		if !ok {
			s.facts[obj] = of
			changed = true
			continue
		}
		merged := errFact{pos: sf.pos, checked: sf.checked && of.checked}
		if of.pos < merged.pos {
			merged.pos = of.pos
		}
		if merged != sf {
			s.facts[obj] = merged
			changed = true
		}
	}
	return changed
}

// ---------------------------------------------------------------- transfer

type errflowFlow struct {
	pass     *Pass
	info     *types.Info
	excluded map[types.Object]bool
	report   bool
}

func (fl *errflowFlow) refine(st flowState, cond ast.Expr, negated bool) {}

func (fl *errflowFlow) transfer(st flowState, n ast.Node) {
	s := st.(*errflowState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		fl.handleAssign(s, n)
	case *ast.DeclStmt:
		fl.handleDecl(s, n)
	case *ast.ExprStmt:
		fl.consume(s, n.X)
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			fl.checkDrop(s, call, "statement")
		}
	case *ast.GoStmt:
		fl.consume(s, n.Call)
		fl.checkDrop(s, n.Call, "go statement")
	case *ast.DeferStmt:
		fl.consume(s, n.Call)
		fl.checkDrop(s, n.Call, "defer")
	case *ast.SendStmt:
		fl.consume(s, n.Chan)
		fl.consume(s, n.Value)
	case *ast.IncDecStmt:
		fl.consume(s, n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			fl.consume(s, r)
		}
	case *rangeBind:
		fl.consume(s, n.Range.X)
	case *selectOp:
		if n.Comm != nil {
			fl.transfer(s, n.Comm)
		}
	case ast.Expr:
		fl.consume(s, n)
	}
}

// consume discharges the obligation of every tracked error a node reads.
// Func literal bodies are walked too: a closure observing err (a deferred
// error wrapper) counts as a check.
func (fl *errflowFlow) consume(s *errflowState, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := fl.info.Uses[id]
		if obj == nil {
			return true
		}
		if fact, tracked := s.facts[obj]; tracked && !fact.checked {
			fact.checked = true
			s.facts[obj] = fact
		}
		return true
	})
}

func (fl *errflowFlow) handleAssign(s *errflowState, n *ast.AssignStmt) {
	for _, r := range n.Rhs {
		fl.consume(s, r)
	}
	for _, l := range n.Lhs {
		if _, isIdent := ast.Unparen(l).(*ast.Ident); !isIdent {
			fl.consume(s, l) // a[i] = x, s.f = x: the lvalue path is read
		}
	}

	multi := len(n.Lhs) > 1 && len(n.Rhs) == 1
	var multiCall *ast.CallExpr
	var multiSig *types.Signature
	if multi {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			multiCall = call
			multiSig = callSignature(fl.info, call)
		}
	}

	for i, l := range n.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		var obligation bool
		var srcCall *ast.CallExpr
		var resultIsError bool
		if multi {
			srcCall = multiCall
			if multiSig != nil && i < multiSig.Results().Len() {
				resultIsError = isErrorType(multiSig.Results().At(i).Type())
			}
			obligation = srcCall != nil && resultIsError
		} else if i < len(n.Rhs) {
			if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
				srcCall = call
				if sig := callSignature(fl.info, call); sig != nil && sig.Results().Len() == 1 {
					resultIsError = isErrorType(sig.Results().At(0).Type())
				}
				obligation = resultIsError
			}
		}

		if id.Name == "_" {
			if fl.report && srcCall != nil && resultIsError && !dropExempt(fl.info, srcCall) {
				fl.pass.Reportf(n.Pos(), "error result of %s is discarded; handle it or suppress with a reason", callDisplay(srcCall))
			}
			continue
		}
		obj := fl.info.ObjectOf(id)
		if obj == nil || fl.excluded[obj] || !isErrorType(obj.Type()) {
			continue
		}
		if fact, tracked := s.facts[obj]; tracked && !fact.checked && obligation && fl.report {
			prev := fl.pass.Prog.Fset.Position(fact.pos)
			fl.pass.Reportf(id.Pos(), "%s is overwritten before the error assigned at line %d is checked", obj.Name(), prev.Line)
		}
		if obligation {
			s.facts[obj] = errFact{pos: id.Pos()}
		} else {
			delete(s.facts, obj)
		}
	}
}

func (fl *errflowFlow) handleDecl(s *errflowState, n *ast.DeclStmt) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			fl.consume(s, v)
		}
		if len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, name := range vs.Names {
			obj := fl.info.Defs[name]
			if obj == nil || !isErrorType(obj.Type()) {
				continue
			}
			if _, ok := ast.Unparen(vs.Values[i]).(*ast.CallExpr); ok {
				s.facts[obj] = errFact{pos: name.Pos()}
			}
		}
	}
}

// checkDrop flags a statement/go/defer call whose error result nobody
// receives.
func (fl *errflowFlow) checkDrop(s *errflowState, call *ast.CallExpr, where string) {
	if !fl.report {
		return
	}
	if tv, ok := fl.info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if isAnyBuiltin(fl.info, call) {
		return
	}
	sig := callSignature(fl.info, call)
	if sig == nil {
		return
	}
	hasErr := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			hasErr = true
		}
	}
	if !hasErr || dropExempt(fl.info, call) {
		return
	}
	fl.pass.Reportf(call.Pos(), "error result of %s is dropped in %s position; check it", callDisplay(call), where)
}

// ---------------------------------------------------------------- helpers

// callSignature resolves the signature of any call: named callees and calls
// through function values.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if f := calleeFunc(info, call); f != nil {
		sig, _ := f.Type().(*types.Signature)
		return sig
	}
	if t := info.TypeOf(call.Fun); t != nil {
		sig, _ := t.Underlying().(*types.Signature)
		return sig
	}
	return nil
}

func callDisplay(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// dropExempt applies the sanctioned-drop list: zero-arg Close and the
// never-fail writer families.
func dropExempt(info *types.Info, call *ast.CallExpr) bool {
	callee := calleeFunc(info, call)
	if callee == nil {
		return false
	}
	if callee.Name() == "Close" {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Params().Len() == 0 {
			return true
		}
	}
	full := callee.FullName()
	for _, p := range errflowDropExempt {
		if strings.HasPrefix(full, p) {
			return true
		}
	}
	// hash.Hash receivers are interfaces (hash.Hash32/Hash64), so the method
	// object behind h.Write is (io.Writer).Write and the prefix list above
	// cannot see the hash package — look at the receiver's static type
	// instead. hash.Hash documents that Write never returns an error.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := info.TypeOf(sel.X); t != nil {
			if named, ok := derefType(t).(*types.Named); ok {
				if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "hash" {
					return true
				}
			}
		}
	}
	return false
}
