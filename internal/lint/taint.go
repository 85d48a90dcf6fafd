package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// The taint analyzer tracks untrusted values — sizes, counts, durations —
// from the serving path's ingress points to resource sinks, and requires a
// validating clamp in between. It is built on the dataflow engine (cfg.go,
// dataflow.go): a forward abstract interpretation per function, made
// interprocedural by per-function summaries (callgraph.go) computed
// callee-first over the call graph SCCs.
//
// Sources (where taint is born):
//   - reads of basic-typed fields of JSON-ingress struct types (any struct
//     that is a json.Decode/Unmarshal target somewhere in the module,
//     closed over nested struct fields), read inside internal/server,
//     internal/route, or internal/sparse;
//   - results of strconv.Atoi/Parse* and the pointer targets of the
//     fmt.Sscan family inside internal/sparse (MatrixMarket header and
//     entry fields);
//   - HTTP request field accessors (PathValue, FormValue, url.Values.Get)
//     and reads of Request.ContentLength inside internal/server and
//     internal/route.
//
// Clamps (what kills taint):
//   - branch refinement: on the edge where `v <= bound` (or the false edge
//     of `v > bound`, a switch-with-terminating-default, etc.) holds with a
//     clean bound, v is clamped; a tainted bound transfers its own marks.
//     Lower-bound-only checks (`v < 0`) do not clamp.
//   - assignment from a clean value (`if k > rows { k = rows }`);
//   - the min builtin with a clean operand;
//   - fields upper-bounded inside a function annotated
//     `//sparselint:validator` are clean module-wide: validate-at-admission,
//     use-later (the job queue) needs no re-check at every read.
//
// Sinks: make size/capacity, slice/array index and slice bounds, for-loop
// bounds (flagged as goroutine spawns when the body contains `go`),
// time.Duration conversions, and — via summaries — any callee parameter
// that reaches one of those transitively.
//
// Findings carry source→sink provenance chains mirroring hotpath's
// call-chain rendering.

var (
	// taintFieldScope is where ingress struct field reads count as sources.
	taintFieldScope = []string{"internal/server", "internal/route", "internal/sparse"}
	// taintParseScope is where strconv/fmt.Sscan results count as sources.
	taintParseScope = []string{"internal/sparse"}
	// taintHTTPScope is where HTTP request field accessors count as sources.
	taintHTTPScope = []string{"internal/server", "internal/route"}
)

func taintAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "taint",
		Doc:  "untrusted serving-path values must be clamped before reaching allocations, indexes, loop bounds, durations, or goroutine spawns",
	}
	a.Run = runTaint
	return a
}

type fieldKey struct {
	typ   *types.TypeName
	field string
}

type taintChecker struct {
	pass      *Pass
	ingress   map[*types.Named]string // ingress struct type → provenance label
	validated map[fieldKey]bool
	summaries summaryTable
	diverged  map[*ast.BlockStmt]bool // bodies already reported as not converging
}

func runTaint(pass *Pass) {
	tc := &taintChecker{
		pass:      pass,
		ingress:   make(map[*types.Named]string),
		validated: make(map[fieldKey]bool),
		summaries: make(summaryTable),
		diverged:  make(map[*ast.BlockStmt]bool),
	}
	tc.findIngressTypes()
	tc.findValidatedFields()

	// Phase 1: summaries, callee-first. A function on no cycle is solved
	// once: its callees' summaries are final. The members of a cycle
	// (mutual recursion, or a function that calls itself) are iterated until
	// their summaries stop changing (the facts only grow, so this converges).
	for _, scc := range pass.Graph.SCCs() {
		if !recursive(pass.Graph, scc) {
			tc.summarize(scc[0])
			continue
		}
		for iter := 0; iter < 8; iter++ {
			changed := false
			for _, f := range scc {
				if tc.summarize(f) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}

	// Phase 2: reporting, over every function body (closures are checked as
	// functions in their own right; taint does not flow across the closure
	// boundary, but sources inside are still live).
	for _, pkg := range pass.Prog.Pkgs {
		for _, fb := range funcBodies(pkg) {
			tc.checkBody(pkg, fb, nil, nil)
		}
	}
}

// recursive reports whether the component scc is a cycle of the call graph:
// more than one function, or one that calls itself.
func recursive(g *CallGraph, scc []*types.Func) bool {
	if len(scc) > 1 {
		return true
	}
	for _, e := range g.EdgesFrom(scc[0]) {
		if e.Callee == scc[0] {
			return true
		}
	}
	return false
}

// findIngressTypes collects every named struct type that is a JSON decode
// target anywhere in the module, then closes over nested struct-typed
// fields: a MatrixSpec inside a decoded JobSpec is attacker-controlled too.
func (tc *taintChecker) findIngressTypes() {
	addNamed := func(t types.Type, label string) {
		t = peelPtrSliceArray(t)
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			return
		}
		if _, have := tc.ingress[named]; !have {
			tc.ingress[named] = label
		}
	}
	for _, pkg := range tc.pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var target ast.Expr
				switch funcFullName(calleeFunc(pkg.Info, call)) {
				case "(*encoding/json.Decoder).Decode":
					if len(call.Args) == 1 {
						target = call.Args[0]
					}
				case "encoding/json.Unmarshal":
					if len(call.Args) == 2 {
						target = call.Args[1]
					}
				}
				if target != nil {
					if t := pkg.Info.TypeOf(target); t != nil {
						addNamed(t, "decoded from JSON")
					}
				}
				return true
			})
		}
	}
	// Transitive closure over struct-typed fields.
	for changed := true; changed; {
		changed = false
		for named, label := range tc.ingress {
			st := named.Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				ft := peelPtrSliceArray(st.Field(i).Type())
				fn, ok := ft.(*types.Named)
				if !ok {
					continue
				}
				if _, isStruct := fn.Underlying().(*types.Struct); !isStruct {
					continue
				}
				if _, have := tc.ingress[fn]; !have {
					tc.ingress[fn] = label
					changed = true
				}
			}
		}
	}
}

func peelPtrSliceArray(t types.Type) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
}

// findValidatedFields scans every `//sparselint:validator` function for
// admission checks of ingress fields: an if statement whose body
// unconditionally returns and whose condition, when false, upper-bounds a
// field (`if s.Workers > maxWorkers { return err }`), or a switch over a
// field whose default clause returns (string membership). Fields validated
// this way are clean module-wide.
func (tc *taintChecker) findValidatedFields() {
	for _, f := range tc.pass.Graph.Funcs() {
		decl, pkg := tc.pass.Graph.DeclOf(f)
		if decl == nil || decl.Body == nil || !hasAnnotation(decl.Doc, "validator") {
			continue
		}
		info := pkg.Info
		markField := func(e ast.Expr) {
			e = peelBound(info, e)
			if fk, ok := tc.ingressFieldOf(info, e); ok {
				tc.validated[fk] = true
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if !stmtsTerminate(n.Body.List) {
					return true
				}
				// The surviving path has ¬cond: collect what that bounds.
				refineUpperBounds(n.Cond, true, func(target, bound ast.Expr) {
					if !tc.trustedValidatorBound(info, bound) {
						return
					}
					markField(target)
				})
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil && stmtsTerminate(cc.Body) {
						markField(n.Tag)
					}
				}
			}
			return true
		})
	}
}

// ingressFieldOf resolves e to (owner type, field) when e reads a
// basic-typed field of an ingress struct.
func (tc *taintChecker) ingressFieldOf(info *types.Info, e ast.Expr) (fieldKey, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return fieldKey{}, false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return fieldKey{}, false
	}
	base := info.TypeOf(sel.X)
	if base == nil {
		return fieldKey{}, false
	}
	named, ok := derefType(base).(*types.Named)
	if !ok {
		return fieldKey{}, false
	}
	if _, ingress := tc.ingress[named]; !ingress {
		return fieldKey{}, false
	}
	return fieldKey{typ: named.Obj(), field: sel.Sel.Name}, true
}

// trustedValidatorBound accepts a bound that contains no ingress field read
// — constants, config fields, len() of real data.
func (tc *taintChecker) trustedValidatorBound(info *types.Info, bound ast.Expr) bool {
	trusted := true
	ast.Inspect(bound, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if _, isField := tc.ingressFieldOf(info, e); isField {
				trusted = false
			}
		}
		return trusted
	})
	return trusted
}

// stmtsTerminate reports whether a statement list always leaves the
// function (return or panic on every path). Used only to recognize the
// `if bad { return err }` validator shape, so it stays simple.
func stmtsTerminate(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		return isPanicStmt(s)
	case *ast.IfStmt:
		eb, ok := s.Else.(*ast.BlockStmt)
		return ok && stmtsTerminate(s.Body.List) && stmtsTerminate(eb.List)
	case *ast.BlockStmt:
		return stmtsTerminate(s.List)
	}
	return false
}

// refineUpperBounds enumerates the (target, bound) pairs that hold as upper
// bounds when cond evaluates to true (negated=false) or false
// (negated=true). `v < b` bounds v on the true edge and b on the false edge;
// equality bounds both ways on the true edge; conjunctions and negations
// distribute.
func refineUpperBounds(cond ast.Expr, negated bool, yield func(target, bound ast.Expr)) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			refineUpperBounds(c.X, !negated, yield)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if !negated {
				refineUpperBounds(c.X, false, yield)
				refineUpperBounds(c.Y, false, yield)
			}
		case token.LOR:
			if negated {
				refineUpperBounds(c.X, true, yield)
				refineUpperBounds(c.Y, true, yield)
			}
		case token.LSS, token.LEQ:
			if !negated {
				yield(c.X, c.Y)
			} else {
				yield(c.Y, c.X)
			}
		case token.GTR, token.GEQ:
			if !negated {
				yield(c.Y, c.X)
			} else {
				yield(c.X, c.Y)
			}
		case token.EQL:
			if !negated {
				yield(c.X, c.Y)
				yield(c.Y, c.X)
			}
		case token.NEQ:
			if negated {
				yield(c.X, c.Y)
				yield(c.Y, c.X)
			}
		}
	}
}

// peelBound strips wrappers that preserve an upper bound: parens,
// conversions, and +, -, × with a constant operand (a bound on 3*k bounds
// k).
func peelBound(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return e
		case *ast.BinaryExpr:
			isConst := func(e ast.Expr) bool {
				tv, ok := info.Types[e]
				return ok && tv.Value != nil
			}
			switch x.Op {
			case token.MUL, token.ADD:
				if isConst(x.X) && !isConst(x.Y) {
					e = x.Y
					continue
				}
				if isConst(x.Y) && !isConst(x.X) {
					e = x.X
					continue
				}
			case token.SUB:
				if isConst(x.Y) && !isConst(x.X) {
					e = x.X
					continue
				}
			}
			return e
		default:
			return e
		}
	}
}

// ---------------------------------------------------------- abstract state

// taintMark is the abstract value of one expression: which function
// parameters it may derive from (summary phase) and/or a concrete source it
// carries.
type taintMark struct {
	params uint64
	src    *taintSource
}

func (m taintMark) empty() bool { return m.params == 0 && m.src == nil }

func mergeMarks(a, b taintMark) taintMark {
	out := taintMark{params: a.params | b.params, src: a.src}
	if out.src == nil || (b.src != nil && b.src.pos < out.src.pos) {
		if b.src != nil {
			out.src = b.src
		}
	}
	return out
}

// taintState maps expression keys (objects and field paths) to marks.
// Absence means clean for derived values; source expressions fall back to
// "tainted" unless the clamped set says a branch bounded them.
type taintState struct {
	marks   map[string]taintMark
	clamped map[string]bool
}

func newTaintState() *taintState {
	return &taintState{marks: make(map[string]taintMark), clamped: make(map[string]bool)}
}

func (s *taintState) clone() flowState {
	return &taintState{marks: maps.Clone(s.marks), clamped: maps.Clone(s.clamped)}
}

func (s *taintState) mergeFrom(other flowState) bool {
	o := other.(*taintState)
	changed := false
	for k, ov := range o.marks {
		if mv, ok := s.marks[k]; !ok {
			s.marks[k] = ov
			changed = true
		} else if merged := mergeMarks(mv, ov); merged != mv {
			s.marks[k] = merged
			changed = true
		}
	}
	// clamped survives a join only when both paths clamped.
	for k := range s.clamped {
		if !o.clamped[k] {
			delete(s.clamped, k)
			changed = true
		}
	}
	return changed
}

// ------------------------------------------------------------ per-function

// taintFlow is the flowTransfers implementation for one function body.
type taintFlow struct {
	tc     *taintChecker
	pkg    *Package
	info   *types.Info
	sum    *funcSummary // summary being built, nil in the reporting phase
	sig    *types.Signature
	report bool
	dirty  bool // summary changed this pass
}

// checkBody solves one body: into sum (seeded with the parameter marks) in
// the summary phase, or as the reporting pass when sum and seeds are nil.
func (tc *taintChecker) checkBody(pkg *Package, fb funcBody, sum *funcSummary, seeds map[string]taintMark) bool {
	fl := &taintFlow{tc: tc, pkg: pkg, info: pkg.Info, sum: sum}
	if sum != nil {
		fl.sig = sum.sig
	}
	entry := newTaintState()
	for k, m := range seeds {
		entry.marks[k] = m
	}
	g := buildCFG(fb.Body)
	solved, ok := solveForward(g, fl, entry)
	if !ok {
		// Reported once per body, though summary rounds may solve it again.
		if !tc.diverged[fb.Body] {
			tc.diverged[fb.Body] = true
			reportNoFixpoint(tc.pass, fb)
		}
		return false
	}
	if sum == nil {
		fl.report = true
		replayBlocks(g, fl, solved)
	}
	return fl.dirty
}

// summarize (re)computes f's summary; reports whether it changed.
func (tc *taintChecker) summarize(f *types.Func) bool {
	decl, pkg := tc.pass.Graph.DeclOf(f)
	if decl == nil || decl.Body == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	sum := tc.summaries[f]
	fresh := sum == nil
	if fresh {
		sum = &funcSummary{
			sinkParams: make(map[int]*sinkVia),
			results:    make([]resultFlow, sig.Results().Len()),
			sig:        sig,
		}
		tc.summaries[f] = sum
	}
	seeds := make(map[string]taintMark)
	for i, p := range flatParams(sig) {
		if i >= 64 {
			break
		}
		seeds[objKey(p)] = taintMark{params: 1 << uint(i)}
	}
	changed := tc.checkBody(pkg, funcBody{Name: declName(decl), Type: decl.Type, Body: decl.Body}, sum, seeds)
	return changed || fresh
}

// flatParams is the receiver-first flattened parameter list.
func flatParams(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func objKey(obj types.Object) string {
	return fmt.Sprintf("%s#%d", obj.Name(), obj.Pos())
}

func (fl *taintFlow) exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := fl.info.ObjectOf(e)
		if obj == nil || e.Name == "_" {
			return ""
		}
		return objKey(obj)
	case *ast.SelectorExpr:
		base := fl.exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return fl.exprKey(e.X)
	}
	return ""
}

// ----------------------------------------------------------- transfer/refine

func (fl *taintFlow) transfer(st flowState, n ast.Node) {
	s := st.(*taintState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			fl.inspect(s, r)
		}
		fl.assign(s, n)
	case *ast.DeclStmt:
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
				fl.inspect(s, v)
			}
			fl.assignValueSpec(s, vs)
		}
	case *ast.ExprStmt:
		fl.inspect(s, n.X)
	case *ast.GoStmt:
		fl.inspect(s, n.Call)
	case *ast.DeferStmt:
		fl.inspect(s, n.Call)
	case *ast.SendStmt:
		fl.inspect(s, n.Chan)
		fl.inspect(s, n.Value)
	case *ast.IncDecStmt:
		fl.inspect(s, n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			fl.inspect(s, r)
		}
		fl.recordReturn(s, n)
	case *rangeBind:
		fl.inspect(s, n.Range.X)
		fl.rangeAssign(s, n.Range)
	case *loopCond:
		fl.inspect(s, n.Cond)
		fl.checkLoopBound(s, n)
	case *selectOp:
		if n.Comm != nil {
			fl.transfer(s, n.Comm)
		}
	case ast.Expr:
		fl.inspect(s, n)
	}
}

func (fl *taintFlow) refine(st flowState, cond ast.Expr, negated bool) {
	s := st.(*taintState)
	refineUpperBounds(cond, negated, func(target, bound ast.Expr) {
		// `n > limit` also yields limit ≤ n on the true edge; a constant
		// target carries no abstract state to refine (and must never inherit
		// a tainted bound's marks).
		if tv, ok := fl.info.Types[target]; ok && tv.Value != nil {
			return
		}
		key := fl.exprKey(peelBound(fl.info, target))
		if key == "" {
			return
		}
		bm := fl.evalTaint(s, bound)
		if bm.empty() {
			delete(s.marks, key)
			s.clamped[key] = true
		} else {
			s.marks[key] = bm
			delete(s.clamped, key)
		}
	})
}

// setKey writes a mark, clearing any clamp and invalidating field paths
// derived from the overwritten base.
func (fl *taintFlow) setKey(s *taintState, key string, m taintMark) {
	delete(s.clamped, key)
	prefix := key + "."
	for k := range s.marks {
		if strings.HasPrefix(k, prefix) {
			delete(s.marks, k)
		}
	}
	for k := range s.clamped {
		if strings.HasPrefix(k, prefix) {
			delete(s.clamped, k)
		}
	}
	if m.empty() {
		delete(s.marks, key)
		// An assignment of a clean value is itself a clamp for source
		// expressions (`s.K = 0` cleans the path key).
		s.clamped[key] = true
	} else {
		s.marks[key] = m
	}
}

func (fl *taintFlow) assign(s *taintState, n *ast.AssignStmt) {
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		// Multi-value: call, type assertion, map index, channel receive.
		var marks []taintMark
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			marks = fl.evalCallMarks(s, call)
		} else {
			m := fl.evalTaint(s, n.Rhs[0])
			marks = []taintMark{m, {}} // comma-ok: ok/err half is clean
		}
		for i, lhs := range n.Lhs {
			m := taintMark{}
			if i < len(marks) {
				m = marks[i]
			}
			fl.assignTo(s, lhs, m)
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		m := fl.evalTaint(s, n.Rhs[i])
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Compound (+=, *=, …): the old value stays in the mix.
			m = mergeMarks(m, fl.evalTaint(s, lhs))
		}
		fl.assignTo(s, lhs, m)
	}
}

func (fl *taintFlow) assignTo(s *taintState, lhs ast.Expr, m taintMark) {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		// Storing a tainted element marks the container.
		if key := fl.exprKey(ix.X); key != "" && !m.empty() {
			fl.setKey(s, key, mergeMarks(m, fl.evalTaint(s, ix.X)))
		}
		return
	}
	key := fl.exprKey(lhs)
	if key == "" {
		return
	}
	fl.setKey(s, key, m)
}

func (fl *taintFlow) assignValueSpec(s *taintState, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		m := taintMark{}
		if len(vs.Values) == len(vs.Names) {
			m = fl.evalTaint(s, vs.Values[i])
		} else if len(vs.Values) == 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				marks := fl.evalCallMarks(s, call)
				if i < len(marks) {
					m = marks[i]
				}
			}
		}
		fl.assignTo(s, name, m)
	}
}

func (fl *taintFlow) rangeAssign(s *taintState, r *ast.RangeStmt) {
	xm := fl.evalTaint(s, r.X)
	xt := fl.info.TypeOf(r.X)
	// Integer range (`for i := range n`): the loop bound itself is the
	// untrusted value — a sink, handled here since there is no loopCond.
	if xt != nil {
		if b, ok := xt.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			if !xm.empty() {
				fl.sink(s, r.X.Pos(), xm, "a loop bound")
			}
			if r.Key != nil {
				fl.assignTo(s, r.Key, taintMark{})
			}
			return
		}
	}
	keyMark, valMark := taintMark{}, xm
	if xt != nil {
		switch xt.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer:
			// Index is bounded by the real allocation: clean.
		default:
			keyMark = xm // map keys / string runes / channel values
		}
	}
	if r.Key != nil {
		fl.assignTo(s, r.Key, keyMark)
	}
	if r.Value != nil {
		fl.assignTo(s, r.Value, valMark)
	}
}

// checkLoopBound flags comparisons whose bound side is tainted: the
// iteration count is attacker-controlled.
func (fl *taintFlow) checkLoopBound(s *taintState, lc *loopCond) {
	desc := "a loop bound"
	if lc.SpawnsGo {
		desc = "a goroutine-spawn loop bound"
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		e = ast.Unparen(e)
		be, ok := e.(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND, token.LOR:
			walk(be.X)
			walk(be.Y)
		case token.LSS, token.LEQ:
			if m := fl.evalTaint(s, be.Y); !m.empty() {
				fl.sink(s, be.Y.Pos(), m, desc)
			}
		case token.GTR, token.GEQ:
			if m := fl.evalTaint(s, be.X); !m.empty() {
				fl.sink(s, be.X.Pos(), m, desc)
			}
		}
	}
	walk(lc.Cond)
}

// inspect walks an evaluated expression for sinks and call effects. Func
// literal bodies are separate functions and are skipped.
func (fl *taintFlow) inspect(s *taintState, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fl.handleCall(s, n)
		case *ast.IndexExpr:
			if t := fl.info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					if m := fl.evalTaint(s, n.Index); !m.empty() {
						fl.sink(s, n.Index.Pos(), m, "a slice index")
					}
				}
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b == nil {
					continue
				}
				if m := fl.evalTaint(s, b); !m.empty() {
					fl.sink(s, b.Pos(), m, "a slice bound")
				}
			}
		}
		return true
	})
}

func (fl *taintFlow) handleCall(s *taintState, call *ast.CallExpr) {
	info := fl.info
	// Conversions: a time.Duration conversion of a tainted count is
	// unvalidated duration arithmetic (deadline overflow, huge timers).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isDurationType(tv.Type) {
			if m := fl.evalTaint(s, call.Args[0]); !m.empty() {
				fl.sink(s, call.Pos(), m, "a time.Duration conversion")
			}
		}
		return
	}
	if isBuiltinCall(info, call, "make") {
		for _, a := range call.Args[1:] {
			if m := fl.evalTaint(s, a); !m.empty() {
				fl.sink(s, a.Pos(), m, "a make size/capacity")
			}
		}
		return
	}
	callee := calleeFunc(info, call)
	full := funcFullName(callee)
	// fmt.Sscan family: the pointer targets become tainted.
	if skip, ok := sscanValueArgs[full]; ok && pathInScope(fl.pkg.Path, taintParseScope) {
		for _, a := range call.Args[skip:] {
			if un, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && un.Op == token.AND {
				if key := fl.exprKey(un.X); key != "" {
					fl.setKey(s, key, taintMark{src: &taintSource{
						pos:  a.Pos(),
						desc: fmt.Sprintf("%s (scanned from input)", types.ExprString(un.X)),
					}})
				}
			}
		}
		return
	}
	// Summary application: a tainted argument handed to a parameter that
	// reaches a sink inside the callee completes the flow here.
	sum := fl.tc.summaries[callee]
	if sum == nil {
		return
	}
	sig := sum.sig
	flat := flatParams(sig)
	for i := range flat {
		sv := sum.sinkParams[i]
		if sv == nil {
			continue
		}
		for _, arg := range fl.argsForParam(call, sig, i) {
			m := fl.evalTaint(s, arg)
			if m.empty() {
				continue
			}
			hops := append([]string{callee.Name()}, sv.hops...)
			fl.sinkVia(s, call.Pos(), m, sv.desc, hops)
		}
	}
}

// argsForParam returns the caller expressions feeding flattened parameter i
// (several for a variadic tail).
func (fl *taintFlow) argsForParam(call *ast.CallExpr, sig *types.Signature, i int) []ast.Expr {
	idx := i
	if sig.Recv() != nil {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return []ast.Expr{sel.X}
			}
			return nil
		}
		idx--
	}
	n := sig.Params().Len()
	if idx >= n {
		return nil
	}
	if sig.Variadic() && idx == n-1 {
		if idx < len(call.Args) {
			return call.Args[idx:]
		}
		return nil
	}
	if idx < len(call.Args) {
		return []ast.Expr{call.Args[idx]}
	}
	return nil
}

var sscanValueArgs = map[string]int{
	"fmt.Sscan":   1,
	"fmt.Sscanln": 1,
	"fmt.Sscanf":  2,
	"fmt.Fscan":   1,
	"fmt.Fscanln": 1,
	"fmt.Fscanf":  2,
}

var strconvSources = map[string]bool{
	"strconv.Atoi":       true,
	"strconv.ParseInt":   true,
	"strconv.ParseUint":  true,
	"strconv.ParseFloat": true,
}

var httpFieldSources = map[string]bool{
	"(*net/http.Request).PathValue":     true,
	"(*net/http.Request).FormValue":     true,
	"(*net/http.Request).PostFormValue": true,
	"(net/url.Values).Get":              true,
}

// httpFieldReads are the request fields that count as sources, like the
// accessors of httpFieldSources.
var httpFieldReads = map[string]bool{
	"net/http.Request.ContentLength": true,
}

func isDurationType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// ----------------------------------------------------------------- eval

func (fl *taintFlow) evalTaint(s *taintState, e ast.Expr) taintMark {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if _, isConst := fl.info.ObjectOf(e).(*types.Const); isConst {
			return taintMark{}
		}
		key := fl.exprKey(e)
		if key == "" || s.clamped[key] {
			return taintMark{}
		}
		return s.marks[key]
	case *ast.SelectorExpr:
		key := fl.exprKey(e)
		if key != "" {
			if s.clamped[key] {
				return taintMark{}
			}
			if m, ok := s.marks[key]; ok {
				return m
			}
		}
		if bm := fl.evalTaint(s, e.X); !bm.empty() {
			return bm
		}
		if m := fl.httpField(e); !m.empty() {
			return m
		}
		return fl.sourceField(e)
	case *ast.CallExpr:
		marks := fl.evalCallMarks(s, e)
		if len(marks) > 0 {
			return marks[0]
		}
		return taintMark{}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintMark{}
		}
		return mergeMarks(fl.evalTaint(s, e.X), fl.evalTaint(s, e.Y))
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return taintMark{}
		}
		return fl.evalTaint(s, e.X)
	case *ast.StarExpr:
		return fl.evalTaint(s, e.X)
	case *ast.IndexExpr:
		return fl.evalTaint(s, e.X)
	case *ast.SliceExpr:
		return fl.evalTaint(s, e.X)
	case *ast.TypeAssertExpr:
		return fl.evalTaint(s, e.X)
	case *ast.CompositeLit:
		var m taintMark
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m = mergeMarks(m, fl.evalTaint(s, el))
		}
		return m
	}
	return taintMark{}
}

// httpField is the taint of a read of an HTTP request field that the client
// sets (ContentLength) inside taintHTTPScope.
func (fl *taintFlow) httpField(sel *ast.SelectorExpr) taintMark {
	if !pathInScope(fl.pkg.Path, taintHTTPScope) {
		return taintMark{}
	}
	v, _ := fl.info.Uses[sel.Sel].(*types.Var)
	recv, _ := derefType(fl.info.TypeOf(sel.X)).(*types.Named)
	if v == nil || !v.IsField() || recv == nil || recv.Obj().Pkg() == nil ||
		!httpFieldReads[recv.Obj().Pkg().Path()+"."+recv.Obj().Name()+"."+v.Name()] {
		return taintMark{}
	}
	return taintMark{src: &taintSource{
		pos:  sel.Pos(),
		desc: fmt.Sprintf("%s (HTTP request field)", v.Name()),
	}}
}

// sourceField is the taint fallback for an unvalidated ingress field read in
// a scoped package.
func (fl *taintFlow) sourceField(sel *ast.SelectorExpr) taintMark {
	if !pathInScope(fl.pkg.Path, taintFieldScope) {
		return taintMark{}
	}
	fk, ok := fl.tc.ingressFieldOf(fl.info, sel)
	if !ok || fl.tc.validated[fk] {
		return taintMark{}
	}
	v, _ := fl.info.Uses[sel.Sel].(*types.Var)
	if v == nil {
		return taintMark{}
	}
	b, ok := v.Type().Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsNumeric|types.IsString) == 0 {
		return taintMark{}
	}
	label := "untrusted"
	if named, ok := derefType(fl.info.TypeOf(sel.X)).(*types.Named); ok {
		label = fl.tc.ingress[named]
	}
	return taintMark{src: &taintSource{
		pos:  sel.Pos(),
		desc: fmt.Sprintf("%s.%s (%s)", fk.typ.Name(), fk.field, label),
	}}
}

func (fl *taintFlow) evalCallMarks(s *taintState, call *ast.CallExpr) []taintMark {
	info := fl.info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []taintMark{fl.evalTaint(s, call.Args[0])}
		}
		return nil
	}
	if isAnyBuiltin(info, call) {
		id := ast.Unparen(call.Fun).(*ast.Ident)
		switch id.Name {
		case "len", "cap", "make", "new", "copy":
			// len/cap of real data is bounded by the real allocation.
			return []taintMark{{}}
		case "min":
			// min against one clean operand is a clamp.
			var m taintMark
			for _, a := range call.Args {
				am := fl.evalTaint(s, a)
				if am.empty() {
					return []taintMark{{}}
				}
				m = mergeMarks(m, am)
			}
			return []taintMark{m}
		case "max", "append":
			var m taintMark
			for _, a := range call.Args {
				m = mergeMarks(m, fl.evalTaint(s, a))
			}
			return []taintMark{m}
		}
		return []taintMark{{}}
	}
	callee := calleeFunc(info, call)
	full := funcFullName(callee)
	if strconvSources[full] {
		m := taintMark{}
		if len(call.Args) > 0 {
			m = fl.evalTaint(s, call.Args[0]) // tainted string in, tainted number out
		}
		if pathInScope(fl.pkg.Path, taintParseScope) {
			m = mergeMarks(m, taintMark{src: &taintSource{
				pos:  call.Pos(),
				desc: fmt.Sprintf("%s result (parsed from input)", full),
			}})
		}
		return []taintMark{m, {}}
	}
	if httpFieldSources[full] && pathInScope(fl.pkg.Path, taintHTTPScope) {
		return []taintMark{{src: &taintSource{
			pos:  call.Pos(),
			desc: fmt.Sprintf("%s result (HTTP request field)", callee.Name()),
		}}}
	}
	sum := fl.tc.summaries[callee]
	if sum == nil {
		return nil
	}
	sig := sum.sig
	out := make([]taintMark, len(sum.results))
	for j, rf := range sum.results {
		m := taintMark{}
		if rf.src != nil {
			src := *rf.src
			src.hops = append(append([]string{}, rf.src.hops...), callee.Name())
			m.src = &src
		}
		for i := 0; i < 64 && i < len(flatParams(sig)); i++ {
			if rf.params&(1<<uint(i)) == 0 {
				continue
			}
			for _, arg := range fl.argsForParam(call, sig, i) {
				m = mergeMarks(m, fl.evalTaint(s, arg))
			}
		}
		out[j] = m
	}
	return out
}

// ------------------------------------------------------- sinks and summaries

func (fl *taintFlow) sink(s *taintState, pos token.Pos, m taintMark, desc string) {
	fl.sinkVia(s, pos, m, desc, nil)
}

func (fl *taintFlow) sinkVia(s *taintState, pos token.Pos, m taintMark, desc string, hops []string) {
	if m.src != nil && fl.report {
		chain := append(append([]string{}, m.src.hops...), hops...)
		via := ""
		if len(chain) > 0 {
			via = fmt.Sprintf(" [flow: %s]", strings.Join(chain, " → "))
		}
		fl.tc.pass.Reportf(pos, "untrusted %s reaches %s without a validating clamp%s", m.src.desc, desc, via)
	}
	if fl.sum != nil && m.params != 0 {
		for i := 0; i < 64; i++ {
			if m.params&(1<<uint(i)) == 0 {
				continue
			}
			if fl.sum.sinkParams[i] == nil {
				fl.sum.sinkParams[i] = &sinkVia{desc: desc, hops: hops}
				fl.dirty = true
			}
		}
	}
}

func (fl *taintFlow) recordReturn(s *taintState, ret *ast.ReturnStmt) {
	if fl.sum == nil || fl.sig == nil {
		return
	}
	nres := fl.sig.Results().Len()
	marks := make([]taintMark, nres)
	switch {
	case len(ret.Results) == nres:
		for j, r := range ret.Results {
			marks[j] = fl.evalTaint(s, r)
		}
	case len(ret.Results) == 1 && nres > 1:
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			cm := fl.evalCallMarks(s, call)
			copy(marks, cm)
		}
	case len(ret.Results) == 0 && nres > 0:
		// Bare return: named results.
		for j := 0; j < nres; j++ {
			obj := fl.sig.Results().At(j)
			if obj.Name() == "" {
				continue
			}
			key := objKey(obj)
			if !s.clamped[key] {
				marks[j] = s.marks[key]
			}
		}
	}
	for j, m := range marks {
		rf := &fl.sum.results[j]
		if m.src != nil && rf.src == nil {
			rf.src = m.src
			fl.dirty = true
		}
		if m.params&^rf.params != 0 {
			rf.params |= m.params
			fl.dirty = true
		}
	}
}
