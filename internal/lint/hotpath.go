package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// hotpathBudget is the committed budget, relative to the module root (the
// tests point it at budgets of their own).
var hotpathBudget = "internal/lint/hotpath_budget.txt"

// hotpathAnalyzer enforces the zero-allocation contract of the hot paths
// interprocedurally. Functions annotated `// sparselint:hotpath` are roots;
// the obligations propagate over the whole-module call graph to every
// function reachable from a root: direct calls, interface dispatch (resolved
// CHA-style), and function values taken as values.
//
// What the compiler decides, the compiler reports. One `go build` for
// linux/amd64 of the packages holding the closure, with -m and
// -d=ssa/check_bce/debug=1, lists every heap escape and every bounds check
// it keeps (an inlined callee's at its call site); a warm build cache
// replays it, and an empty closure runs none. Each hot function is held to
// one line of the budget: the bounds checks inside its for or range bodies
// (outside the part run once: a for's init clause, a range's expression),
// and the `… escapes to heap` and `moved to heap: x` lines anywhere in its
// declaration. Reports inside panic arguments or nested func literals do not
// count: the first run only on the failure path, the second are another
// function's. Nor does a string literal that escapes (an inlined
// `panic("…")` helper's message): a constant converted to an interface
// points at static data and allocates nothing.
//
// What the report does not attribute stays an AST rule: append without a
// capacity preallocated in the same function, fmt calls and string
// concatenation allocate inside a runtime or library call.
//
// A reachable function annotated `// sparselint:coldcall <reason>` is a
// boundary: its body is not checked and propagation stops there. The
// annotation is itself validated — the reason is mandatory, combining it
// with sparselint:hotpath is contradictory, and every direct call to a
// coldcall function from hot code must sit in a cold context (a conditional
// branch, a defer, or a panic argument): an unconditional coldcall on the
// steady-state path is a mislabeled hot call.
//
// The budget's first line is the `go env GOVERSION` it was measured with; a
// different toolchain is one finding and nothing else is compared. Then one
// sorted `<types.Func FullName> <bounds checks> <escapes>` line per
// function: a count over (listing the compiler's lines) or under its column,
// counts without a line, a line whose function left the closure, a
// malformed line and a name listed twice are findings. They give each
// measured count, which is how the budget is written.
func hotpathAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "bounds checks and heap escapes the compiler reports in hot functions match internal/lint/hotpath_budget.txt; no append growth, fmt or string concatenation (coldcall bounds the walk)",
	}
	a.Run = func(pass *Pass) {
		g := BuildCallGraph(pass.Prog)
		cold := coldBoundaries(g, pass)
		reached, via := hotClosure(g, cold)
		var hot []*hotFunc
		for _, f := range g.Funcs() {
			if !reached[f] || cold[f] {
				continue
			}
			decl, pkg := g.DeclOf(f)
			if decl.Body == nil {
				continue
			}
			h := scanHotFunc(f, decl, pkg)
			hot = append(hot, h)
			suffix := ""
			if !hasAnnotation(decl.Doc, "hotpath") {
				suffix = fmt.Sprintf(" [hot path: %s]", g.Chain(via, f))
			}
			checkHotFunc(pass, h, suffix)
			checkColdCallSites(pass, g, h, cold)
		}
		checkBudget(pass, hot)
	}
	return a
}

// coldBoundaries collects the sparselint:coldcall-annotated functions and
// validates the annotations themselves: the reason is mandatory, and pairing
// coldcall with hotpath is contradictory.
func coldBoundaries(g *CallGraph, pass *Pass) map[*types.Func]bool {
	cold := make(map[*types.Func]bool)
	for _, f := range g.Funcs() {
		decl, _ := g.DeclOf(f)
		reason, ok := annotationArg(decl.Doc, "coldcall")
		if !ok {
			continue
		}
		cold[f] = true
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

// checkColdCallSites validates the coldcall boundary contract at h's call
// sites: a direct call from hot code into a coldcall function must be
// conditionally executed (or deferred), never on the unconditional
// steady-state path.
func checkColdCallSites(pass *Pass, g *CallGraph, h *hotFunc, cold map[*types.Func]bool) {
	var spans []span
	collected := false
	for _, e := range g.EdgesFrom(h.fn) {
		if !cold[e.Callee] || e.Kind != CallDirect {
			continue
		}
		if !collected {
			spans = coldSpans(h.pkg.Info, h.decl.Body)
			collected = true
		}
		if !inSpans(spans, e.Site) {
			pass.Reportf(e.Site, "sparselint:coldcall %s is called unconditionally from hot code in %s; a cold boundary must sit behind an error/init/panic branch", e.Callee.Name(), h.fn.Name())
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
func coldSpans(info *types.Info, body *ast.BlockStmt) []span {
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

// hotFunc is one function of the hot closure with the spans its rules look
// at: loop bodies, nested func literal bodies and panic arguments.
type hotFunc struct {
	fn                  *types.Func
	pkg                 *Package
	decl                *ast.FuncDecl
	loops, lits, panics []span
}

func scanHotFunc(f *types.Func, decl *ast.FuncDecl, pkg *Package) *hotFunc {
	h := &hotFunc{fn: f, pkg: pkg, decl: decl}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			h.lits = append(h.lits, span{n.Body.Pos(), n.Body.End()})
			return false
		case *ast.ForStmt:
			lo := n.For
			if n.Init != nil {
				lo = n.Init.End()
			}
			h.loops = append(h.loops, span{lo, n.End()})
		case *ast.RangeStmt:
			h.loops = append(h.loops, span{n.X.End(), n.End()})
		case *ast.CallExpr:
			if isBuiltinCall(pkg.Info, n, "panic") {
				for _, arg := range n.Args {
					h.panics = append(h.panics, span{arg.Pos(), arg.End()})
				}
			}
		}
		return true
	})
	return h
}

// checkHotFunc applies the AST rules: the allocations that happen inside a
// runtime or library call, where the compiler's escape report does not
// attribute them.
func checkHotFunc(pass *Pass, h *hotFunc, suffix string) {
	info := h.pkg.Info
	prealloc := preallocatedSlices(info, h.decl.Body)
	// Findings in propagated (unannotated) functions carry the provenance
	// chain back to their hotpath root.
	report := func(pos token.Pos, format string, args ...any) {
		pass.Reportf(pos, format+"%s", append(args, suffix)...)
	}
	ast.Inspect(h.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // another function
		case *ast.CallExpr:
			if inSpans(h.panics, n.Pos()) {
				return true
			}
			if isBuiltinCall(info, n, "append") {
				if !appendPreallocated(info, n, prealloc) {
					report(n.Pos(), "append may grow its backing array; reslice a preallocated buffer ([:0]) instead")
				}
			} else if callee := calleeFunc(info, n); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				report(n.Pos(), "fmt.%s allocates (formatting + interface boxing)", callee.Name())
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !inSpans(h.panics, n.Pos()) {
				if t, ok := info.Types[n]; ok {
					if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		return true
	})
}

// preallocatedSlices collects objects assigned from a slice expression
// (x[a:b], x[:0]) anywhere in body: appending to these reuses a buffer whose
// capacity was provisioned elsewhere, the arena pattern.
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

// budgetColumns names the budget's counted columns, in file order.
var budgetColumns = [2]string{"bounds check(s) in hot loops", "heap escape(s)"}

// budgetLine is one function's budgeted counts and its line in the file.
type budgetLine struct {
	counts [2]int
	line   int
}

// checkBudget builds the hot functions' packages with the compiler's
// reports and holds every function to its budget line.
func checkBudget(pass *Pass, hot []*hotFunc) {
	if len(hot) == 0 {
		return
	}
	root, err := findModule(hot[0].pkg.Dir)
	path := hotpathBudget
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, path)
	}
	at := func(line int) token.Position { return token.Position{Filename: path, Line: line} }
	var data, version []byte
	if err == nil {
		data, err = os.ReadFile(path)
	}
	if err == nil {
		cmd := exec.Command("go", "env", "GOVERSION")
		cmd.Dir = root
		if version, err = cmd.Output(); err != nil {
			err = fmt.Errorf("go env GOVERSION: %v", err)
		}
	}
	if err != nil {
		pass.reportAt(at(1), "hotpath: %v", err)
		return
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if v := strings.TrimSpace(string(version)); lines[0] != v {
		pass.reportAt(at(1), "budget was measured with %s, this toolchain is %s; escape analysis and bounds-check elimination differ between compiler releases, so build with %s or re-measure every line", lines[0], v, lines[0])
		return
	}
	budget := make(map[string]budgetLine, len(lines)-1)
	for i, l := range lines[1:] {
		name, counts, ok := parseBudgetLine(l)
		switch prev, dup := budget[name]; {
		case !ok:
			pass.reportAt(at(i+2), "want `<function> <bounds checks> <escapes>`, got %q", l)
		case dup:
			pass.reportAt(at(i+2), "%s is listed twice (first at line %d); keep one line", name, prev.line)
		default:
			budget[name] = budgetLine{counts, i + 2}
		}
	}
	dirs := make([]string, len(hot))
	for i, h := range hot {
		dirs[i] = h.pkg.Dir
	}
	slices.Sort(dirs)
	report, err := compilerReport(root, slices.Compact(dirs))
	if err != nil {
		pass.reportAt(at(1), "hotpath: %v", err)
		return
	}

	for _, h := range hot {
		name := h.fn.FullName()
		got, b := attribute(pass.Prog.Fset, h, report), budget[name]
		delete(budget, name) // what is left has left the closure
		if b.line == 0 {
			if len(got[0])+len(got[1]) > 0 {
				pass.Reportf(h.decl.Name.Pos(), "%s keeps %d %s and %d %s and has no budget; add the line %q to %s",
					name, len(got[0]), budgetColumns[0], len(got[1]), budgetColumns[1], budgetEntry(name, got), filepath.Base(path))
			}
			continue
		}
		for c, what := range budgetColumns {
			switch n := len(got[c]); {
			case n > b.counts[c]:
				pass.Reportf(h.decl.Name.Pos(), "%s keeps %d %s, over its budget of %d: %s", name, n, what, b.counts[c], strings.Join(got[c], "; "))
			case n < b.counts[c]:
				pass.Reportf(h.decl.Name.Pos(), "%s keeps %d %s, under its budget of %d; set its line to %q", name, n, what, b.counts[c], budgetEntry(name, got))
			}
		}
	}
	for name, b := range budget {
		pass.reportAt(at(b.line), "%s has a budget but is no longer in the hot closure; delete its line", name)
	}
}

// parseBudgetLine parses `<function> <bounds checks> <escapes>`: exactly
// three fields, the counts non-negative integers.
func parseBudgetLine(l string) (string, [2]int, bool) {
	var counts [2]int
	f := strings.Fields(l)
	if len(f) != 3 {
		return "", counts, false
	}
	for c := range counts {
		n, err := strconv.Atoi(f[c+1])
		if err != nil || n < 0 {
			return "", counts, false
		}
		counts[c] = n
	}
	return f[0], counts, true
}

// budgetEntry renders the budget line of the measured counts.
func budgetEntry(name string, got [2][]string) string {
	return fmt.Sprintf("%s %d %d", name, len(got[0]), len(got[1]))
}

// compilerLine is one counted line of the compiler's report: a bounds check
// (column 0) or a heap escape (column 1).
type compilerLine struct {
	pos    token.Position
	text   string
	column int
}

// compilerLineRe matches a bounds check or a heap escape of the compiler's
// -m and check_bce reports; the rest of -m (inlining, non-escaping values,
// leaking parameters) does not match.
var compilerLineRe = regexp.MustCompile(`^(.+):(\d+):(\d+): (Found Is(?:Slice)?InBounds|.+ escapes to heap|moved to heap: .+)$`)

// isStringLit reports whether s is a quoted Go string literal.
func isStringLit(s string) bool {
	_, err := strconv.Unquote(s)
	return err == nil && strings.HasPrefix(s, `"`)
}

// compilerReport builds dirs, directories of the module at root, for
// linux/amd64 with the compiler's escape and bounds-check reports and
// returns every line it counts, grouped by file and sorted by position. A
// message repeated at one position is one line: the check_bce report alone
// prints it once, and -m's lines at the same position only keep the
// compiler from merging the repeats.
func compilerReport(root string, dirs []string) (map[string][]compilerLine, error) {
	args := []string{"build", "-o", os.DevNull}
	var pkgs []string
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d) // both absolute
		pkg := "./" + filepath.ToSlash(rel)
		args = append(args, "-gcflags="+pkg+"=-m -d=ssa/check_bce/debug=1")
		pkgs = append(pkgs, pkg)
	}
	cmd := exec.Command("go", append(args, pkgs...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	byFile := make(map[string][]compilerLine)
	for _, l := range strings.Split(string(out), "\n") {
		m := compilerLineRe.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		c := compilerLine{token.Position{Filename: file, Line: line, Column: col}, m[4], 1}
		if strings.HasPrefix(c.text, "Found ") {
			c.column = 0
		} else if lit, ok := strings.CutSuffix(c.text, " escapes to heap"); ok && isStringLit(lit) {
			continue
		}
		byFile[file] = append(byFile[file], c)
	}
	for file, ls := range byFile {
		slices.SortFunc(ls, func(a, b compilerLine) int {
			return cmp.Or(a.pos.Line-b.pos.Line, a.pos.Column-b.pos.Column, strings.Compare(a.text, b.text))
		})
		byFile[file] = slices.Compact(ls)
	}
	return byFile, nil
}

// attribute returns the compiler's lines that count against h, per column:
// bounds checks inside its loops, escapes anywhere in its declaration, and
// neither inside a nested func literal's body or (escapes) a panic argument.
func attribute(fset *token.FileSet, h *hotFunc, report map[string][]compilerLine) [2][]string {
	var got [2][]string
	tf := fset.File(h.decl.Pos())
	for _, c := range report[tf.Name()] {
		if c.pos.Line > tf.LineCount() {
			continue
		}
		p := tf.LineStart(c.pos.Line) + token.Pos(c.pos.Column-1)
		if p < h.decl.Pos() || p >= h.decl.End() || inSpans(h.lits, p) {
			continue
		}
		at := fmt.Sprintf("%s:%d:%d", filepath.Base(c.pos.Filename), c.pos.Line, c.pos.Column)
		switch {
		case c.column == 0 && inSpans(h.loops, p):
			got[0] = append(got[0], at)
		case c.column == 1 && !inSpans(h.panics, p):
			got[1] = append(got[1], at+": "+c.text)
		}
	}
	return got
}
