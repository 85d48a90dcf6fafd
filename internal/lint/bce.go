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

// bceBudget is the committed budget, relative to the module root (the
// fixture test points it at budgets of its own).
var bceBudget = "internal/lint/bce_budget.txt"

// bceAnalyzer holds the bounds checks the compiler keeps in hot loops to a
// per-function budget. One `go build` for linux/amd64 with
// -d=ssa/check_bce/debug=1 of the packages holding the hotpath/coldcall
// closure hotpathalloc walks lists every check the compiler keeps (an
// inlined callee's at its call site); a warm build cache replays it, and an
// empty closure runs none. A check counts against the function whose for or
// range body holds it, outside the part run once (a for's init clause, a
// range's expression) and outside nested func literals.
//
// The budget's first line is the `go env GOVERSION` it was measured with; a
// different toolchain is one finding and nothing else is compared. Then one
// sorted `<types.Func FullName> <count>` line per function: a count over
// (listing the checks) or under its line, checks without a line, and a line
// whose function left the closure are findings. They give each measured
// count, which is how the budget is written.
func bceAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "bce",
		Doc:  "bounds checks the compiler keeps in hot-path loops match the per-function budget in internal/lint/bce_budget.txt",
		Run:  checkBCEBudget,
	}
}

// hotLoops is a hot function with the spans of its loops and func literals.
type hotLoops struct {
	fn          *types.Func
	decl        *ast.FuncDecl
	loops, lits []span
}

func checkBCEBudget(pass *Pass) {
	g := pass.Graph
	cold := coldBoundaries(g, nil) // hotpathalloc owns annotation validation
	reached, _ := hotClosure(g, cold)
	var hot []*hotLoops
	var dirs []string
	for _, f := range g.Funcs() {
		decl, pkg := g.DeclOf(f)
		if reached[f] && !cold[f] && decl.Body != nil {
			hot = append(hot, loopSpans(f, decl))
			dirs = append(dirs, pkg.Dir)
		}
	}
	if len(hot) == 0 {
		return
	}
	root, _, err := findModule(dirs[0])
	path := bceBudget
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
		pass.reportAt(at(1), "bce: %v", err)
		return
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if v := strings.TrimSpace(string(version)); lines[0] != v {
		pass.reportAt(at(1), "budget was measured with %s, this toolchain is %s; bounds-check elimination differs between compiler releases, so build with %s or re-measure every line", lines[0], v, lines[0])
		return
	}
	budget := make(map[string]budgetLine, len(lines)-1)
	for i, l := range lines[1:] {
		var name string
		var n int
		if _, err := fmt.Sscan(l, &name, &n); err != nil {
			pass.reportAt(at(i+2), "want `<function> <count>`, got %q", l)
			continue
		}
		budget[name] = budgetLine{n, i + 2}
	}
	slices.Sort(dirs)
	checks, err := boundsChecks(root, slices.Compact(dirs))
	if err != nil {
		pass.reportAt(at(1), "bce: %v", err)
		return
	}

	found := loopChecks(pass.Prog.Fset, hot, checks)
	for _, h := range hot {
		name := h.fn.FullName()
		got, b := found[h], budget[name]
		delete(budget, name) // what is left has left the closure
		switch n := len(got); {
		case b.line == 0 && n > 0:
			pass.Reportf(h.decl.Name.Pos(), "%s keeps %d bounds check(s) in hot loops and has no budget; add the line %q to %s", name, n, fmt.Sprintf("%s %d", name, n), filepath.Base(path))
		case n > b.count:
			pass.Reportf(h.decl.Name.Pos(), "%s keeps %d bounds check(s) in hot loops, over its budget of %d: %s", name, n, b.count, strings.Join(got, ", "))
		case n < b.count:
			pass.Reportf(h.decl.Name.Pos(), "%s keeps %d bounds check(s) in hot loops, under its budget of %d; lower its line to %d", name, n, b.count, n)
		}
	}
	for name, b := range budget {
		pass.reportAt(at(b.line), "%s has a budget but is no longer in the hot closure; delete its line", name)
	}
}

// loopSpans collects the spans of decl's loop bodies and func literals.
func loopSpans(f *types.Func, decl *ast.FuncDecl) *hotLoops {
	h := &hotLoops{fn: f, decl: decl}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			h.lits = append(h.lits, span{n.Pos(), n.End()})
			return false
		case *ast.ForStmt:
			lo := n.For
			if n.Init != nil {
				lo = n.Init.End()
			}
			h.loops = append(h.loops, span{lo, n.End()})
		case *ast.RangeStmt:
			h.loops = append(h.loops, span{n.X.End(), n.End()})
		}
		return true
	})
	return h
}

// loopChecks maps the compiler's check positions onto the hot functions'
// loops and returns each function's counted checks.
func loopChecks(fset *token.FileSet, hot []*hotLoops, checks []token.Position) map[*hotLoops][]string {
	out := make(map[*hotLoops][]string)
	for _, h := range hot {
		tf := fset.File(h.decl.Pos())
		for _, c := range checks {
			if c.Filename != tf.Name() || c.Line > tf.LineCount() {
				continue
			}
			p := tf.LineStart(c.Line) + token.Pos(c.Column-1)
			if p >= h.decl.Pos() && p < h.decl.End() && inSpans(h.loops, p) && !inSpans(h.lits, p) {
				out[h] = append(out[h], fmt.Sprintf("%s:%d:%d", filepath.Base(c.Filename), c.Line, c.Column))
			}
		}
	}
	return out
}

// boundsCheckRe matches one line of the compiler's check_bce report.
var boundsCheckRe = regexp.MustCompile(`^(.+):(\d+):(\d+): Found Is(?:Slice)?InBounds$`)

// boundsChecks builds dirs, directories of the module at root, for
// linux/amd64 with the compiler's bounds-check report and returns every
// check it keeps (reported relative to root, where the build runs).
func boundsChecks(root string, dirs []string) ([]token.Position, error) {
	args := []string{"build", "-o", os.DevNull}
	var pkgs []string
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d) // both absolute
		pkg := "./" + filepath.ToSlash(rel)
		args = append(args, "-gcflags="+pkg+"=-d=ssa/check_bce/debug=1")
		pkgs = append(pkgs, pkg)
	}
	cmd := exec.Command("go", append(args, pkgs...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=amd64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	var checks []token.Position
	for _, l := range strings.Split(string(out), "\n") {
		m := boundsCheckRe.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		checks = append(checks, token.Position{Filename: filepath.Join(root, m[1]), Line: line, Column: col})
	}
	slices.SortFunc(checks, func(a, b token.Position) int {
		return cmp.Or(strings.Compare(a.Filename, b.Filename), a.Line-b.Line, a.Column-b.Column)
	})
	return checks, nil
}

// budgetLine is one function's budgeted count and its line in the file.
type budgetLine struct{ count, line int }
