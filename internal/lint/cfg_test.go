package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"testing"
)

// parseBody parses src as the body of a function and builds its CFG. The
// builder needs no type information, so the source need not type-check.
func parseBody(t *testing.T, src string) *CFG {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "f.go", "package p\nfunc f() {\n"+src+"\n}", 0)
	if err != nil {
		t.Fatal(err)
	}
	return buildCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

// marker names a `name()` call statement; the tests place one per spot
// whose control flow they check. panic is not a marker.
func marker(n ast.Node) string {
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name != "panic" {
				return id.Name
			}
		}
	}
	return ""
}

func findMarker(t *testing.T, g *CFG, name string) (*CFGBlock, int) {
	t.Helper()
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if marker(n) == name {
				return blk, i
			}
		}
	}
	t.Fatalf("no marker %s()", name)
	return nil, 0
}

// next lists the markers that can run right after marker from, with "exit"
// for the function's Exit, looking through blocks that hold no marker.
func next(t *testing.T, g *CFG, from string) []string {
	t.Helper()
	blk, i := findMarker(t, g, from)
	for _, n := range blk.Nodes[i+1:] {
		if m := marker(n); m != "" {
			return []string{m}
		}
	}
	seen := map[*CFGBlock]bool{}
	found := map[string]bool{}
	var visit func(b *CFGBlock)
	visit = func(b *CFGBlock) {
		for _, e := range b.Succs {
			to := e.To
			if seen[to] {
				continue
			}
			seen[to] = true
			if to == g.Exit {
				found["exit"] = true
				continue
			}
			first := ""
			for _, n := range to.Nodes {
				if first = marker(n); first != "" {
					break
				}
			}
			if first != "" {
				found[first] = true
			} else {
				visit(to)
			}
		}
	}
	visit(blk)
	out := make([]string, 0, len(found))
	for m := range found {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func TestBuildCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want map[string][]string // marker -> markers that may follow it
	}{
		{"if-else", `s(); if p { a() } else { b() }; c()`, map[string][]string{
			"s": {"a", "b"}, "a": {"c"}, "b": {"c"}, "c": {"exit"},
		}},
		{"if-no-else", `s(); if p { a() }; c()`, map[string][]string{
			"s": {"a", "c"}, "a": {"c"},
		}},
		{"for-cond", `s(); for i := 0; i < n; i++ { a() }; b()`, map[string][]string{
			"s": {"a", "b"}, "a": {"a", "b"},
		}},
		{"for-no-cond", `for { a(); if p { break } }; b()`, map[string][]string{
			"a": {"a", "b"},
		}},
		{"range", `s(); for _, v := range xs { a(v) }; b()`, map[string][]string{
			"s": {"a", "b"}, "a": {"a", "b"},
		}},
		{"labeled", `
outer:
	for {
		a()
		for {
			b()
			if p { continue outer }
			if q { break outer }
			if r { break }
			c()
		}
		d()
	}
	e()`, map[string][]string{
			"a": {"b"}, "b": {"a", "c", "d", "e"}, "c": {"b"}, "d": {"a"}, "e": {"exit"},
		}},
		{"goto", `a()
loop:
	b()
	if p { goto loop }
	c()`, map[string][]string{
			"a": {"b"}, "b": {"b", "c"},
		}},
		{"fallthrough", `s()
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}
	d()`, map[string][]string{
			"s": {"a", "b", "c"}, "a": {"b"}, "b": {"d"}, "c": {"d"},
		}},
		{"switch-no-default", `s(); switch { case p: a(); case q: b() }; d()`, map[string][]string{
			"s": {"a", "b", "d"},
		}},
		{"select", `s()
	select {
	case v := <-ch:
		a(v)
	case ch <- 1:
		b()
	default:
		c()
	}
	d()`, map[string][]string{
			"s": {"a", "b", "c"}, "a": {"d"}, "c": {"d"},
		}},
		{"panic-return", `if p { a(); panic("x") }; if q { b(); return }; c()`, map[string][]string{
			"a": {"exit"}, "b": {"exit"}, "c": {"exit"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := parseBody(t, tc.src)
			for from, want := range tc.want {
				if got := next(t, g, from); !reflect.DeepEqual(got, want) {
					t.Errorf("after %s(): got %v, want %v", from, got, want)
				}
			}
		})
	}
}

// TestBuildCFGSelectOps pins the select wrapper: one head node recording
// whether a default exists, and one wrapped comm op per communication
// clause.
func TestBuildCFGSelectOps(t *testing.T) {
	for _, tc := range []struct {
		src        string
		hasDefault bool
	}{
		{`select { case v := <-ch: a(v); case ch <- 1: b(); default: c() }`, true},
		{`select { case v := <-ch: a(v); case ch <- 1: b() }`, false},
	} {
		g := parseBody(t, tc.src)
		heads, comms := 0, 0
		for _, blk := range g.Blocks {
			for _, n := range blk.Nodes {
				op, ok := n.(*selectOp)
				if !ok {
					continue
				}
				if op.HasDefault != tc.hasDefault {
					t.Errorf("%s: HasDefault = %v", tc.src, op.HasDefault)
				}
				if op.Comm == nil {
					heads++
				} else {
					comms++
				}
			}
		}
		if heads != 1 || comms != 2 {
			t.Errorf("%s: %d head and %d comm nodes, want 1 and 2", tc.src, heads, comms)
		}
	}
}

// TestBuildCFGUnreachable checks that code after a return lands in a block
// nobody jumps to, which the solver never reaches.
func TestBuildCFGUnreachable(t *testing.T) {
	g := parseBody(t, `a(); return; b()`)
	dead, _ := findMarker(t, g, "b")
	for _, blk := range g.Blocks {
		for _, e := range blk.Succs {
			if e.To == dead {
				t.Fatalf("block %d jumps to the code after return", blk.Index)
			}
		}
	}
	if dead == g.Entry {
		t.Fatal("code after return is in the entry block")
	}
	solved, ok := solveForward(g, genKill{}, nameSet{})
	if !ok {
		t.Fatal("did not converge")
	}
	if _, reached := solved[dead]; reached {
		t.Error("solver reached the code after return")
	}
}

// nameSet is a gen/kill lattice for the solver test: the names assigned on
// some path (union join); `x = ...` gens x and `kill(x)` kills it.
type nameSet map[string]bool

func (s nameSet) clone() flowState {
	c := nameSet{}
	for k := range s {
		c[k] = true
	}
	return c
}

func (s nameSet) mergeFrom(other flowState) bool {
	changed := false
	for k := range other.(nameSet) {
		if !s[k] {
			s[k] = true
			changed = true
		}
	}
	return changed
}

type genKill struct{}

func (genKill) refine(flowState, ast.Expr, bool) {}

func (genKill) transfer(st flowState, n ast.Node) {
	s := st.(nameSet)
	switch n := n.(type) {
	case *ast.AssignStmt:
		s[n.Lhs[0].(*ast.Ident).Name] = true
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && marker(n) == "kill" {
			delete(s, call.Args[0].(*ast.Ident).Name)
		}
	}
}

func TestSolveForwardGenKill(t *testing.T) {
	// a survives on the path that skips the if; b is killed after the loop;
	// d survives the zero-trip path; c only arrives over the loop's exit
	// after a trip through the body.
	g := parseBody(t, `
	a = 1
	d = 1
	if p { b = 1; kill(a) }
	for q { kill(d); c = 1 }
	kill(b)`)
	solved, ok := solveForward(g, genKill{}, nameSet{})
	if !ok {
		t.Fatal("did not converge")
	}
	exit := solved[g.Exit].(nameSet)
	if want := (nameSet{"a": true, "c": true, "d": true}); !reflect.DeepEqual(exit, want) {
		t.Errorf("exit state %v, want %v", exit, want)
	}
}

// counter is a deliberately non-monotone analysis: every transfer bumps the
// count and every differing merge overwrites, so a loop never settles.
type counter struct{ n int }

func (c *counter) clone() flowState { return &counter{c.n} }

func (c *counter) mergeFrom(other flowState) bool {
	o := other.(*counter)
	if o.n == c.n {
		return false
	}
	c.n = o.n
	return true
}

type bump struct{}

func (bump) refine(flowState, ast.Expr, bool)  {}
func (bump) transfer(st flowState, _ ast.Node) { st.(*counter).n++ }

// TestFuncBodies pins the walk the CFG clients share, and the finding a
// client turns a non-converging solve into.
func TestFuncBodies(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", `package p
var hook = func() {}
func stub()
func (s *T) run() { go func() {}() }
func g() {}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fb := range funcBodies(&Package{Files: []*ast.File{f}}) {
		names = append(names, fb.Name)
	}
	want := []string{"func literal in package scope", "(*T).run", "func literal in (*T).run", "g"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("bodies %q, want %q", names, want)
	}

	var findings []Finding
	pass := &Pass{Prog: &Program{Fset: fset}, analyzer: &Analyzer{Name: "lockdiscipline"}, findings: &findings}
	reportNoFixpoint(pass, funcBodies(&Package{Files: []*ast.File{f}})[1])
	if len(findings) != 1 || findings[0].Message != "dataflow analysis of (*T).run did not converge; its findings are incomplete" {
		t.Errorf("findings %v", findings)
	}
}

func TestSolveForwardReportsNoFixpoint(t *testing.T) {
	if _, ok := solveForward(parseBody(t, `for p { a() }`), bump{}, &counter{}); ok {
		t.Fatal("non-monotone transfer reported as converged")
	}
	if _, ok := solveForward(parseBody(t, `a(); b()`), bump{}, &counter{}); !ok {
		t.Fatal("loop-free body reported as not converging")
	}
}
