package lint

import (
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goVersion is the toolchain's `go env GOVERSION`, the header a budget
// measured with it carries.
func goVersion(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(out))
}

// useBudget points the hotpath analyzer at a budget file holding text until
// the test ends, and returns the file's path.
func useBudget(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hotpath_budget.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	committed := hotpathBudget
	hotpathBudget = path
	t.Cleanup(func() { hotpathBudget = committed })
	return path
}

// TestBCEBudget builds the budget fixture with the compiler's escape and
// bounds-check reports and holds it to one budget per finding kind, over
// both columns. kept's loop keeps two checks; proven's loop keeps none,
// because the compiler proves them away; outside keeps one check, before its
// loop, so it is not counted. capture's closure and store's new(node) escape,
// one each; stack's make stays on the stack; failing's escapes are all
// inside its panic argument, so none counts.
func TestBCEBudget(t *testing.T) {
	dir := filepath.Join("testdata", "src", "budget")
	prog, err := LoadFixture(dir, "fixture/budget")
	if err != nil {
		t.Fatal(err)
	}
	version := goVersion(t)
	root, err := findModule(dir)
	if err != nil {
		t.Fatal(err)
	}

	report, err := compilerReport(root, []string{prog.Pkgs[0].Dir})
	if err != nil {
		t.Fatal(err)
	}
	// The compiler's raw lines per function, before the analyzer's loop and
	// panic rules.
	raw := make(map[string][2]int)
	for _, d := range prog.Pkgs[0].Files[0].Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		lo, hi := prog.Fset.Position(fn.Pos()), prog.Fset.Position(fn.End())
		for _, c := range report[lo.Filename] {
			if c.pos.Line >= lo.Line && c.pos.Line <= hi.Line {
				n := raw[fn.Name.Name]
				n[c.column]++
				raw[fn.Name.Name] = n
			}
		}
	}
	for name, want := range map[string][2]int{
		"kept": {2, 0}, "proven": {0, 0}, "outside": {1, 0},
		"capture": {0, 1}, "store": {0, 1}, "stack": {0, 0},
	} {
		if raw[name] != want {
			t.Errorf("compiler reports %v in %s, want %v", raw[name], name, want)
		}
	}
	if raw["failing"][1] == 0 {
		t.Error("compiler reports no escape inside failing's panic argument; the fixture no longer tests the exemption")
	}

	lines := "fixture/budget.capture 0 1\nfixture/budget.kept 2 0\nfixture/budget.store 0 1\n"
	exact := version + "\n" + lines
	cases := []struct {
		name, budget string
		want         string // the one finding's message; empty for none
		line         int    // its line in the budget file; 0 for a Go file
	}{
		{"exact", exact, "", 0},
		{"over", strings.Replace(exact, "kept 2 0", "kept 1 0", 1),
			`^fixture/budget\.kept keeps 2 bounds check\(s\) in hot loops, over its budget of 1: budget\.go:\d+:\d+; budget\.go:\d+:\d+$`, 0},
		{"over escapes", strings.Replace(exact, "store 0 1", "store 0 0", 1),
			`^fixture/budget\.store keeps 1 heap escape\(s\), over its budget of 0: budget\.go:\d+:\d+: new\(node\) escapes to heap$`, 0},
		{"under", strings.Replace(exact, "kept 2 0", "kept 3 0", 1),
			`^fixture/budget\.kept keeps 2 bounds check\(s\) .* under its budget of 3; set its line to "fixture/budget\.kept 2 0"$`, 0},
		{"under escapes", strings.Replace(exact, "capture 0 1", "capture 0 2", 1),
			`^fixture/budget\.capture keeps 1 heap escape\(s\), under its budget of 2; set its line to "fixture/budget\.capture 0 1"$`, 0},
		{"unbudgeted", strings.Replace(exact, "fixture/budget.capture 0 1\n", "", 1),
			`^fixture/budget\.capture keeps 0 .* and 1 heap escape\(s\) and has no budget; add the line "fixture/budget\.capture 0 1"`, 0},
		{"left the closure", exact + "fixture/budget.cold 1 2\n",
			`^fixture/budget\.cold has a budget but is no longer in the hot closure`, 5},
		{"malformed line", exact + "fixture/budget.stack 0 0 junk\n",
			"^want `<function> <bounds checks> <escapes>`, got \"fixture/budget\\.stack 0 0 junk\"$", 5},
		{"duplicate name", exact + "fixture/budget.kept 2 0\n",
			`^fixture/budget\.kept is listed twice \(first at line 3\); keep one line$`, 5},
		{"toolchain", "go1.0\n" + lines,
			`^budget was measured with go1\.0, this toolchain is ` + regexp.QuoteMeta(version), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := useBudget(t, tc.budget)
			findings := Run(prog, []*Analyzer{hotpathAnalyzer()})
			if tc.want == "" {
				for _, f := range findings {
					t.Errorf("unexpected finding: %s", f)
				}
				return
			}
			if len(findings) != 1 {
				t.Fatalf("want 1 finding, got %d: %v", len(findings), findings)
			}
			f := findings[0]
			if !regexp.MustCompile(tc.want).MatchString(f.Message) {
				t.Errorf("finding %q does not match %q", f.Message, tc.want)
			}
			inBudget := f.Pos.Filename == path
			if inBudget != (tc.line > 0) || (inBudget && f.Pos.Line != tc.line) {
				t.Errorf("finding at %s, want line %d of the budget (0: a Go file)", f.Pos, tc.line)
			}
		})
	}
}
