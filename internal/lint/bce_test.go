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

// TestBCEBudget builds the bce fixture with the compiler's bounds-check
// report and holds it to one budget per finding kind. kept's loop keeps two
// checks; proven's loop keeps none, because the compiler proves them away;
// outside keeps one check, before its loop, so it is not counted.
func TestBCEBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build")
	}
	dir := filepath.Join("testdata", "src", "bce")
	prog, err := LoadFixture(dir, "fixture/bce")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		t.Fatal(err)
	}
	version := strings.TrimSpace(string(out))
	root, _, err := findModule(dir)
	if err != nil {
		t.Fatal(err)
	}

	checks, err := boundsChecks(root, []string{prog.Pkgs[0].Dir})
	if err != nil {
		t.Fatal(err)
	}
	perFunc := make(map[string]int)
	for _, d := range prog.Pkgs[0].Files[0].Decls {
		fn := d.(*ast.FuncDecl)
		lo, hi := prog.Fset.Position(fn.Pos()).Line, prog.Fset.Position(fn.End()).Line
		for _, c := range checks {
			if c.Line >= lo && c.Line <= hi {
				perFunc[fn.Name.Name]++
			}
		}
	}
	if perFunc["proven"] != 0 || perFunc["outside"] != 1 || perFunc["kept"] != 2 {
		t.Fatalf("compiler kept checks %v, want kept:2 outside:1 and none in proven", perFunc)
	}

	const kept = "fixture/bce.kept"
	cases := []struct {
		name, budget string
		want         string // the one finding's message; empty for none
		line         int    // its line in the budget file; 0 for a Go file
	}{
		{"exact", version + "\n" + kept + " 2\n", "", 0},
		{"over", version + "\n" + kept + " 1\n", `^fixture/bce\.kept keeps 2 bounds check\(s\) in hot loops, over its budget of 1: bce\.go:\d+:\d+, bce\.go:\d+:\d+$`, 0},
		{"under", version + "\n" + kept + " 3\n", `^fixture/bce\.kept keeps 2 .* under its budget of 3; lower its line to 2$`, 0},
		{"unbudgeted", version + "\n", `^fixture/bce\.kept keeps 2 .* has no budget; add the line "fixture/bce\.kept 2"`, 0},
		{"left the closure", version + "\nfixture/bce.cold 1\n" + kept + " 2\n", `^fixture/bce\.cold has a budget but is no longer in the hot closure`, 2},
		{"toolchain", "go1.0\n" + kept + " 2\n", `^budget was measured with go1\.0, this toolchain is ` + regexp.QuoteMeta(version), 1},
	}
	defer func(committed string) { bceBudget = committed }(bceBudget)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bce_budget.txt")
			if err := os.WriteFile(path, []byte(tc.budget), 0o644); err != nil {
				t.Fatal(err)
			}
			bceBudget = path
			findings := Run(prog, []*Analyzer{bceAnalyzer()})
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
