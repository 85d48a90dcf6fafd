package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// listPaths is `go list` over patterns in dir, one import path a line;
// format, when not empty, is its -f template.
func listPaths(t *testing.T, dir, format string, patterns ...string) []string {
	t.Helper()
	args := []string{"list"}
	if format != "" {
		args = append(args, "-f", format)
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s in %s: %v", strings.Join(patterns, " "), dir, err)
	}
	return strings.Fields(string(out))
}

// TestLoadModuleTypeError checks that a package the compiler refuses stops
// the load with an error that names it, and not only the package that
// imports it.
func TestLoadModuleTypeError(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":       "module broken\n\ngo 1.22\n",
		"bad/bad.go":   "package bad\n\nfunc F() int { return \"x\" }\n",
		"good/good.go": "package good\n\nimport \"broken/bad\"\n\nvar X = bad.F()\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadModule(root)
	if err == nil || !strings.Contains(err.Error(), "broken/bad") {
		t.Fatalf("LoadModule = %v, want an error naming broken/bad", err)
	}
}

// TestLoadFixtureStdImport loads a fixture whose one import, a standard
// package, is on no module package's import list: its types come from the
// export data of the fixture's own listing.
func TestLoadFixtureStdImport(t *testing.T) {
	const std = "index/suffixarray"
	if slices.Contains(listPaths(t, "../..", "", "-deps", "./..."), std) {
		t.Fatalf("the module imports %s; pick a standard package it does not", std)
	}
	prog, err := LoadFixture(filepath.Join("testdata", "src", "loadstd"), "fixture/loadstd")
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Pkgs[0].Types.Scope().Lookup("Lookup")
	if fn == nil || fn.Type().String() != "func(data []byte, sep []byte) []int" {
		t.Fatalf("Lookup = %v, want func(data []byte, sep []byte) []int", fn)
	}
	if imp := prog.Pkgs[0].Types.Imports(); len(imp) != 1 || imp[0].Path() != std {
		t.Fatalf("imports = %v, want [%s]", imp, std)
	}
}
