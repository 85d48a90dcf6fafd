package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func tokenPosition(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}

// want is one expectation parsed from a `// want `regexp“ comment in a
// fixture file: a finding must land on that file/line with a matching
// message. Several backtick-quoted regexps may follow one `// want` when a
// line produces several findings.
type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantTokRe = regexp.MustCompile("`([^`]+)`")

func loadWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			toks := wantTokRe.FindAllStringSubmatch(line[idx:], -1)
			if len(toks) == 0 {
				t.Fatalf("%s:%d: malformed want comment", e.Name(), i+1)
			}
			for _, m := range toks {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
				}
				wants = append(wants, &want{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// TestAnalyzerFixtures runs each analyzer over its golden fixture package
// and diffs the findings against the `// want` expectations: every finding
// must be expected, every expectation must fire, and the suppressed cases in
// each fixture must stay silent.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name   string // analyzer and fixture directory
		asPath string // import path the fixture loads under (drives scoping)
	}{
		{"hotpath", "fixture/hotpath"},
		{"lockdiscipline", "fixture/lockdiscipline"},
		{"atomicfield", "fixture/atomicfield"},
		{"errflow", "fixture/internal/server"},
	}
	// An empty budget: every hot fixture function the compiler reports an
	// escape or a loop bounds check in is a want of its own.
	useBudget(t, goVersion(t)+"\n")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := AnalyzerByName(tc.name)
			if a == nil {
				t.Fatalf("no analyzer %q", tc.name)
			}
			dir := filepath.Join("testdata", "src", tc.name)
			prog, err := LoadFixture(dir, tc.asPath)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run(prog, []*Analyzer{a})
			wants := loadWants(t, dir)
			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if w.file == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
						w.hit = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestDirectiveValidation checks that malformed suppressions are findings in
// their own right. The missing-reason case is asserted here rather than via
// a want comment, because any trailing comment would itself count as the
// reason.
func TestDirectiveValidation(t *testing.T) {
	dir := filepath.Join("testdata", "src", "directive")
	prog, err := LoadFixture(dir, "fixture/directive")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, Analyzers())
	if len(findings) != 3 {
		t.Fatalf("want 3 directive findings, got %d: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != "directive" {
			t.Errorf("finding has analyzer %q, want \"directive\": %s", f.Analyzer, f)
		}
	}
	if !strings.Contains(findings[0].Message, "not a sparselint analyzer") {
		t.Errorf("first finding should flag the unknown target: %s", findings[0])
	}
	if !strings.Contains(findings[1].Message, "needs a reason") {
		t.Errorf("second finding should flag the missing reason: %s", findings[1])
	}
	if !strings.Contains(findings[2].Message, "suppresses nothing") {
		t.Errorf("third finding should flag the stale directive: %s", findings[2])
	}
}

// TestRepoIsClean is the meta-test satellite: the real module must produce
// zero findings, so `make lint` stays green and every annotation/suppression
// in the tree is exercised against the production analyzers.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	if want := []string{"hotpath", "lockdiscipline", "atomicfield", "errflow"}; !slices.Equal(names, want) {
		t.Fatalf("analyzer set is %v, want %v — update this meta-test when adding or removing analyzers", names, want)
	}
	prog, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// The loaded packages are `go list ./...` of the module and of the
	// benchmark module nested in it, less the root package, which has only
	// test files.
	const withFiles = "{{if .GoFiles}}{{.ImportPath}}{{end}}"
	want := append(listPaths(t, "../..", withFiles, "./..."), listPaths(t, "../../benchmark", withFiles, "./...")...)
	var got []string
	for _, p := range prog.Pkgs {
		got = append(got, p.Path)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) || !slices.Contains(got, "sparsetask/benchmark") {
		t.Errorf("loaded packages %v, want %v", got, want)
	}
	findings := Run(prog, Analyzers())
	for _, f := range findings {
		t.Errorf("repo finding: %s", f)
	}
}

// TestSuppressionRequiresAdjacency pins the directive contract: a
// suppression only covers its own line and the line directly below.
func TestSuppressionRequiresAdjacency(t *testing.T) {
	sup := suppressions{
		{file: "f.go", line: 10, analyzer: "errflow"}: &suppression{
			analyzer: "errflow",
			pos:      tokenPosition("f.go", 10),
		},
	}
	at := func(line int) Finding {
		return Finding{Analyzer: "errflow", Pos: tokenPosition("f.go", line)}
	}
	if sup.matches(at(10)) == nil || sup.matches(at(11)) == nil {
		t.Error("directive must cover its own line and the next")
	}
	if sup.matches(at(9)) != nil || sup.matches(at(12)) != nil {
		t.Error("directive must not cover distant lines")
	}
	other := Finding{Analyzer: "hotpath", Pos: tokenPosition("f.go", 10)}
	if sup.matches(other) != nil {
		t.Error("directive must be analyzer-specific")
	}
}
