package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked module package.
type Package struct {
	Path  string // import path
	Dir   string // absolute
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the whole loaded module: every package parsed, type-checked in
// dependency order, sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// loader type-checks module packages against a shared stdlib source
// importer. It implements types.ImporterFrom: module-internal imports are
// served from the already-checked set, everything else falls through to the
// stdlib `source` importer.
type loader struct {
	fset    *token.FileSet
	stdlib  types.ImporterFrom
	checked map[string]*types.Package
}

func newLoader(fset *token.FileSet) *loader {
	// The source importer re-type-checks imports from source and cannot run
	// cgo preprocessing; with cgo off, go/build selects the pure-Go fallbacks
	// (net, os/user) that exist for exactly this situation.
	build.Default.CgoEnabled = false
	return &loader{
		fset:    fset,
		stdlib:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		checked: make(map[string]*types.Package),
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	return l.stdlib.ImportFrom(path, dir, mode)
}

// check type-checks one package and records it for importers downstream.
func (l *loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	l.checked[path] = tpkg
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// LoadModule loads every package of the module rooted at (or above) root:
// parse all non-test .go files, order packages by intra-module imports, and
// type-check each. Test files and testdata/vendor trees are skipped — the
// invariants sparselint enforces are about production task bodies, and the
// tests exercise deques and schedulers in ways the rules forbid on purpose.
func LoadModule(root string) (*Program, error) {
	modRoot, modPath, err := findModule(root)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(modRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()

	// Parsing is embarrassingly parallel (token.FileSet is concurrency-safe)
	// and dominates load time after the stdlib import cache warms; fan it out
	// over a bounded pool. Results are consumed in directory order, so the
	// program layout stays deterministic.
	parsedFiles := make([][]*ast.File, len(dirs))
	parseErrs := make([]error, len(dirs))
	sem := make(chan struct{}, lintWorkers())
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			parsedFiles[i], parseErrs[i] = parseDir(fset, dir)
		}(i, dir)
	}
	wg.Wait()

	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports map[string]bool
	}
	var pkgs []*parsed
	byPath := make(map[string]*parsed)
	for i, dir := range dirs {
		files, err := parsedFiles[i], parseErrs[i]
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{path: path, dir: dir, files: files, imports: make(map[string]bool)}
		for _, f := range files {
			for _, imp := range f.Imports {
				p.imports[strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
		pkgs = append(pkgs, p)
		byPath[path] = p
	}

	// Topological order over intra-module imports so every internal
	// dependency is checked before its importers.
	var order []*parsed
	state := make(map[*parsed]int) // 0 new, 1 visiting, 2 done
	var visit func(p *parsed) error
	visit = func(p *parsed) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p] = 1
		deps := make([]string, 0, len(p.imports))
		for imp := range p.imports {
			deps = append(deps, imp)
		}
		sort.Strings(deps)
		for _, imp := range deps {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].path < pkgs[j].path })
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	l := newLoader(fset)
	prog := &Program{Fset: fset}
	for _, p := range order {
		pkg, err := l.check(p.path, p.dir, p.files)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// LoadFixture loads a single directory of fixture files as one package under
// the given import path (the path decides which package-scoped analyzers
// apply, e.g. "fixture/internal/server" for ctxfirst).
func LoadFixture(dir, asPath string) (*Program, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	pkg, err := newLoader(fset).check(asPath, dir, files)
	if err != nil {
		return nil, err
	}
	return &Program{Fset: fset, Pkgs: []*Package{pkg}}, nil
}

// findModule walks up from root to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(root string) (dir, path string, err error) {
	dir, err = filepath.Abs(root)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found at or above %s", root)
		}
		dir = parent
	}
}

// packageDirs lists every directory under root that holds non-test .go
// files, skipping testdata, vendor, and hidden trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses every non-test .go file in dir that the default build
// selects — this GOOS/GOARCH, no race tag, as `go build` sees the package —
// with comments, which carry the annotations and suppressions.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
