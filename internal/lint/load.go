package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
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

// listedPackage is the part of one `go list -json` record the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // compiled export data, from -export
	DepOnly    bool   // listed by -deps, not matched by the patterns
}

// goList runs `go list -deps -export` over patterns in dir and returns the
// packages in the order it prints them: every package after its
// dependencies. -export builds what is listed, as `go build` would, so a
// package that does not compile is an error naming it.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s in %s: %v\n%s", strings.Join(patterns, " "), dir, err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list %s in %s: %v", strings.Join(patterns, " "), dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// loader type-checks the packages go list matched from source and imports
// every other package from the export data go list built. It implements
// types.ImporterFrom: packages already checked from source are served as
// they are, so one import path is one *types.Package across modules.
type loader struct {
	prog    *Program
	export  map[string]string // import path → export data file
	gc      types.ImporterFrom
	checked map[string]*types.Package
}

func newLoader() *loader {
	l := &loader{
		prog:    &Program{Fset: token.NewFileSet()},
		export:  make(map[string]string),
		checked: make(map[string]*types.Package),
	}
	l.gc = importer.ForCompiler(l.prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := l.export[path]
		if !ok {
			return nil, fmt.Errorf("go list built no export data for %s", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)
	return l
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	return l.gc.ImportFrom(path, dir, mode)
}

// load records the export data of listed and type-checks, in list order,
// every package the patterns matched that has Go files; list order puts
// each package's imports before it. A matched package is checked as asPath
// when that is not empty.
func (l *loader) load(listed []listedPackage, asPath string) error {
	for _, p := range listed {
		if p.Export != "" {
			l.export[p.ImportPath] = p.Export
		}
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		path := p.ImportPath
		if asPath != "" {
			path = asPath
		}
		if err := l.check(path, p.Dir, p.GoFiles); err != nil {
			return err
		}
	}
	return nil
}

// check parses names in dir, with comments, which carry the annotations
// and suppressions, type-checks them as path and records the package for
// importers downstream.
func (l *loader) check(path, dir string, names []string) error {
	files := make([]*ast.File, len(names))
	for i, name := range names {
		f, err := parser.ParseFile(l.prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files[i] = f
	}
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
	tpkg, err := conf.Check(path, l.prog.Fset, files, info)
	if err != nil {
		return fmt.Errorf("typecheck %s: %w", path, err)
	}
	l.checked[path] = tpkg
	l.prog.Pkgs = append(l.prog.Pkgs, &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info})
	return nil
}

// LoadModule loads the module rooted at (or above) root and every module
// nested under it: one `go list -deps -export ./...` per module, the root
// module first. The files `go build` selects for each package are parsed
// and type-checked from source; every other import is read from its export
// data. Test files and testdata/vendor trees are not listed — the
// invariants sparselint enforces are about production task bodies, and the
// tests exercise deques and schedulers in ways the rules forbid on purpose.
func LoadModule(root string) (*Program, error) {
	modRoot, err := findModule(root)
	if err != nil {
		return nil, err
	}
	mods, err := nestedModules(modRoot)
	if err != nil {
		return nil, err
	}
	l := newLoader()
	for _, dir := range append([]string{modRoot}, mods...) {
		listed, err := goList(dir, "./...")
		if err != nil {
			return nil, err
		}
		if err := l.load(listed, ""); err != nil {
			return nil, err
		}
	}
	return l.prog, nil
}

// LoadFixture loads a single directory of fixture files as one package under
// the given import path (the path decides which package-scoped analyzers
// apply, e.g. "fixture/internal/server" for errflow).
func LoadFixture(dir, asPath string) (*Program, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(dir, ".")
	if err != nil {
		return nil, err
	}
	l := newLoader()
	if err := l.load(listed, asPath); err != nil {
		return nil, err
	}
	if len(l.prog.Pkgs) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	return l.prog, nil
}

// findModule walks up from dir to the nearest directory holding a go.mod.
func findModule(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

// nestedModules lists the directories under root, not root itself, that
// hold a go.mod of their own, skipping testdata, vendor and hidden trees.
func nestedModules(root string) ([]string, error) {
	var mods []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch name := d.Name(); {
		case d.IsDir() && p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")):
			return filepath.SkipDir
		case !d.IsDir() && name == "go.mod" && p != filepath.Join(root, name):
			mods = append(mods, filepath.Dir(p))
		}
		return nil
	})
	return mods, err
}
