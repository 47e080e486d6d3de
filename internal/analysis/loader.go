package analysis

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
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, the unit analyzers run
// over.
type Package struct {
	// PkgPath is the package's import path ("magnet/internal/vsm"), or a
	// synthetic path for fixture packages loaded outside a module.
	PkgPath string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset positions every node in Syntax.
	Fset *token.FileSet
	// Syntax holds the parsed files (comments included), sorted by file
	// name. Test files (*_test.go) are never loaded: magnet-vet checks
	// shipped code, and fixtures live in testdata packages instead.
	Syntax []*ast.File
	// Types and Info carry go/types results for the package.
	Types *types.Package
	// Info is fully populated (Types, Defs, Uses, Selections, Implicits).
	Info *types.Info
}

// Loader parses and type-checks packages using only the standard library:
// module-local imports are resolved by walking the module tree recursively,
// everything else is type-checked from GOROOT source via go/importer's
// "source" compiler (modern toolchains ship no pre-compiled stdlib export
// data, so source is the only dependency-free route).
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at dir. When dir contains a go.mod the
// module path is read from it and module-local imports resolve; otherwise
// only stdlib imports are available (the fixture-loading mode used by
// tests).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		modRoot: abs,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	if data, err := os.ReadFile(filepath.Join(abs, "go.mod")); err == nil {
		l.modPath = modulePath(data)
	}
	return l, nil
}

// modulePath extracts the module path from go.mod contents ("" if absent).
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import implements types.Importer: module-local paths load from the module
// tree, all others fall through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the single package in dir under the given
// import path. Results are memoized by import path.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, _ := conf.Check(pkgPath, l.fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, typeErr)
	}
	pkg := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Syntax:  files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// goFileNames returns the sorted non-test Go file names in dir that build
// on the host platform. Per-platform files (//go:build linux, *_windows.go)
// must be filtered exactly as the compiler would, or packages with syscall
// shims type-check with duplicate declarations.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads every package in the module tree, skipping testdata,
// hidden and underscore-prefixed directories. Packages come back sorted by
// import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	if l.modPath == "" {
		return nil, fmt.Errorf("analysis: %s has no go.mod", l.modRoot)
	}
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFileNames(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := l.modPath
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, pkgPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
