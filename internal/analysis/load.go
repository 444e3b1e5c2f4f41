package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked build unit.
type Package struct {
	// Path is the import path the unit was checked under. Analyzers
	// scope themselves by it (see passes.DeterministicPkgs).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages. All packages loaded through
// one Loader share a FileSet and an importer, so cross-package type
// identities (e.g. the ps.Spec interface seen from wire) are consistent
// within a load and imported packages are type-checked at most once.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader backed by the standard library's source
// importer, which resolves both intra-module and stdlib imports by
// type-checking them from source (the module has no external deps, so
// that closure is complete).
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadFiles parses the named files and type-checks them as one package
// under the given import path. The path is the caller's claim, not a
// resolved location — the analysistest harness uses that to check
// fixtures under the package paths the analyzers scope by.
func (l *Loader) LoadFiles(pkgPath string, filenames []string) (*Package, error) {
	return l.loadFiles(pkgPath, filenames, l.imp)
}

// loadFiles is LoadFiles resolving the unit's imports through imp.
func (l *Loader) loadFiles(pkgPath string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no files for %s", pkgPath)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Package{Path: pkgPath, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadDir loads every .go file in dir (sorted by name, including files
// with a _test.go suffix — fixtures exercise the test-file allowlists)
// as one package under pkgPath.
func (l *Loader) LoadDir(pkgPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(filenames)
	return l.LoadFiles(pkgPath, filenames)
}

// listedPackage is the subset of `go list -json` output the driver
// needs to assemble build units.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Incomplete   bool
}

// goList shells out to `go list -json` for the patterns, exactly as
// go/packages does, returning one entry per matched package.
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// RunPatterns loads every package matching the go-list patterns and runs
// the analyzers over each, returning all surviving diagnostics in
// position order. Each listed package contributes up to two units: its
// Go files plus in-package test files (checked under the import path),
// and the external test package when present (checked under path+"_test",
// against the first unit, as `go test` builds it — see testImporter).
// Test files are included deliberately — the floatorder invariant covers
// golden-test expectation building, which is how PR 3's map-order float
// bug originally slipped in. known is the full directive-name set passed
// through to Run.
func RunPatterns(patterns []string, analyzers []*Analyzer, known map[string]bool) ([]Diagnostic, *token.FileSet, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, nil, err
	}
	l := NewLoader()
	var all []Diagnostic
	for _, lp := range listed {
		if lp.Incomplete {
			return nil, nil, fmt.Errorf("analysis: package %s did not load cleanly", lp.ImportPath)
		}
		units := []struct {
			path  string
			files []string
		}{
			{lp.ImportPath, join(lp.Dir, lp.GoFiles, lp.TestGoFiles)},
			{lp.ImportPath + "_test", join(lp.Dir, lp.XTestGoFiles)},
		}
		imp := l.imp
		for _, u := range units {
			if len(u.files) == 0 {
				continue
			}
			pkg, err := l.loadFiles(u.path, u.files, imp)
			if err != nil {
				return nil, nil, err
			}
			diags, err := Run(pkg, analyzers, known)
			if err != nil {
				return nil, nil, err
			}
			all = append(all, diags...)
			imp = &testImporter{l: l, under: pkg.Types, dir: lp.Dir, done: map[string]*types.Package{}}
		}
	}
	SortDiagnostics(l.fset, all)
	return all, l.fset, nil
}

// testImporter resolves an external test unit's imports the way `go
// test` builds them. The package under test is its in-package unit, test
// files included, so an export_test.go bridge is visible. A module
// package that imports the package under test, directly or not, is
// type-checked again from source through this importer, so the test sees
// one package under test whichever way it reaches it. Every other import
// comes from the loader's shared importer.
type testImporter struct {
	l     *Loader
	under *types.Package
	dir   string // the package's directory, where go/build resolves imports
	done  map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if path == ti.under.Path() {
		return ti.under, nil
	}
	if p, ok := ti.done[path]; ok {
		return p, nil
	}
	p, err := ti.l.imp.Import(path)
	if err != nil || !importsPath(p, ti.under.Path(), map[*types.Package]bool{}) {
		return p, err
	}
	bp, err := build.Import(path, ti.dir, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := ti.l.loadFiles(path, join(bp.Dir, bp.GoFiles), ti)
	if err != nil {
		return nil, err
	}
	ti.done[path] = pkg.Types
	return pkg.Types, nil
}

// importsPath reports whether p imports the package at path, directly or
// not; seen holds the packages already searched.
func importsPath(p *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, q := range p.Imports() {
		if q.Path() == path {
			return true
		}
		if !seen[q] {
			seen[q] = true
			if importsPath(q, path, seen) {
				return true
			}
		}
	}
	return false
}

func join(dir string, lists ...[]string) []string {
	var out []string
	for _, list := range lists {
		for _, f := range list {
			out = append(out, filepath.Join(dir, f))
		}
	}
	return out
}
