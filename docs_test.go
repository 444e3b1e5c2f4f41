package ps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryPackageHasDocComment walks the module and requires a package
// doc comment ("// Package xxx ...") on at least one file of every
// package, tests excluded. godoc renders these as the package synopsis;
// an undocumented package is invisible in the docs index, so this keeps
// the documentation surface complete as packages are added.
func TestEveryPackageHasDocComment(t *testing.T) {
	documented := map[string]bool{} // dir -> has a package doc comment
	seen := map[string]string{}     // dir -> package name
	fset := token.NewFileSet()

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		seen[dir] = f.Name.Name
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			documented[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		wd, _ := os.Getwd()
		t.Fatalf("walked only %d packages from %s — wrong working directory?", len(seen), wd)
	}
	for dir, pkg := range seen {
		if !documented[dir] {
			t.Errorf("package %s (%s) has no package doc comment on any file", pkg, dir)
		}
	}
}

// TestDocsNameExistingIdentifiers: every `ps.Ident`, `StrategyXxx`,
// `SchedulingXxx` and `WithXxx(` the prose names must be an exported
// identifier of package ps, so deleting or renaming a symbol cannot leave
// README.md, DESIGN.md, PERFORMANCE.md or doc.go describing something
// that no longer exists. (ROADMAP.md and CHANGES.md are history and
// benchmark/ is frozen; none of them is scanned.)
func TestDocsNameExistingIdentifiers(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{} // every package-level name; the patterns below only match exported ones
	for _, f := range pkgs["ps"].Files {
		for name := range f.Scope.Objects {
			exported[name] = true
		}
	}
	if !exported["NewAggregator"] || !exported["StrategyAuto"] {
		t.Fatalf("parsed %d identifiers of package ps, NewAggregator or StrategyAuto not among them", len(exported))
	}
	// A trailing * (`ps.Err*`) names a family: some identifier must
	// start with it.
	named := regexp.MustCompile(`\bps\.([A-Z]\w*)(\*)?|\b((?:Strategy|Scheduling)[A-Z]\w*)|\b(With[A-Z]\w*)\(`)
	resolves := func(ident string, family bool) bool {
		for e := range exported {
			if e == ident || family && strings.HasPrefix(e, ident) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "PERFORMANCE.md", "doc.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(text), -1) {
			if !resolves(m[1]+m[3]+m[4], m[2] != "") {
				t.Errorf("%s names %q, which is not an exported identifier of package ps", doc, m[0])
			}
		}
	}
}

// TestNoTestOnlyExports: every exported function and method declared in
// internal/... must be named by some non-test file of the module, so code
// that only its own tests call does not accumulate in the build. A test
// reference belongs in a _test.go file; anything else kept without a
// production caller needs an entry in keep saying why. The match is by
// name, not by type: it can miss dead code whose name collides with a live
// identifier, but it never flags live code. Public packages (ps, serve,
// psclient, wire, cluster) are out of scope, because callers outside the
// module may use them.
func TestNoTestOnlyExports(t *testing.T) {
	keep := map[string]string{
		"core.DiffMultiResults":       "the canonical bit-for-bit MultiResult comparison; tests in core and the root package share it, so it cannot live in one package's _test.go",
		"engine.NewVirtualClock":      "the deterministic test clock; ROADMAP item 3's simulator builds on it",
		"gp.Posterior.TotalReduction": "F(S) of Eq. 6 over the tracked targets; ROADMAP item 9(c) gives it a production caller",
		"mobility.NewStationary":      "a fixed-position fleet that tests in sensornet and the root package build on",
	}
	fset := token.NewFileSet()
	named := map[string]bool{} // every identifier a non-test file uses, declarations excluded
	var decls []string         // "pkg.Func" or "pkg.Type.Method", internal/... only
	declared := map[*ast.Ident]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if internal && n.Name.IsExported() {
					decls = append(decls, f.Name.Name+"."+recvName(n)+n.Name.Name)
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, id := range fld.Names {
						declared[id] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					named[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 50 {
		t.Fatalf("found only %d exported functions under internal/ — wrong working directory?", len(decls))
	}
	for _, d := range decls {
		name := d[strings.LastIndexByte(d, '.')+1:]
		if named[name] {
			continue
		}
		if _, ok := keep[d]; ok {
			delete(keep, d)
			continue
		}
		t.Errorf("%s has no caller outside _test.go files: delete it, move it into the tests that use it, or add it to keep with the reason", d)
	}
	for d := range keep {
		t.Errorf("keep lists %s, which is gone or has a caller now: drop the entry", d)
	}
}

// recvName returns "T." for a method on T or *T (generic or not), and ""
// for a plain function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
