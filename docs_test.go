package ps_test

import (
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
