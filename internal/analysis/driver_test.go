package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
)

// TestRunPatternsCleanPackage drives the real loader pipeline —
// `go list -json`, source-importer type-checking, analyzer run,
// directive filtering — over a deterministic package that must stay
// clean. It is the in-process counterpart of CI's
// `go run ./cmd/pslint ./...` gate.
func TestRunPatternsCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list and type-checks from source")
	}
	diags, fset, err := analysis.RunPatterns([]string{"repro/internal/linalg"}, passes.All(), nil)
	if err != nil {
		t.Fatalf("RunPatterns: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestRunPatternsExternalTestBridge: the fixture's external test package
// calls methods only its package's export_test.go declares, on a value
// it gets from a package that itself imports the package under test. The
// loader type-checks it as `go test` builds it: against the package with
// its test files, reached as one package both ways.
func TestRunPatternsExternalTestBridge(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list and type-checks from source")
	}
	diags, fset, err := analysis.RunPatterns([]string{"repro/internal/analysis/testdata/bridge"}, passes.All(), nil)
	if err != nil {
		t.Fatalf("RunPatterns: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
