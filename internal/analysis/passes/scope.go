// Package passes holds the repo's pslint analyzers — the static checks
// that enforce the determinism, clock, exhaustiveness and metrics
// invariants behind the bit-identical-SlotReport guarantee. Each
// analyzer documents the invariant it enforces; DESIGN.md
// ("Determinism invariants & static enforcement") maps invariants to
// analyzers and states the suppression policy.
package passes

import (
	"go/token"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// All returns every pslint analyzer, in the order cmd/pslint runs them.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Floatorder,
		Wallclock,
		Kindswitch,
		Obsnames,
		Errwire,
	}
}

// rootPkg is the import path of the root ps package; the sealed Spec
// interface, the QueryKind enum and the Err* sentinels all live there.
const rootPkg = "repro"

// DeterministicPkgs is the set of packages whose slot-path code must be
// bit-reproducible across strategies and (per ROADMAP) cluster nodes:
// the root package (aggregator, specs, sharded execution) and the pure
// selection/valuation kernels it drives. floatorder and wallclock scope
// to this set; serve, cmd/*, psclient and the simulation packages run
// off the slot path and are exempt.
var DeterministicPkgs = map[string]bool{
	rootPkg:                 true,
	"repro/internal/core":   true,
	"repro/internal/gp":     true,
	"repro/internal/query":  true,
	"repro/internal/geo":    true,
	"repro/internal/linalg": true,
}

// deterministic reports whether the pass's package is in the
// deterministic set. External test packages ("repro_test") audit the
// package they test, so the _test suffix is stripped first.
func deterministic(pkgPath string) bool {
	return DeterministicPkgs[strings.TrimSuffix(pkgPath, "_test")]
}

// wallclockAllowedFiles are root-package files exempt from the wallclock
// rule: the concurrent engine shell and sharded-execution orchestrator,
// where wall time feeds only metrics (ingest/publish/lane latency) and
// event timestamps — never selection, payments or anything else that
// reaches a SlotReport's deterministic fields. The exemption is audited
// in DESIGN.md; selection-path files (aggregator.go, spec.go and all of
// internal/core, gp, query, geo, linalg) stay enforced.
var wallclockAllowedFiles = map[string]bool{
	"engine.go":     true,
	"engine_hub.go": true,
	"shard.go":      true,
	// lane.go's time.Now feeds only LanePartial.SelectMs and StepMs (lane
	// compute and replica-step wall times, metrics); selection inputs and
	// outputs stay clock-free.
	"lane.go": true,
}

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// baseName returns the file's base name for pos.
func baseName(fset *token.FileSet, pos token.Pos) string {
	return filepath.Base(fset.Position(pos).Filename)
}
