package passes

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/obs"
)

// Obsnames applies the obs metric-naming lint (ps_ prefix, snake_case,
// _total on counters, unit suffixes on histograms, label grammar) to
// the name and label arguments of obs.Registry constructor calls at
// analysis time. The registry enforces the same rules at registration
// (Registry.Validate, plus the CI naming-lint test over the full
// registry), but those fire when the process starts; a constant name is
// checkable the moment it is written, so a typo breaks the build
// instead of the deploy. Non-constant names stay a runtime concern.
// Runs over every package — metrics are registered from the engine, the
// hub and the serve layer alike. Test files are exempt: the obs tests
// register deliberately bad names to exercise Validate itself, and a
// test registry never reaches a scrape endpoint.
var Obsnames = &analysis.Analyzer{
	Name: "obsnames",
	Doc:  "metric-name literals passed to obs registry constructors must pass the obs naming lint",
	Run:  runObsnames,
}

// obsConstructors maps Registry method names to the metric kind they
// register and the index of the first label-name argument (-1 when the
// method takes no labels).
var obsConstructors = map[string]struct {
	kind       obs.Kind
	labelsFrom int
}{
	"Counter":      {obs.KindCounter, -1},
	"Gauge":        {obs.KindGauge, -1},
	"GaugeFunc":    {obs.KindGauge, -1},
	"Histogram":    {obs.KindHistogram, -1},
	"CounterVec":   {obs.KindCounter, 2},
	"GaugeVec":     {obs.KindGauge, 2},
	"HistogramVec": {obs.KindHistogram, 3},
}

const obsPkgPath = "repro/internal/obs"

func runObsnames(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
			if !ok || !isRegistryMethod(fn) {
				return true
			}
			ctor, ok := obsConstructors[fn.Name()]
			if !ok || len(call.Args) == 0 {
				return true
			}
			if name, lit := constString(pass, call.Args[0]); lit {
				if err := obs.ValidateName(name, ctor.kind); err != nil {
					pass.Reportf(call.Args[0].Pos(), "%v", err)
				}
			}
			if ctor.labelsFrom >= 0 {
				for _, arg := range call.Args[min(ctor.labelsFrom, len(call.Args)):] {
					if label, lit := constString(pass, arg); lit {
						if err := obs.ValidateLabel(label); err != nil {
							pass.Reportf(arg.Pos(), "%v", err)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// isRegistryMethod reports whether fn is a method on *obs.Registry.
func isRegistryMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamed(t, obsPkgPath, "Registry")
}

// constString returns the compile-time string value of expr, if it has
// one (literal or constant expression).
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
