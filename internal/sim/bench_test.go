package sim

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figs 2-10), the §4.7 trust experiment, and the design-choice ablations
// from DESIGN.md, plus micro-benchmarks of the point schedulers and the
// standalone Algorithm 3 driver.
//
// Figure benchmarks run a reduced horizon (10 slots, two budget points) so
// `go test -bench=.` finishes in minutes; cmd/psbench regenerates the
// figures at the paper's full scale (50 slots, full budget sweeps). Each
// figure benchmark reports welfare-derived custom metrics so regressions
// in solution quality (not just speed) are visible.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
)

// benchOpts is the reduced scale shared by the figure benchmarks.
var benchOpts = Options{Slots: 10, Seed: 1, Budgets: []float64{10, 25}, QueriesPerSlot: 300}

// runFigure executes a registered figure once per iteration and reports
// the first table's first series mean as a quality metric.
func runFigure(b *testing.B, id string, opts Options) {
	b.Helper()
	fig, ok := FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	var lastMean float64
	for i := 0; i < b.N; i++ {
		tables := fig.Run(opts)
		if len(tables) == 0 || len(tables[0].Series) == 0 {
			b.Fatal("figure produced no data")
		}
		var sum float64
		for _, v := range tables[0].Series[0].Values {
			sum += v
		}
		lastMean = sum / float64(len(tables[0].Series[0].Values))
	}
	b.ReportMetric(lastMean, "welfare/slot")
}

func BenchmarkFig2(b *testing.B) { runFigure(b, "fig2", benchOpts) }
func BenchmarkFig3(b *testing.B) { runFigure(b, "fig3", benchOpts) }
func BenchmarkFig4(b *testing.B) { runFigure(b, "fig4", benchOpts) }
func BenchmarkFig5(b *testing.B) {
	opts := benchOpts
	opts.Budgets = []float64{250, 500} // x-axis is the query count here
	runFigure(b, "fig5", opts)
}
func BenchmarkFig6(b *testing.B)  { runFigure(b, "fig6", benchOpts) }
func BenchmarkFig7(b *testing.B)  { runFigure(b, "fig7", benchOpts) }
func BenchmarkFig8(b *testing.B)  { runFigure(b, "fig8", benchOpts) }
func BenchmarkFig9(b *testing.B)  { runFigure(b, "fig9", benchOpts) }
func BenchmarkFig10(b *testing.B) { runFigure(b, "fig10", benchOpts) }

func BenchmarkTrustSweep(b *testing.B) {
	opts := benchOpts
	opts.Budgets = nil // use the figure's own trust x-axis
	runFigure(b, "trust", opts)
}

func BenchmarkAblationLocalSearch(b *testing.B) { runFigure(b, "ablation-ls", benchOpts) }
func BenchmarkAblationCostWeight(b *testing.B)  { runFigure(b, "ablation-weight", benchOpts) }
func BenchmarkAblationAlpha(b *testing.B) {
	opts := benchOpts
	opts.Budgets = []float64{0.25, 0.75} // x-axis is alpha here
	runFigure(b, "ablation-alpha", opts)
}
func BenchmarkAblationEgalitarian(b *testing.B) { runFigure(b, "ablation-egalitarian", benchOpts) }

// --- micro-benchmarks of the point schedulers ----------------------------

// benchScenario builds one slot's worth of paper-scale point-query input.
func benchScenario(seed int64) ([]*query.Point, []core.Offer) {
	world := datasets.NewRWM(seed, 200, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	wrnd := rng.New(seed, "bench-workload")
	wl := PointWorkload{
		QueriesPerSlot: 300, BudgetMean: 15,
		DMax: world.DMax, Working: world.Working, Grid: world.Grid,
	}
	return wl.Slot(0, wrnd), offers
}

func BenchmarkOptimalPointSlot(b *testing.B) {
	queries, offers := benchScenario(1)
	solver := ExactOptimal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

func BenchmarkLocalSearchPointSlot(b *testing.B) {
	queries, offers := benchScenario(1)
	solver := LocalSearchPoint(DefaultLocalSearchEpsilon)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

func BenchmarkBaselinePointSlot(b *testing.B) {
	queries, offers := benchScenario(1)
	solver := BaselinePoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

func BenchmarkFLSolverMediumInstance(b *testing.B) {
	queries, offers := benchScenario(2)
	solver := OptimalPoint(OptimalOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver(queries, offers)
	}
}

// largeFleetSlot builds one slot of mixed point+aggregate input on an
func BenchmarkRegionPlanningSlot(b *testing.B) {
	world := datasets.NewIntelLab(1, datasets.SensorConfig{})
	offers := world.Fleet.Step()
	q := query.NewRegionMonitoring("rm", geo.NewRect(2, 2, 14, 11), 0, 15, 120, world.GPModel, world.Grid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunRegionMonitoringSlot(0, []*query.RegionMonitoring{q}, offers, RegMonOptions{
			Solver: OptimalPoint(OptimalOptions{}), CostWeighting: true, ShareSensors: true,
		})
	}
}
