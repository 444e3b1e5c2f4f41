package sim

import (
	"fmt"

	"repro/internal/datasets"
	"repro/internal/stats"
)

// Options tunes a figure run. Zero values select the paper's parameters.
type Options struct {
	Slots   int
	Seed    int64
	Budgets []float64
	// QueriesPerSlot overrides the point-query load (Figs 2-4; 300 in the
	// paper).
	QueriesPerSlot int
}

func (o Options) withDefaults(defBudgets []float64) Options {
	if o.Slots == 0 {
		o.Slots = DefaultSlots
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Budgets) == 0 {
		o.Budgets = defBudgets
	}
	if o.QueriesPerSlot == 0 {
		o.QueriesPerSlot = 300
	}
	return o
}

// Figure regenerates one of the paper's figures as data tables.
type Figure struct {
	ID    string
	Title string
	Run   func(Options) []stats.Table
}

// pointSolvers are the three series of Figs 2-6.
func pointSolvers() []struct {
	name   string
	solver PointSolver
} {
	return []struct {
		name   string
		solver PointSolver
	}{
		{"Optimal", ExactOptimal()},
		{"LocalSearch", LocalSearchPoint(DefaultLocalSearchEpsilon)},
		{"Baseline", BaselinePoint()},
	}
}

// pointFigure runs the three point solvers over a budget sweep and emits
// the (a) average-utility and (b) satisfaction-ratio tables.
func pointFigure(id, dataset string, worldFn func() *datasets.World, jitter float64, o Options) []stats.Table {
	ta := stats.Table{Title: fmt.Sprintf("%s(a) avg utility per slot [%s]", id, dataset), XLabel: "budget", XS: o.Budgets}
	tb := stats.Table{Title: fmt.Sprintf("%s(b) satisfaction ratio [%s]", id, dataset), XLabel: "budget", XS: o.Budgets}
	for _, alg := range pointSolvers() {
		var utility, satisfaction []float64
		for _, b := range o.Budgets {
			res := RunPointSim(worldFn(), o.QueriesPerSlot, b, jitter, alg.solver, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
			satisfaction = append(satisfaction, res.Satisfaction)
		}
		ta.AddSeries(alg.name, utility)
		tb.AddSeries(alg.name, satisfaction)
	}
	return []stats.Table{ta, tb}
}

func fig2(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweep)
	return pointFigure("Fig2", "RWM", func() *datasets.World {
		return datasets.NewRWM(o.Seed, 200, datasets.SensorConfig{})
	}, 0, o)
}

func fig3(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweep)
	return pointFigure("Fig3", "RNC", func() *datasets.World {
		return datasets.NewRNC(o.Seed, datasets.SensorConfig{})
	}, 0, o)
}

func fig4(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweep)
	tables := pointFigure("Fig4", "RNC uniform budget", func() *datasets.World {
		return datasets.NewRNC(o.Seed, datasets.SensorConfig{})
	}, 10, o)
	tables[0].XLabel = "mean budget"
	tables[1].XLabel = "mean budget"
	return tables
}

func fig5(o Options) []stats.Table {
	o = o.withDefaults([]float64{250, 500, 750, 1000}) // x-axis is #queries here
	ta := stats.Table{Title: "Fig5(a) avg utility per slot [RNC, budget 15]", XLabel: "queries", XS: o.Budgets}
	tb := stats.Table{Title: "Fig5(b) satisfaction ratio [RNC, budget 15]", XLabel: "queries", XS: o.Budgets}
	for _, alg := range pointSolvers() {
		var utility, satisfaction []float64
		for _, n := range o.Budgets {
			world := datasets.NewRNC(o.Seed, datasets.SensorConfig{})
			res := RunPointSim(world, int(n), 15, 0, alg.solver, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
			satisfaction = append(satisfaction, res.Satisfaction)
		}
		ta.AddSeries(alg.name, utility)
		tb.AddSeries(alg.name, satisfaction)
	}
	return []stats.Table{ta, tb}
}

func fig6(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweep)
	var out []stats.Table
	for _, lifetime := range []int{50, 25} {
		cfg := datasets.SensorConfig{Lifetime: lifetime, RandomPSL: true, LinearEnergy: true}
		sub := pointFigure(fmt.Sprintf("Fig6 lifetime=%d", lifetime), "RNC privacy+linear-energy",
			func() *datasets.World { return datasets.NewRNC(o.Seed, cfg) }, 0, o)
		out = append(out, sub...)
	}
	return out
}

func fig7(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweep)
	ta := stats.Table{Title: "Fig7(a) avg utility per slot [aggregate, RNC]", XLabel: "budget factor", XS: o.Budgets}
	tb := stats.Table{Title: "Fig7(b) avg quality of results [aggregate, RNC]", XLabel: "budget factor", XS: o.Budgets}
	for _, alg := range []struct {
		name   string
		greedy bool
	}{{"Greedy", true}, {"Baseline", false}} {
		var utility, quality []float64
		for _, b := range o.Budgets {
			world := datasets.NewRNC(o.Seed, datasets.SensorConfig{})
			res := RunAggregateSim(world, b, alg.greedy, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
			quality = append(quality, res.AvgQuality)
		}
		ta.AddSeries(alg.name, utility)
		tb.AddSeries(alg.name, quality)
	}
	return []stats.Table{ta, tb}
}

func fig8(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweepShort)
	ta := stats.Table{Title: "Fig8(a) avg utility per slot [location monitoring]", XLabel: "budget factor", XS: o.Budgets}
	tb := stats.Table{Title: "Fig8(b) avg quality of results [location monitoring]", XLabel: "budget factor", XS: o.Budgets}
	for _, alg := range []struct {
		name string
		alg  LocMonAlgorithm
	}{{"Alg2-O", LocMonOptimal}, {"Alg2-LS", LocMonLocalSearch}, {"Baseline", LocMonBaseline}} {
		var utility, quality []float64
		for _, b := range o.Budgets {
			world := datasets.NewRNC(o.Seed, datasets.SensorConfig{})
			res := RunLocMonSim(world, b, alg.alg, o.Slots, o.Seed, 0.5)
			utility = append(utility, res.AvgUtility)
			quality = append(quality, res.AvgQuality)
		}
		ta.AddSeries(alg.name, utility)
		tb.AddSeries(alg.name, quality)
	}
	return []stats.Table{ta, tb}
}

func fig9(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweepShort)
	ta := stats.Table{Title: "Fig9(a) avg utility per slot [region monitoring, IntelLab]", XLabel: "budget factor", XS: o.Budgets}
	tb := stats.Table{Title: "Fig9(b) avg quality of results [region monitoring, IntelLab]", XLabel: "budget factor", XS: o.Budgets}
	for _, alg := range []struct {
		name string
		alg3 bool
	}{{"Alg3", true}, {"Baseline", false}} {
		var utility, quality []float64
		for _, b := range o.Budgets {
			world := datasets.NewIntelLab(o.Seed, datasets.SensorConfig{})
			res := RunRegMonSim(world, b, alg.alg3, true, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
			quality = append(quality, res.AvgQuality)
		}
		ta.AddSeries(alg.name, utility)
		tb.AddSeries(alg.name, quality)
	}
	return []stats.Table{ta, tb}
}

func fig10(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweepShort)
	ta := stats.Table{Title: "Fig10(a) avg utility per slot [query mix, RNC]", XLabel: "budget factor", XS: o.Budgets}
	tp := stats.Table{Title: "Fig10(b) avg quality: point queries", XLabel: "budget factor", XS: o.Budgets}
	tg := stats.Table{Title: "Fig10(c) avg quality: aggregate queries", XLabel: "budget factor", XS: o.Budgets}
	tl := stats.Table{Title: "Fig10(d) avg quality: location monitoring", XLabel: "budget factor", XS: o.Budgets}
	cfg := datasets.SensorConfig{Lifetime: 25, RandomPSL: true, LinearEnergy: true}
	for _, alg := range []struct {
		name string
		alg5 bool
	}{{"Alg5", true}, {"Baseline", false}} {
		var utility, pq, aq, lq []float64
		for _, b := range o.Budgets {
			world := datasets.NewRNC(o.Seed, cfg)
			res := RunMixSim(world, b, alg.alg5, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
			pq = append(pq, res.PointQuality)
			aq = append(aq, res.AggQuality)
			lq = append(lq, res.LocMonQuality)
		}
		ta.AddSeries(alg.name, utility)
		tp.AddSeries(alg.name, pq)
		tg.AddSeries(alg.name, aq)
		tl.AddSeries(alg.name, lq)
	}
	return []stats.Table{ta, tp, tg, tl}
}

// trustSweep is the §4.7 text experiment: "the more trustworthy the
// sensors are, the more utility they bring to the queries".
func trustSweep(o Options) []stats.Table {
	o = o.withDefaults([]float64{0.3, 0.5, 0.7, 0.9, 1.0}) // mean trust levels
	t := stats.Table{Title: "TrustSweep: avg utility vs mean sensor trust [RNC, budget 15]", XLabel: "mean trust", XS: o.Budgets}
	var utility []float64
	for _, mean := range o.Budgets {
		cfg := datasets.SensorConfig{}
		if mean < 1 {
			cfg.TrustMin, cfg.TrustMax = mean-0.1, mean+0.1
		} else {
			cfg.TrustMin, cfg.TrustMax = 0.999, 1.0
		}
		world := datasets.NewRNC(o.Seed, cfg)
		res := RunPointSim(world, o.QueriesPerSlot, 15, 0, ExactOptimal(), o.Slots, o.Seed)
		utility = append(utility, res.AvgUtility)
	}
	t.AddSeries("Optimal", utility)
	return []stats.Table{t}
}

// ablationLocalSearch compares local-search variants (A1).
func ablationLocalSearch(o Options) []stats.Table {
	o = o.withDefaults([]float64{7, 15, 25, 35})
	t := stats.Table{Title: "Ablation A1: local-search variants [RNC]", XLabel: "budget", XS: o.Budgets}
	algs := []struct {
		name   string
		solver PointSolver
	}{
		{"LS eps=0.01", LocalSearchPoint(0.01)},
		{"LS eps=0.5", LocalSearchPoint(0.5)},
		{"RandLS x3", RandomizedLocalSearchPoint(0.01, 3, 7)},
		{"Greedy", GreedyPoint()},
	}
	for _, alg := range algs {
		var utility []float64
		for _, b := range o.Budgets {
			world := datasets.NewRNC(o.Seed, datasets.SensorConfig{})
			res := RunPointSim(world, o.QueriesPerSlot, b, 0, alg.solver, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
		}
		t.AddSeries(alg.name, utility)
	}
	return []stats.Table{t}
}

// ablationCostWeighting toggles w(k) in region monitoring (A2).
func ablationCostWeighting(o Options) []stats.Table {
	o = o.withDefaults(BudgetSweepShort)
	t := stats.Table{Title: "Ablation A2: region monitoring cost weighting", XLabel: "budget factor", XS: o.Budgets}
	var with, without []float64
	for _, b := range o.Budgets {
		w1 := datasets.NewIntelLab(o.Seed, datasets.SensorConfig{})
		with = append(with, RunRegMonSim(w1, b, true, true, o.Slots, o.Seed).AvgUtility)
		w2 := datasets.NewIntelLab(o.Seed, datasets.SensorConfig{})
		without = append(without, RunRegMonSim(w2, b, true, false, o.Slots, o.Seed).AvgUtility)
	}
	t.AddSeries("w(k) on", with)
	t.AddSeries("w(k) off", without)
	return []stats.Table{t}
}

// ablationAlpha sweeps the extra-budget control of Algorithm 2 (A3).
func ablationAlpha(o Options) []stats.Table {
	o = o.withDefaults([]float64{0, 0.25, 0.5, 0.75, 1})
	t := stats.Table{Title: "Ablation A3: alpha control for location monitoring [budget factor 15]", XLabel: "alpha", XS: o.Budgets}
	var utility, quality []float64
	for _, a := range o.Budgets {
		world := datasets.NewRNC(o.Seed, datasets.SensorConfig{})
		res := RunLocMonSim(world, 15, LocMonOptimal, o.Slots, o.Seed, a)
		utility = append(utility, res.AvgUtility)
		quality = append(quality, res.AvgQuality)
	}
	t.AddSeries("AvgUtility", utility)
	t.AddSeries("AvgQuality", quality)
	return []stats.Table{t}
}

// ablationEgalitarian compares the welfare and egalitarian objectives (A4).
func ablationEgalitarian(o Options) []stats.Table {
	o = o.withDefaults([]float64{7, 10, 15, 20})
	tu := stats.Table{Title: "Ablation A4: welfare vs egalitarian — avg utility", XLabel: "budget", XS: o.Budgets}
	ts := stats.Table{Title: "Ablation A4: welfare vs egalitarian — satisfaction", XLabel: "budget", XS: o.Budgets}
	algs := []struct {
		name   string
		solver PointSolver
	}{
		{"Optimal", ExactOptimal()},
		{"Egalitarian", EgalitarianPoint()},
	}
	for _, alg := range algs {
		var utility, satisfaction []float64
		for _, b := range o.Budgets {
			world := datasets.NewRNC(o.Seed, datasets.SensorConfig{})
			res := RunPointSim(world, o.QueriesPerSlot, b, 0, alg.solver, o.Slots, o.Seed)
			utility = append(utility, res.AvgUtility)
			satisfaction = append(satisfaction, res.Satisfaction)
		}
		tu.AddSeries(alg.name, utility)
		ts.AddSeries(alg.name, satisfaction)
	}
	return []stats.Table{tu, ts}
}

// Figures is the registry of every reproduced figure and extension
// experiment; cmd/psbench iterates it, and the tiny-scale golden test
// (TestFigureRunsAtTinyScale) runs every entry.
var Figures = []Figure{
	{ID: "fig2", Title: "Single-sensor point queries, RWM (Fig 2)", Run: fig2},
	{ID: "fig3", Title: "Single-sensor point queries, RNC (Fig 3)", Run: fig3},
	{ID: "fig4", Title: "Uniformly distributed budget (Fig 4)", Run: fig4},
	{ID: "fig5", Title: "Varying the number of queries (Fig 5)", Run: fig5},
	{ID: "fig6", Title: "Random PSL and linear energy cost (Fig 6)", Run: fig6},
	{ID: "fig7", Title: "Spatial aggregate queries (Fig 7)", Run: fig7},
	{ID: "fig8", Title: "Location monitoring queries (Fig 8)", Run: fig8},
	{ID: "fig9", Title: "Region monitoring queries (Fig 9)", Run: fig9},
	{ID: "fig10", Title: "Query mix (Fig 10)", Run: fig10},
	{ID: "trust", Title: "Trust sweep (§4.7 text)", Run: trustSweep},
	{ID: "ablation-ls", Title: "Ablation A1: local search variants", Run: ablationLocalSearch},
	{ID: "ablation-weight", Title: "Ablation A2: cost weighting", Run: ablationCostWeighting},
	{ID: "ablation-alpha", Title: "Ablation A3: alpha control", Run: ablationAlpha},
	{ID: "ablation-egalitarian", Title: "Ablation A4: egalitarian objective", Run: ablationEgalitarian},
}

// FigureByID looks a figure up.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}
