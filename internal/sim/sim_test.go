package sim

import (
	"flag"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Reduced-scale parameters keep the test suite fast while preserving the
// paper's qualitative relationships.
const testSlots = 12

func TestPointWorkloadDeterministicAndInRegion(t *testing.T) {
	w := datasets.NewRWM(1, 50, datasets.SensorConfig{})
	wl := &PointWorkload{QueriesPerSlot: 40, BudgetMean: 15, DMax: w.DMax, Working: w.Working, Grid: w.Grid}
	a := wl.Slot(0, rng.New(9, "wl"))
	b := wl.Slot(0, rng.New(9, "wl"))
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Loc != b[i].Loc || a[i].B != b[i].B {
			t.Fatal("workload not deterministic")
		}
		if !w.Working.Contains(a[i].Loc) {
			t.Fatalf("query outside working region: %v", a[i].Loc)
		}
		if a[i].B != 15 {
			t.Fatalf("fixed budget broken: %v", a[i].B)
		}
	}
}

func TestPointWorkloadJitter(t *testing.T) {
	w := datasets.NewRWM(1, 10, datasets.SensorConfig{})
	wl := &PointWorkload{QueriesPerSlot: 200, BudgetMean: 15, BudgetJitter: 10, DMax: w.DMax, Working: w.Working, Grid: w.Grid}
	qs := wl.Slot(0, rng.New(3, "wl"))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, q := range qs {
		lo = math.Min(lo, q.B)
		hi = math.Max(hi, q.B)
	}
	if lo < 5 || hi > 25 {
		t.Errorf("budgets outside [5,25]: [%v,%v]", lo, hi)
	}
	if hi-lo < 10 {
		t.Errorf("budget spread too small: [%v,%v]", lo, hi)
	}
}

func TestAggregateWorkloadBudgets(t *testing.T) {
	w := datasets.NewRNC(1, datasets.SensorConfig{})
	wl := &AggregateWorkload{
		MeanQueries: 30, BudgetFactor: 15, SensingRange: 10, RS: 10,
		Working: w.Working, Grid: w.Grid, MinDim: 10, MaxDim: 40,
	}
	qs := wl.Slot(0, rng.New(5, "wl"))
	if len(qs) < 15 || len(qs) > 45 {
		t.Errorf("query count %d outside [15,45]", len(qs))
	}
	for _, q := range qs {
		want := q.Region.Area() / (1.5 * 10) * 15
		if math.Abs(q.B-want) > 1e-9 {
			t.Fatalf("budget %v != A/(1.5 rs)*b = %v", q.B, want)
		}
		if q.Region.Width() > 40+1e-9 || q.Region.Height() > 40+1e-9 {
			t.Fatalf("region too large: %v", q.Region)
		}
	}
}

func TestLocMonWorkloadCapsActive(t *testing.T) {
	w := datasets.NewRNC(1, datasets.SensorConfig{})
	wl := &LocMonWorkload{
		MaxActive: 10, ArrivalsMin: 8, ArrivalsMax: 8, BudgetFactor: 15,
		DMax: w.DMax, Working: w.Working, Grid: w.Grid, Slots: 50, World: w,
	}
	rnd := rng.New(7, "wl")
	active := 0
	for t2 := 0; t2 < 5; t2++ {
		got := wl.Spawn(t2, active, rnd)
		active += len(got)
		if active >= 10 {
			t.Fatalf("active %d reached cap", active)
		}
	}
}

func TestRunPointSimOrderingHolds(t *testing.T) {
	// The paper's central claim at reduced scale: Optimal >= LocalSearch
	// >> Baseline in utility; baseline answers nothing at budget 7.
	mk := func() *datasets.World { return datasets.NewRWM(2, 200, datasets.SensorConfig{}) }
	const q = 300
	opt7 := RunPointSim(mk(), q, 7, 0, ExactOptimal(), testSlots, 2)
	ls7 := RunPointSim(mk(), q, 7, 0, LocalSearchPoint(DefaultLocalSearchEpsilon), testSlots, 2)
	base7 := RunPointSim(mk(), q, 7, 0, BaselinePoint(), testSlots, 2)

	if base7.Satisfaction != 0 {
		t.Errorf("baseline at budget 7 answered %.2f of queries, want 0", base7.Satisfaction)
	}
	if opt7.Satisfaction < 0.3 {
		t.Errorf("optimal at budget 7 answered only %.2f", opt7.Satisfaction)
	}
	if opt7.AvgUtility < ls7.AvgUtility-1e-6 {
		t.Errorf("optimal %v below local search %v", opt7.AvgUtility, ls7.AvgUtility)
	}
	if ls7.AvgUtility <= base7.AvgUtility {
		t.Errorf("local search %v not above baseline %v", ls7.AvgUtility, base7.AvgUtility)
	}
}

func TestRunPointSimUtilityGrowsWithBudget(t *testing.T) {
	mk := func() *datasets.World { return datasets.NewRWM(3, 120, datasets.SensorConfig{}) }
	low := RunPointSim(mk(), 120, 10, 0, ExactOptimal(), testSlots, 3)
	high := RunPointSim(mk(), 120, 30, 0, ExactOptimal(), testSlots, 3)
	if high.AvgUtility <= low.AvgUtility {
		t.Errorf("utility did not grow with budget: %v -> %v", low.AvgUtility, high.AvgUtility)
	}
	if high.Satisfaction < low.Satisfaction-0.02 {
		t.Errorf("satisfaction dropped with budget: %v -> %v", low.Satisfaction, high.Satisfaction)
	}
}

func TestRunPointSimPrivacyCostLowersUtility(t *testing.T) {
	// Fig 6 versus Fig 3: privacy-sensitive sensors with linear energy
	// cost yield less utility than free sensors.
	plain := RunPointSim(datasets.NewRWM(4, 120, datasets.SensorConfig{}),
		120, 15, 0, ExactOptimal(), testSlots, 4)
	costly := RunPointSim(datasets.NewRWM(4, 120, datasets.SensorConfig{RandomPSL: true, LinearEnergy: true}),
		120, 15, 0, ExactOptimal(), testSlots, 4)
	if costly.AvgUtility >= plain.AvgUtility {
		t.Errorf("privacy+energy costs did not lower utility: %v >= %v", costly.AvgUtility, plain.AvgUtility)
	}
}

func TestRunAggregateSimGreedyBeatsBaseline(t *testing.T) {
	g := RunAggregateSim(datasets.NewRNC(5, datasets.SensorConfig{}), 15, true, testSlots, 5)
	b := RunAggregateSim(datasets.NewRNC(5, datasets.SensorConfig{}), 15, false, testSlots, 5)
	if g.AvgUtility <= b.AvgUtility {
		t.Errorf("greedy %v not above baseline %v", g.AvgUtility, b.AvgUtility)
	}
	if g.AvgQuality <= 0 || g.AvgQuality > 1.2 {
		t.Errorf("greedy quality = %v", g.AvgQuality)
	}
}

func TestRunLocMonSimOrdering(t *testing.T) {
	o := RunLocMonSim(datasets.NewRNC(6, datasets.SensorConfig{}), 15, LocMonOptimal, testSlots, 6, 0.5)
	b := RunLocMonSim(datasets.NewRNC(6, datasets.SensorConfig{}), 15, LocMonBaseline, testSlots, 6, 0.5)
	if o.AvgUtility < b.AvgUtility {
		t.Errorf("Alg2-O %v below baseline %v", o.AvgUtility, b.AvgUtility)
	}
	if o.AvgQuality <= 0 {
		t.Error("Alg2-O quality should be positive")
	}
}

func TestRunRegMonSimOrdering(t *testing.T) {
	a := RunRegMonSim(datasets.NewIntelLab(7, datasets.SensorConfig{}), 15, true, true, testSlots, 7)
	b := RunRegMonSim(datasets.NewIntelLab(7, datasets.SensorConfig{}), 15, false, true, testSlots, 7)
	if a.AvgUtility < b.AvgUtility-1e-9 {
		t.Errorf("Alg3 %v below baseline %v", a.AvgUtility, b.AvgUtility)
	}
	if a.AvgQuality <= 0 {
		t.Error("Alg3 quality should be positive")
	}
}

func TestRunMixSimOrdering(t *testing.T) {
	cfg := datasets.SensorConfig{Lifetime: 25, RandomPSL: true, LinearEnergy: true}
	a := RunMixSim(datasets.NewRNC(8, cfg), 10, true, testSlots, 8)
	b := RunMixSim(datasets.NewRNC(8, cfg), 10, false, testSlots, 8)
	if a.AvgUtility <= b.AvgUtility {
		t.Errorf("Alg5 %v not above baseline %v", a.AvgUtility, b.AvgUtility)
	}
	if a.PointQuality <= 0 || a.AggQuality <= 0 {
		t.Errorf("mix qualities: point=%v agg=%v", a.PointQuality, a.AggQuality)
	}
}

func TestRunPointSimReproducible(t *testing.T) {
	a := RunPointSim(datasets.NewRWM(9, 80, datasets.SensorConfig{}), 80, 15, 0, ExactOptimal(), testSlots, 9)
	b := RunPointSim(datasets.NewRWM(9, 80, datasets.SensorConfig{}), 80, 15, 0, ExactOptimal(), testSlots, 9)
	if a.AvgUtility != b.AvgUtility || a.Satisfaction != b.Satisfaction {
		t.Error("same-seed runs differ")
	}
}

func TestFigureRegistry(t *testing.T) {
	if len(Figures) != 14 {
		t.Errorf("expected 14 registered figures, got %d", len(Figures))
	}
	seen := map[string]bool{}
	for _, f := range Figures {
		if f.ID == "" || f.Title == "" || f.Run == nil {
			t.Errorf("malformed figure %+v", f)
		}
		if seen[f.ID] {
			t.Errorf("duplicate figure id %s", f.ID)
		}
		seen[f.ID] = true
	}
	if _, ok := FigureByID("fig2"); !ok {
		t.Error("fig2 not found")
	}
	if _, ok := FigureByID("nope"); ok {
		t.Error("bogus id found")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/figures_tiny.golden.csv from this run")

const figuresGolden = "testdata/figures_tiny.golden.csv"

// checkFigureGolden compares one figure's tables, as CSV, with its section
// of figuresGolden, or with -update writes that section. A section starts
// with a "== <figure ID>" line; the file lists the sections in registry
// order.
func checkFigureGolden(t *testing.T, id string, tables []stats.Table) {
	t.Helper()
	var got strings.Builder
	for _, tab := range tables {
		got.WriteString(tab.CSV())
	}
	sections := map[string]string{}
	if data, err := os.ReadFile(figuresGolden); err == nil {
		for _, sec := range strings.Split(string(data), "== ")[1:] {
			head, body, _ := strings.Cut(sec, "\n")
			sections[head] = body
		}
	} else if !*update {
		t.Fatal(err)
	}
	if !*update {
		if want, ok := sections[id]; !ok {
			t.Errorf("%s has no %s section (run with -update)", figuresGolden, id)
		} else if got.String() != want {
			t.Errorf("%s tables differ from %s:\n--- got\n%s--- want\n%s", id, figuresGolden, got.String(), want)
		}
		return
	}
	sections[id] = got.String()
	var out strings.Builder
	for _, f := range Figures {
		if body, ok := sections[f.ID]; ok {
			out.WriteString("== " + f.ID + "\n" + body)
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(figuresGolden, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFigureRunsAtTinyScale(t *testing.T) {
	// Every registered figure must run end to end at tiny scale, emit
	// well-formed tables, and reproduce its golden CSV bit for bit.
	opts := Options{Slots: 3, Seed: 1, Budgets: []float64{10, 15}, QueriesPerSlot: 40}
	for _, f := range Figures {
		if f.ID == "fig5" {
			// fig5's x-axis is a query count, not a budget.
			continue
		}
		tables := f.Run(opts)
		checkFigureGolden(t, f.ID, tables)
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", f.ID)
			continue
		}
		for _, tab := range tables {
			if len(tab.XS) != 2 {
				t.Errorf("%s table %q has %d x-values, want 2", f.ID, tab.Title, len(tab.XS))
			}
			if len(tab.Series) == 0 {
				t.Errorf("%s table %q has no series", f.ID, tab.Title)
			}
			for _, s := range tab.Series {
				if len(s.Values) != len(tab.XS) {
					t.Errorf("%s series %q length mismatch", f.ID, s.Name)
				}
				for _, v := range s.Values {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s series %q has non-finite value", f.ID, s.Name)
					}
				}
			}
			if out := tab.Render(); len(out) == 0 {
				t.Errorf("%s table render empty", f.ID)
			}
		}
	}
}

func TestFig5TinyScale(t *testing.T) {
	tables := fig5(Options{Slots: 2, Seed: 1, Budgets: []float64{30, 60}})
	if len(tables) != 2 {
		t.Fatalf("fig5 tables = %d", len(tables))
	}
	checkFigureGolden(t, "fig5", tables)
	for _, tab := range tables {
		if len(tab.Series) != 3 {
			t.Errorf("fig5 table %q series = %d want 3", tab.Title, len(tab.Series))
		}
	}
}
