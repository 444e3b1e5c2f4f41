package core_test

// The paper's comparators (internal/sim: the exact BILP scheduler, Local
// Search, the baselines, the egalitarian objective and the standalone
// Algorithm 2/3 drivers) checked on their own and against the serving
// greedy of this package.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	. "repro/internal/core"
	"repro/internal/field"
	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/query"
	"repro/internal/regression"
	"repro/internal/rng"
	"repro/internal/sensornet"
	"repro/internal/sim"
)

// The scenario helpers below repeat this package's internal test helpers
// (helpers_test.go, greedy_test.go, monitoring_test.go), which an external
// test package cannot reach; randomScenario only the comparator tests use.

// makeOffers builds stationary sensors at the given positions with the
// experiment-default cost of 10.
func makeOffers(positions ...geo.Point) []Offer {
	offers := make([]Offer, len(positions))
	for i, p := range positions {
		s := sensornet.NewSensor(i, p)
		offers[i] = Offer{Sensor: s, Cost: s.Cost(0)}
	}
	return offers
}

func makePoints(budget, dmax float64, locs ...geo.Point) []*query.Point {
	out := make([]*query.Point, len(locs))
	for i, l := range locs {
		out[i] = query.NewPoint(fmt.Sprintf("q%d", i), l, budget, dmax)
	}
	return out
}

// randomScenario builds a deterministic random point-query instance.
func randomScenario(seed int64, nSensors, nQueries int, budget float64) ([]*query.Point, []Offer) {
	s := rng.New(seed, "core-scenario")
	var positions []geo.Point
	for i := 0; i < nSensors; i++ {
		positions = append(positions, geo.Pt(s.Uniform(0, 30), s.Uniform(0, 30)))
	}
	offers := makeOffers(positions...)
	var locs []geo.Point
	for i := 0; i < nQueries; i++ {
		locs = append(locs, geo.Pt(float64(s.Intn(30)), float64(s.Intn(30))))
	}
	return makePoints(budget, 5, locs...), offers
}

func makeAggregates(grid geo.Grid, budget float64, regions ...geo.Rect) []*query.Aggregate {
	out := make([]*query.Aggregate, len(regions))
	for i, r := range regions {
		out[i] = query.NewAggregate(fmt.Sprintf("agg%d", i), r, budget, 10, grid)
	}
	return out
}

func randomAggScenario(seed int64, nSensors, nQueries int, budget float64) ([]query.Query, []Offer) {
	s := rng.New(seed, "agg-scenario")
	grid := geo.NewUnitGrid(100, 100)
	var positions []geo.Point
	for i := 0; i < nSensors; i++ {
		positions = append(positions, geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)))
	}
	offers := makeOffers(positions...)
	var regions []geo.Rect
	for i := 0; i < nQueries; i++ {
		x, y := s.Uniform(0, 70), s.Uniform(0, 70)
		regions = append(regions, geo.NewRect(x, y, x+s.Uniform(10, 30), y+s.Uniform(10, 30)))
	}
	aggs := makeAggregates(grid, budget, regions...)
	qs := make([]query.Query, len(aggs))
	for i, a := range aggs {
		qs[i] = a
	}
	return qs, offers
}

func history(seed int64, n int) *regression.Series {
	vals := field.DefaultOzone().Generate(n, rng.New(seed, "lm-history"))
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i)
	}
	s, _ := regression.NewSeries(times, vals)
	return s
}

func regModel() *gp.GP {
	return gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
}

// bruteForceWelfare is the optimum of Eq. 12 by enumeration: over every
// subset of the offers, each queried location takes its best sensor's
// summed valuation v_l(s), less the subset's costs.
func bruteForceWelfare(queries []*query.Point, offers []Offer) float64 {
	var locs [][]*query.Point // the queries at each distinct location, first seen first
	at := map[geo.Point]int{}
	for _, q := range queries {
		l, ok := at[q.Loc]
		if !ok {
			l = len(locs)
			at[q.Loc] = l
			locs = append(locs, nil)
		}
		locs[l] = append(locs[l], q)
	}
	best := 0.0
	for mask := 0; mask < 1<<len(offers); mask++ {
		var obj float64
		for _, qs := range locs {
			bv := 0.0
			for i, o := range offers {
				if mask&(1<<i) == 0 {
					continue
				}
				var v float64
				for _, q := range qs {
					v += q.ValueSingle(o.Sensor)
				}
				bv = math.Max(bv, v)
			}
			obj += bv
		}
		for i, o := range offers {
			if mask&(1<<i) != 0 {
				obj -= o.Cost
			}
		}
		best = math.Max(best, obj)
	}
	return best
}

func TestOptimalSharesSensorAcrossQueries(t *testing.T) {
	// Three queries at the same location, budget 7 each: one sensor costs
	// 10 > 7, but 3*7*theta > 10, so the optimal scheduler must open it.
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(7, 5, geo.Pt(0, 0), geo.Pt(0, 0), geo.Pt(0, 0))
	res := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers)
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d sensors, want 1", len(res.Selected))
	}
	if got := len(res.Outcomes); got != 3 {
		t.Fatalf("answered %d queries, want 3", got)
	}
	if res.Welfare() <= 0 {
		t.Errorf("welfare = %v", res.Welfare())
	}
	if !res.Exact {
		t.Error("expected exact solve")
	}
}

func TestBaselineCannotAffordWithoutSharing(t *testing.T) {
	// Same instance: the baseline evaluates queries one by one, each
	// yields value <= 7 < cost 10, so nothing is answered (Fig 2(b)'s
	// budget-7 behaviour).
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(7, 5, geo.Pt(0, 0), geo.Pt(0, 0), geo.Pt(0, 0))
	res := sim.BaselinePoint()(queries, offers)
	if len(res.Outcomes) != 0 || len(res.Selected) != 0 {
		t.Fatalf("baseline answered %d queries, want 0", len(res.Outcomes))
	}
}

func TestBaselineFreeRidesAfterFirstSelection(t *testing.T) {
	// With budget 25, the first query can afford the sensor; the second
	// query at the same location free-rides at zero cost.
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(25, 5, geo.Pt(0, 0), geo.Pt(0, 0))
	res := sim.BaselinePoint()(queries, offers)
	if len(res.Outcomes) != 2 {
		t.Fatalf("answered %d, want 2", len(res.Outcomes))
	}
	if res.TotalCost != 10 {
		t.Errorf("total cost = %v want 10", res.TotalCost)
	}
	paid := 0
	for _, o := range res.Outcomes {
		if o.Payment > 0 {
			paid++
		}
	}
	if paid != 1 {
		t.Errorf("%d queries paid, want exactly 1 (free riding)", paid)
	}
}

func TestPaymentsEq11(t *testing.T) {
	// Eq. 11: payments for a sensor sum to its cost, and each query pays
	// less than its valuation (positive individual utility).
	queries, offers := randomScenario(3, 25, 60, 20)
	for name, solver := range map[string]sim.PointSolver{
		"optimal":     sim.OptimalPoint(sim.OptimalOptions{}),
		"localsearch": sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon),
		"egalitarian": sim.EgalitarianPoint(),
	} {
		res := solver(queries, offers)
		bySensor := make(map[int]float64)
		for qid, o := range res.Outcomes {
			if o.Payment >= o.Value+1e-9 {
				t.Errorf("%s: query %s pays %v >= value %v", name, qid, o.Payment, o.Value)
			}
			if o.Payment < 0 {
				t.Errorf("%s: negative payment %v", name, o.Payment)
			}
			//pslint:ignore floatorder tolerance-compared (1e-6) below; map-order float error is ~1 ulp
			bySensor[o.Sensor.ID] += o.Payment
		}
		costByID := make(map[int]float64)
		for _, o := range offers {
			costByID[o.Sensor.ID] = o.Cost
		}
		for _, s := range res.Selected {
			if math.Abs(bySensor[s.ID]-costByID[s.ID]) > 1e-6 {
				t.Errorf("%s: sensor %d payments %v != cost %v", name, s.ID, bySensor[s.ID], costByID[s.ID])
			}
		}
	}
}

func TestOptimalDominatesOtherSolvers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, budget := range []float64{7, 15, 30} {
			queries, offers := randomScenario(seed, 20, 40, budget)
			opt := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers)
			if !opt.Exact {
				t.Fatalf("seed %d: inexact optimal", seed)
			}
			ls := sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon)(queries, offers)
			base := sim.BaselinePoint()(queries, offers)
			eg := sim.EgalitarianPoint()(queries, offers)
			if opt.Welfare() < ls.Welfare()-1e-6 {
				t.Errorf("seed %d b=%v: optimal %v < local search %v", seed, budget, opt.Welfare(), ls.Welfare())
			}
			if opt.Welfare() < base.Welfare()-1e-6 {
				t.Errorf("seed %d b=%v: optimal %v < baseline %v", seed, budget, opt.Welfare(), base.Welfare())
			}
			if opt.Welfare() < eg.Welfare()-1e-6 {
				t.Errorf("seed %d b=%v: optimal %v < egalitarian %v", seed, budget, opt.Welfare(), eg.Welfare())
			}
			// The 1/3 guarantee (we check the much weaker "nonnegative and
			// at least a third" bound only when optimum is positive).
			if opt.Welfare() > 0 && ls.Welfare() < opt.Welfare()/3-1e-6 {
				t.Errorf("seed %d b=%v: local search %v below 1/3 of optimal %v", seed, budget, ls.Welfare(), opt.Welfare())
			}
		}
	}
}

func TestLocalSearchCloseToOptimal(t *testing.T) {
	// Fig 2(a): "the Local Search algorithm finds solutions close to the
	// optimal ones". Require >= 90% on aggregate across scenarios.
	var sumOpt, sumLS float64
	for seed := int64(10); seed < 20; seed++ {
		queries, offers := randomScenario(seed, 30, 80, 15)
		sumOpt += sim.OptimalPoint(sim.OptimalOptions{})(queries, offers).Welfare()
		sumLS += sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon)(queries, offers).Welfare()
	}
	if sumLS < 0.9*sumOpt {
		t.Errorf("local search welfare %v < 90%% of optimal %v", sumLS, sumOpt)
	}
}

func TestOptimalMatchesBruteForceTiny(t *testing.T) {
	// Exhaustive check on tiny instances: enumerate all sensor subsets.
	for seed := int64(50); seed < 60; seed++ {
		queries, offers := randomScenario(seed, 6, 8, 12)
		opt := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers)

		if best := bruteForceWelfare(queries, offers); math.Abs(opt.Welfare()-best) > 1e-6 {
			t.Errorf("seed %d: optimal %v != brute force %v", seed, opt.Welfare(), best)
		}
	}
}

func TestOptimalWarmStart(t *testing.T) {
	queries, offers := randomScenario(7, 40, 100, 15)
	plain := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers)
	warm := sim.OptimalPoint(sim.OptimalOptions{WarmStartWithLocalSearch: true})(queries, offers)
	if math.Abs(plain.Welfare()-warm.Welfare()) > 1e-6 {
		t.Errorf("warm start changed optimum: %v vs %v", plain.Welfare(), warm.Welfare())
	}
}

func TestEmptyInputs(t *testing.T) {
	solvers := map[string]sim.PointSolver{
		"optimal":     sim.OptimalPoint(sim.OptimalOptions{}),
		"localsearch": sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon),
		"baseline":    sim.BaselinePoint(),
		"egalitarian": sim.EgalitarianPoint(),
		"greedy":      sim.GreedyPoint(),
	}
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(10, 5, geo.Pt(0, 0))
	for name, solver := range solvers {
		if res := solver(nil, offers); len(res.Outcomes) != 0 || res.Welfare() != 0 {
			t.Errorf("%s: non-trivial result on empty queries", name)
		}
		if res := solver(queries, nil); len(res.Outcomes) != 0 || res.Welfare() != 0 {
			t.Errorf("%s: non-trivial result on empty offers", name)
		}
	}
}

func TestRandomizedLocalSearch(t *testing.T) {
	queries, offers := randomScenario(11, 25, 60, 15)
	det := sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon)(queries, offers)
	rnd := sim.RandomizedLocalSearchPoint(sim.DefaultLocalSearchEpsilon, 5, 42)(queries, offers)
	if rnd.Welfare() < 0 {
		t.Errorf("randomized welfare = %v", rnd.Welfare())
	}
	// Both should be in the same ballpark (within 30%).
	if det.Welfare() > 0 && rnd.Welfare() < det.Welfare()*0.7 {
		t.Errorf("randomized %v far below deterministic %v", rnd.Welfare(), det.Welfare())
	}
	// Determinism given the same seed.
	rnd2 := sim.RandomizedLocalSearchPoint(sim.DefaultLocalSearchEpsilon, 5, 42)(queries, offers)
	if math.Abs(rnd.Welfare()-rnd2.Welfare()) > 1e-12 {
		t.Error("randomized local search not reproducible for fixed seed")
	}
}

func TestEgalitarianMaximizesAnswered(t *testing.T) {
	// Scenario where welfare maximization answers fewer queries: sensor A
	// serves one high-value location, sensor B serves many low-value ones.
	offers := makeOffers(geo.Pt(0, 0), geo.Pt(20, 20))
	queries := []*query.Point{
		query.NewPoint("rich", geo.Pt(0, 0), 100, 5),
		query.NewPoint("p1", geo.Pt(20, 20), 4, 5),
		query.NewPoint("p2", geo.Pt(20, 20), 4, 5),
		query.NewPoint("p3", geo.Pt(20, 20), 4, 5),
	}
	eg := sim.EgalitarianPoint()(queries, offers)
	opt := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers)
	if len(eg.Outcomes) < len(opt.Outcomes) {
		t.Errorf("egalitarian answered %d < optimal %d", len(eg.Outcomes), len(opt.Outcomes))
	}
	if eg.Welfare() > opt.Welfare()+1e-9 {
		t.Errorf("egalitarian welfare %v exceeds optimal %v", eg.Welfare(), opt.Welfare())
	}
	// Every answered query keeps positive utility.
	for qid, o := range eg.Outcomes {
		if o.Value-o.Payment <= 0 {
			t.Errorf("query %s has non-positive utility", qid)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	queries, offers := randomScenario(99, 30, 70, 15)
	for name, solver := range map[string]sim.PointSolver{
		"optimal":     sim.OptimalPoint(sim.OptimalOptions{}),
		"localsearch": sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon),
		"baseline":    sim.BaselinePoint(),
	} {
		a := solver(queries, offers)
		b := solver(queries, offers)
		if math.Abs(a.Welfare()-b.Welfare()) > 1e-12 || len(a.Outcomes) != len(b.Outcomes) {
			t.Errorf("%s: non-deterministic result", name)
		}
	}
}

// TestSolversNeverExceedOptimal: on instances small enough for brute
// force, no solver may beat the exhaustive optimum, and sim.OptimalPoint
// must match it exactly.
func TestSolversNeverExceedOptimal(t *testing.T) {
	f := func(seed uint16) bool {
		queries, offers := randomScenario(int64(seed), 7, 10, 14)
		best := bruteForceWelfare(queries, offers)
		opt := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers).Welfare()
		if math.Abs(opt-best) > 1e-6 {
			return false
		}
		for _, solver := range []sim.PointSolver{
			sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon),
			sim.BaselinePoint(),
			sim.EgalitarianPoint(),
			sim.GreedyPoint(),
		} {
			if solver(queries, offers).Welfare() > best+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWelfareNeverNegativeProperty: all solvers may always return the
// empty allocation, so welfare must never be negative.
func TestWelfareNeverNegativeProperty(t *testing.T) {
	solvers := []sim.PointSolver{
		sim.OptimalPoint(sim.OptimalOptions{}),
		sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon),
		sim.BaselinePoint(),
		sim.EgalitarianPoint(),
		sim.GreedyPoint(),
	}
	f := func(seed uint16, nq uint8, budget uint8) bool {
		b := 5 + float64(budget%30)
		queries, offers := randomScenario(int64(seed), 10, int(nq%30)+1, b)
		for _, solver := range solvers {
			if solver(queries, offers).Welfare() < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFleetExhaustionIsHandled: when every sensor's lifetime runs out the
// solvers see empty offer lists and must return empty results gracefully.
func TestFleetExhaustionIsHandled(t *testing.T) {
	offers := makeOffers(geo.Pt(0, 0), geo.Pt(1, 1))
	for _, o := range offers {
		o.Sensor.Lifetime = 1
		o.Sensor.RecordReading(0) // exhausted
	}
	// The fleet would filter these out; simulate the resulting empty slot.
	queries := makePoints(20, 5, geo.Pt(0, 0))
	res := sim.OptimalPoint(sim.OptimalOptions{})(queries, nil)
	if res.Welfare() != 0 || len(res.Outcomes) != 0 {
		t.Error("empty-offer slot should be a clean no-op")
	}
}

// TestMonitoringSurvivesSensorDesert: continuous queries must keep valid
// state when no sensor is ever in range.
func TestMonitoringSurvivesSensorDesert(t *testing.T) {
	h := history(42, 50)
	lm := query.NewLocationMonitoring("lm", geo.Pt(5, 5), 0, 10, 100, 2, h, 3)
	// All sensors far away.
	offers := makeOffers(geo.Pt(900, 900))
	for slot := 0; slot <= 10; slot++ {
		res := sim.RunLocationMonitoringSlot(slot, []*query.LocationMonitoring{lm}, offers, sim.OptimalPoint(sim.OptimalOptions{}))
		if res.Welfare() != 0 {
			t.Fatalf("slot %d: welfare %v in a sensor desert", slot, res.Welfare())
		}
	}
	if len(lm.Sampled) != 0 || lm.Value() != 0 || lm.Quality() != 0 {
		t.Errorf("desert query state: sampled=%d value=%v", len(lm.Sampled), lm.Value())
	}

	grid := geo.NewUnitGrid(20, 15)
	rm := query.NewRegionMonitoring("rm", geo.NewRect(2, 2, 10, 8), 0, 10, 50, regModel(), grid)
	for slot := 0; slot <= 10; slot++ {
		sim.RunRegionMonitoringSlot(slot, []*query.RegionMonitoring{rm}, offers, sim.RegMonOptions{Solver: sim.OptimalPoint(sim.OptimalOptions{})})
	}
	if len(rm.ObsPoints) != 0 || rm.Spent != 0 {
		t.Error("region query accumulated phantom observations")
	}
}

// TestMidRunLifetimeExhaustion: sensors dying mid-simulation must simply
// drop out of later offers; the algorithms keep working with survivors.
func TestMidRunLifetimeExhaustion(t *testing.T) {
	queries, offers := randomScenario(3, 10, 30, 25)
	for _, o := range offers {
		o.Sensor.Lifetime = 2
	}
	solver := sim.OptimalPoint(sim.OptimalOptions{})
	aliveOffers := func() []Offer {
		var out []Offer
		for _, o := range offers {
			if o.Sensor.Alive() {
				out = append(out, o)
			}
		}
		return out
	}
	for slot := 0; slot < 6; slot++ {
		res := solver(queries, aliveOffers())
		for _, s := range res.Selected {
			s.RecordReading(slot)
		}
		if res.Welfare() < 0 {
			t.Fatalf("slot %d: negative welfare", slot)
		}
	}
	// After enough slots every used sensor must be dead or never selected.
	res := solver(queries, aliveOffers())
	for _, s := range res.Selected {
		if !s.Alive() {
			t.Error("dead sensor offered and selected")
		}
	}
}

// TestZeroBudgetQueries: budget-zero queries are never answered and never
// crash any solver.
func TestZeroBudgetQueries(t *testing.T) {
	offers := makeOffers(geo.Pt(0, 0))
	queries := makePoints(0, 5, geo.Pt(0, 0), geo.Pt(1, 1))
	for _, solver := range []sim.PointSolver{
		sim.OptimalPoint(sim.OptimalOptions{}), sim.LocalSearchPoint(0.01), sim.BaselinePoint(), sim.EgalitarianPoint(),
	} {
		res := solver(queries, offers)
		if len(res.Outcomes) != 0 {
			t.Error("zero-budget query answered")
		}
	}
}

// TestNaNResistance: degenerate sensor parameters (zero trust, max
// inaccuracy) must never produce NaN valuations or payments.
func TestNaNResistance(t *testing.T) {
	s1 := sensornet.NewSensor(0, geo.Pt(0, 0))
	s1.Trust = 0
	s2 := sensornet.NewSensor(1, geo.Pt(0.5, 0))
	s2.Inaccuracy = 1
	offers := []Offer{{Sensor: s1, Cost: 10}, {Sensor: s2, Cost: 10}}
	queries := makePoints(50, 5, geo.Pt(0, 0))
	for _, solver := range []sim.PointSolver{sim.OptimalPoint(sim.OptimalOptions{}), sim.LocalSearchPoint(0.01), sim.BaselinePoint()} {
		res := solver(queries, offers)
		if math.IsNaN(res.Welfare()) {
			t.Error("NaN welfare from degenerate sensors")
		}
		for _, o := range res.Outcomes {
			if math.IsNaN(o.Payment) || math.IsNaN(o.Value) {
				t.Error("NaN outcome")
			}
		}
	}
}

func TestGreedyBeatsBaselineOnSharedRegions(t *testing.T) {
	// Overlapping regions let the greedy share sensors; sequential
	// baseline buys per query. Greedy welfare must dominate on aggregate.
	var sumG, sumB float64
	for seed := int64(20); seed < 30; seed++ {
		qs, offers := randomAggScenario(seed, 30, 10, 60)
		sumG += GreedySelect(qs, offers).Welfare()
		sumB += sim.BaselineMultiSelect(qs, offers).Welfare()
	}
	if sumG <= sumB {
		t.Errorf("greedy total welfare %v <= baseline %v", sumG, sumB)
	}
}

func TestGreedyPointAdapter(t *testing.T) {
	queries, offers := randomScenario(5, 20, 40, 15)
	res := sim.GreedyPoint()(queries, offers)
	for qid, o := range res.Outcomes {
		if o.Value <= 0 {
			t.Errorf("outcome %s has value %v", qid, o.Value)
		}
		if o.Sensor == nil {
			t.Errorf("outcome %s missing sensor", qid)
		}
	}
	// Welfare should be positive and within range of optimal.
	opt := sim.OptimalPoint(sim.OptimalOptions{})(queries, offers)
	if res.Welfare() > opt.Welfare()+1e-9 {
		t.Errorf("greedy point %v exceeds optimal %v", res.Welfare(), opt.Welfare())
	}

	// Sensor 0 commits first for the two queries on it and serves "q"
	// at theta 0.4; sensor 1 then lifts "q" to 0.8 and serves "b". "q"
	// pays both commits: its outcome names the better sensor and the
	// total payment, not that sensor's share alone.
	offers = makeOffers(geo.Pt(0, 0), geo.Pt(4, 0))
	queries = []*query.Point{
		query.NewPoint("a0", geo.Pt(0, 0), 30, 5),
		query.NewPoint("a1", geo.Pt(0, 0), 30, 5),
		query.NewPoint("q", geo.Pt(3, 0), 30, 5),
		query.NewPoint("b", geo.Pt(4, 0), 15, 5),
	}
	res = sim.GreedyPoint()(queries, offers)
	multi := GreedySelect([]query.Query{queries[0], queries[1], queries[2], queries[3]}, offers)
	paid := multi.Outcomes[2].Payments // "q"
	if len(res.Selected) != 2 || len(paid) != 2 {
		t.Fatalf("selected %d sensors, q paid %v: want both sensors paid by q", len(res.Selected), paid)
	}
	q := res.Outcomes["q"]
	if q.Sensor.ID != 1 || q.Payment != paid[0].Amount+paid[1].Amount {
		t.Errorf("q outcome = sensor %d paying %v; want sensor 1 paying %v + %v",
			q.Sensor.ID, q.Payment, paid[0].Amount, paid[1].Amount)
	}
	if v := res.Stats.ConservationViolations; v != 0 {
		t.Errorf("%d conservation violations", v)
	}
}

func TestBaselineMultiSelectPayments(t *testing.T) {
	qs, offers := randomAggScenario(8, 20, 6, 80)
	res := sim.BaselineMultiSelect(qs, offers)
	// Sum of all payments equals total cost (first query pays, rest free).
	var paid float64
	for _, out := range res.Outcomes {
		paid += out.TotalPayment()
	}
	if math.Abs(paid-res.TotalCost) > 1e-6 {
		t.Errorf("payments %v != total cost %v", paid, res.TotalCost)
	}
}

func TestRunLocationMonitoringSlotLifecycle(t *testing.T) {
	h := history(1, 50)
	q := query.NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 20, 150, 10, h, 6)
	offers := makeOffers(geo.Pt(5, 5), geo.Pt(8, 8))
	solver := sim.OptimalPoint(sim.OptimalOptions{})

	var welfare float64
	for slot := 0; slot <= 20; slot++ {
		res := sim.RunLocationMonitoringSlot(slot, []*query.LocationMonitoring{q}, offers, solver)
		welfare += res.Welfare()
	}
	if len(q.Sampled) == 0 {
		t.Fatal("no samples taken over the query lifetime")
	}
	if q.Value() <= 0 {
		t.Error("query ended with zero value")
	}
	// Conservation: total welfare = final value - total sensor costs; with
	// value>0 and enough budget welfare should exceed the no-op 0 here.
	if welfare <= 0 {
		t.Errorf("total welfare = %v", welfare)
	}
}

func TestLocMonInactiveQueriesIgnored(t *testing.T) {
	h := history(2, 50)
	q := query.NewLocationMonitoring("lm1", geo.Pt(5, 5), 10, 20, 100, 10, h, 4)
	offers := makeOffers(geo.Pt(5, 5))
	res := sim.RunLocationMonitoringSlot(0, []*query.LocationMonitoring{q}, offers, sim.BaselinePoint())
	if res.Issued != 0 {
		t.Errorf("inactive query issued %d point queries", res.Issued)
	}
}

func TestLocMonAlg2BeatsBaseline(t *testing.T) {
	// Aggregate over several queries/seeds: Algorithm 2 with the optimal
	// point solver must achieve at least the baseline's welfare (Fig 8).
	var alg2Total, baseTotal float64
	for seed := int64(1); seed <= 5; seed++ {
		mk := func() []*query.LocationMonitoring {
			var qs []*query.LocationMonitoring
			for i := 0; i < 5; i++ {
				h := history(seed*10+int64(i), 50)
				qs = append(qs, query.NewLocationMonitoring(
					fmt.Sprintf("lm%d", i), geo.Pt(float64(2+i*2), 5), 0, 30, 200, 10, h, 8))
			}
			return qs
		}
		offerPos := []geo.Point{geo.Pt(3, 5), geo.Pt(6, 5), geo.Pt(9, 5)}

		qsA := mk()
		offersA := makeOffers(offerPos...)
		for slot := 0; slot <= 30; slot++ {
			alg2Total += sim.RunLocationMonitoringSlot(slot, qsA, offersA, sim.OptimalPoint(sim.OptimalOptions{})).Welfare()
		}
		qsB := mk()
		offersB := makeOffers(offerPos...)
		for slot := 0; slot <= 30; slot++ {
			baseTotal += sim.RunLocationMonitoringSlotBaseline(slot, qsB, offersB).Welfare()
		}
	}
	if alg2Total < baseTotal-1e-6 {
		t.Errorf("Algorithm 2 welfare %v < baseline %v", alg2Total, baseTotal)
	}
}

func TestRunRegionMonitoringSlotRecordsObservations(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	q := query.NewRegionMonitoring("rm1", geo.NewRect(2, 2, 12, 10), 0, 15, 120, regModel(), grid)
	offers := makeOffers(geo.Pt(4, 4), geo.Pt(8, 6), geo.Pt(10, 8), geo.Pt(18, 14))
	res := sim.RunRegionMonitoringSlot(0, []*query.RegionMonitoring{q}, offers,
		sim.RegMonOptions{Solver: sim.OptimalPoint(sim.OptimalOptions{}), CostWeighting: true, ShareSensors: true})
	if res.Issued == 0 {
		t.Fatal("no point queries issued for a budgeted region query")
	}
	if len(q.ObsPoints) == 0 {
		t.Fatal("no observations recorded")
	}
	if q.Value() <= 0 {
		t.Error("query value should be positive after observations")
	}
	// Out-of-region sensor (18,14) must never be planned.
	for _, p := range q.ObsPoints {
		if !q.Region.Contains(p) {
			t.Errorf("observation outside region: %v", p)
		}
	}
	if res.ValueGained <= 0 {
		t.Error("value gained should be positive")
	}
}

func TestRegMonBudgetRespected(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	q := query.NewRegionMonitoring("rm1", geo.NewRect(2, 2, 12, 10), 0, 10, 15, regModel(), grid)
	offers := makeOffers(geo.Pt(4, 4), geo.Pt(8, 6), geo.Pt(10, 8), geo.Pt(5, 9), geo.Pt(11, 3))
	for slot := 0; slot <= 10; slot++ {
		sim.RunRegionMonitoringSlot(slot, []*query.RegionMonitoring{q}, offers,
			sim.RegMonOptions{Solver: sim.OptimalPoint(sim.OptimalOptions{})})
	}
	// Planned spending is bounded by the budget (payments can be below
	// announced costs, so Spent <= B is the invariant).
	if q.Spent > q.B+1e-6 {
		t.Errorf("query spent %v over budget %v", q.Spent, q.B)
	}
}

func TestRegMonSharingIncreasesValue(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	mk := func() []*query.RegionMonitoring {
		return []*query.RegionMonitoring{
			query.NewRegionMonitoring("rm1", geo.NewRect(2, 2, 12, 10), 0, 20, 60, regModel(), grid),
			query.NewRegionMonitoring("rm2", geo.NewRect(6, 4, 16, 12), 0, 20, 60, regModel(), grid),
		}
	}
	offerPos := []geo.Point{geo.Pt(7, 6), geo.Pt(9, 8), geo.Pt(4, 4), geo.Pt(14, 11), geo.Pt(11, 5)}

	qsShared := mk()
	var sharedVal float64
	offersA := makeOffers(offerPos...)
	for slot := 0; slot <= 20; slot++ {
		sim.RunRegionMonitoringSlot(slot, qsShared, offersA,
			sim.RegMonOptions{Solver: sim.OptimalPoint(sim.OptimalOptions{}), CostWeighting: true, ShareSensors: true})
	}
	for _, q := range qsShared {
		sharedVal += q.Value()
	}

	qsPlain := mk()
	var plainVal float64
	offersB := makeOffers(offerPos...)
	for slot := 0; slot <= 20; slot++ {
		sim.RunRegionMonitoringSlotBaseline(slot, qsPlain, offersB)
	}
	for _, q := range qsPlain {
		plainVal += q.Value()
	}
	if sharedVal < plainVal-1e-6 {
		t.Errorf("sharing value %v < baseline %v", sharedVal, plainVal)
	}
}

func TestRunMixSlotBeatsBaselineAggregate(t *testing.T) {
	grid := geo.NewUnitGrid(100, 100)
	s := rng.New(4, "mix-scenario")
	var algTotal, baseTotal float64
	for trial := 0; trial < 5; trial++ {
		build := func() (MixQueries, []Offer) {
			var positions []geo.Point
			for i := 0; i < 25; i++ {
				positions = append(positions, geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)))
			}
			var regions []geo.Rect
			for i := 0; i < 4; i++ {
				x, y := s.Uniform(0, 60), s.Uniform(0, 60)
				regions = append(regions, geo.NewRect(x, y, x+25, y+25))
			}
			var locs []geo.Point
			for i := 0; i < 30; i++ {
				locs = append(locs, geo.Pt(float64(s.Intn(100)), float64(s.Intn(100))))
			}
			return MixQueries{
				Aggregates: makeAggregates(grid, 80, regions...),
				Points:     makePoints(15, 10, locs...),
			}, makeOffers(positions...)
		}
		qA, oA := build()
		algTotal += RunMixSlot(0, qA, oA).Welfare()
		baseTotal += sim.RunMixSlotBaseline(0, qA, oA).Welfare()
		_ = oA
	}
	if algTotal <= baseTotal {
		t.Errorf("Algorithm 5 welfare %v <= baseline %v", algTotal, baseTotal)
	}
}

func TestRegMonSlotWelfareAccessor(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	q := query.NewRegionMonitoring("rm", geo.NewRect(2, 2, 10, 8), 0, 10, 60, regModel(), grid)
	offers := makeOffers(geo.Pt(5, 5), geo.Pt(8, 6))
	res := sim.RunRegionMonitoringSlot(0, []*query.RegionMonitoring{q}, offers,
		sim.RegMonOptions{Solver: sim.OptimalPoint(sim.OptimalOptions{})})
	if got := res.Welfare(); got != res.ValueGained-res.Point.TotalCost {
		t.Errorf("Welfare accessor inconsistent: %v", got)
	}
}

func TestMixBaselineWithLocMonAndExtra(t *testing.T) {
	grid := geo.NewUnitGrid(100, 100)
	h := history(21, 50)
	lm := query.NewLocationMonitoring("lm-b", geo.Pt(25, 25), 0, 10, 150, 10, h, 3)
	traj := query.NewTrajectory("tr-b", geo.Trajectory{Waypoints: []geo.Point{geo.Pt(10, 25), geo.Pt(40, 25)}}, 80, 10)
	mq := MixQueries{
		Aggregates: makeAggregates(grid, 100, geo.NewRect(10, 10, 40, 40)),
		Points:     makePoints(20, 5, geo.Pt(25, 25)),
		LocMon:     []*query.LocationMonitoring{lm},
		Extra:      []query.Query{traj},
	}
	offers := makeOffers(geo.Pt(25, 25), geo.Pt(15, 25), geo.Pt(35, 25))
	var welfare float64
	for slot := 0; slot <= 10; slot++ {
		res := sim.RunMixSlotBaseline(slot, mq, offers)
		welfare += res.Welfare()
		if res.ExtraValue < 0 {
			t.Fatal("negative extra value")
		}
	}
	if welfare <= 0 {
		t.Errorf("baseline mix welfare = %v", welfare)
	}
	if len(lm.Sampled) == 0 {
		t.Error("baseline mix never sampled the locmon query at desired times")
	}
}

func TestMixEmptySlot(t *testing.T) {
	res := RunMixSlot(0, MixQueries{}, makeOffers(geo.Pt(1, 1)))
	if res.Welfare() != 0 {
		t.Errorf("empty mix welfare = %v", res.Welfare())
	}
	resB := sim.RunMixSlotBaseline(0, MixQueries{}, makeOffers(geo.Pt(1, 1)))
	if resB.Welfare() != 0 {
		t.Errorf("empty baseline mix welfare = %v", resB.Welfare())
	}
}
