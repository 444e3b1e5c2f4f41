package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// TestUtilityEq12Submodular verifies the claim of §3.1.2 that
// u(S') = sum_l max_{s in S'} v_l(s) - sum costs is submodular: for random
// instances and random A ⊆ B and x ∉ B,
// u(A ∪ {x}) - u(A) >= u(B ∪ {x}) - u(B).
func TestUtilityEq12Submodular(t *testing.T) {
	f := func(seed uint32, mask uint16, pick uint8) bool {
		queries, offers := randomScenario(int64(seed%1000), 12, 20, 15)
		inst := newLSInstance(queries, offers)
		n := len(offers)
		x := int(pick) % n
		inB := make([]bool, n)
		inA := make([]bool, n)
		for i := 0; i < n; i++ {
			if i == x {
				continue
			}
			if mask&(1<<(uint(i)%16)) != 0 {
				inB[i] = true
				// A is a sub-sample of B.
				if i%2 == 0 {
					inA[i] = true
				}
			}
		}
		uA := inst.utility(inA)
		uB := inst.utility(inB)
		inA[x] = true
		inB[x] = true
		gainA := inst.utility(inA) - uA
		gainB := inst.utility(inB) - uB
		return gainA >= gainB-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestSolversNeverExceedOptimal: on instances small enough for brute
// force, no solver may beat the exhaustive optimum, and OptimalPoint must
// match it exactly.
func TestSolversNeverExceedOptimal(t *testing.T) {
	f := func(seed uint16) bool {
		queries, offers := randomScenario(int64(seed), 7, 10, 14)
		groups := groupByLocation(queries)
		best := 0.0
		for mask := 0; mask < 1<<len(offers); mask++ {
			var obj float64
			for l := range groups {
				bv := 0.0
				for i, o := range offers {
					if mask&(1<<i) != 0 {
						if v := groups[l].groupValue(o.Sensor); v > bv {
							bv = v
						}
					}
				}
				obj += bv
			}
			for i, o := range offers {
				if mask&(1<<i) != 0 {
					obj -= o.Cost
				}
			}
			if obj > best {
				best = obj
			}
		}
		opt := OptimalPoint(OptimalOptions{})(queries, offers).Welfare()
		if math.Abs(opt-best) > 1e-6 {
			return false
		}
		for _, solver := range []PointSolver{
			LocalSearchPoint(DefaultLocalSearchEpsilon),
			BaselinePoint(),
			EgalitarianPoint(),
			GreedyPoint(),
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

// TestGreedyBudgetBalanceProperty: for random mixed workloads, every
// selected sensor's payments sum to its cost and every query's payment
// stays below its value.
func TestGreedyBudgetBalanceProperty(t *testing.T) {
	grid := geo.NewUnitGrid(60, 60)
	f := func(seed uint16) bool {
		s := rng.New(int64(seed), "prop-mix")
		var offers []Offer
		for i := 0; i < 15; i++ {
			sensor := sensornet.NewSensor(i, geo.Pt(s.Uniform(0, 60), s.Uniform(0, 60)))
			offers = append(offers, Offer{Sensor: sensor, Cost: sensor.Cost(0)})
		}
		var qs []query.Query
		for i := 0; i < 4; i++ {
			x, y := s.Uniform(0, 40), s.Uniform(0, 40)
			qs = append(qs, query.NewAggregate(qid("agg", i), geo.NewRect(x, y, x+15, y+15), s.Uniform(50, 200), 10, grid))
		}
		for i := 0; i < 8; i++ {
			qs = append(qs, query.NewPoint(qid("pt", i), geo.Pt(s.Uniform(0, 60), s.Uniform(0, 60)), s.Uniform(8, 30), 8))
		}
		res := GreedySelect(qs, offers)

		paid := map[int]float64{}
		for i := range qs {
			out := &res.Outcomes[i]
			if out.Value < out.TotalPayment()-1e-9 {
				return false
			}
			for _, p := range out.Payments {
				if p.Amount < -1e-12 {
					return false
				}
				paid[p.SensorID] += p.Amount
			}
		}
		for _, sel := range res.Selected {
			if math.Abs(paid[sel.ID]-10) > 1e-6 { // cost is 10 for default sensors
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func qid(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}

// TestWelfareNeverNegativeProperty: all solvers may always return the
// empty allocation, so welfare must never be negative.
func TestWelfareNeverNegativeProperty(t *testing.T) {
	solvers := []PointSolver{
		OptimalPoint(OptimalOptions{}),
		LocalSearchPoint(DefaultLocalSearchEpsilon),
		BaselinePoint(),
		EgalitarianPoint(),
		GreedyPoint(),
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

// --- failure injection ----------------------------------------------------

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
	res := OptimalPoint(OptimalOptions{})(queries, nil)
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
		res := RunLocationMonitoringSlot(slot, []*query.LocationMonitoring{lm}, offers, OptimalPoint(OptimalOptions{}))
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
		RunRegionMonitoringSlot(slot, []*query.RegionMonitoring{rm}, offers, RegMonOptions{Solver: OptimalPoint(OptimalOptions{})})
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
	solver := OptimalPoint(OptimalOptions{})
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
	for _, solver := range []PointSolver{
		OptimalPoint(OptimalOptions{}), LocalSearchPoint(0.01), BaselinePoint(), EgalitarianPoint(),
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
	for _, solver := range []PointSolver{OptimalPoint(OptimalOptions{}), LocalSearchPoint(0.01), BaselinePoint()} {
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
