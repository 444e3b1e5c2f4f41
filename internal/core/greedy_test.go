package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
)

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

// TestTheorem1Properties verifies the four properties of Theorem 1 on
// random aggregate-query instances.
func TestTheorem1Properties(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		qs, offers := randomAggScenario(seed, 25, 8, 200)
		res := GreedySelect(qs, offers)

		// Property 1 (telescoping) is implicit in the state design; verify
		// value consistency: sum of per-query values equals TotalValue.
		var sumV float64
		for _, q := range qs {
			out := res.Outcomes[q.QID()]
			sumV += out.Value
			// Re-evaluate v_q(S_q) from scratch: must match the state value.
			replay := query.Value(q, out.Sensors)
			if math.Abs(replay-out.Value) > 1e-6 {
				t.Errorf("seed %d: query %s replay %v != state %v", seed, q.QID(), replay, out.Value)
			}
		}
		if math.Abs(sumV-res.TotalValue) > 1e-6 {
			t.Errorf("seed %d: value accounting broken", seed)
		}

		// Property 2: if any sensor selected, total utility positive.
		if len(res.Selected) > 0 && res.Welfare() <= 0 {
			t.Errorf("seed %d: welfare %v not positive with %d selected", seed, res.Welfare(), len(res.Selected))
		}

		// Property 3: individual utility non-negative:
		// v_q(S_q) > sum_s pi_{q,s} for served queries.
		for _, q := range qs {
			out := res.Outcomes[q.QID()]
			if len(out.Sensors) == 0 {
				continue
			}
			if out.Value <= out.TotalPayment()-1e-9 {
				t.Errorf("seed %d: query %s value %v <= payment %v", seed, q.QID(), out.Value, out.TotalPayment())
			}
		}

		// Payments per sensor sum exactly to its cost.
		costByID := map[int]float64{}
		for _, o := range offers {
			costByID[o.Sensor.ID] = o.Cost
		}
		paid := map[int]float64{}
		for _, q := range qs {
			for _, p := range res.Outcomes[q.QID()].Payments {
				paid[p.SensorID] += p.Amount
			}
		}
		for _, s := range res.Selected {
			if math.Abs(paid[s.ID]-costByID[s.ID]) > 1e-6 {
				t.Errorf("seed %d: sensor %d paid %v, cost %v", seed, s.ID, paid[s.ID], costByID[s.ID])
			}
		}
	}
}

func TestGreedyStopsWhenNoPositiveNet(t *testing.T) {
	// One sensor whose cost exceeds any possible value: nothing selected.
	grid := geo.NewUnitGrid(100, 100)
	aggs := makeAggregates(grid, 5, geo.NewRect(0, 0, 20, 20)) // budget 5 < cost 10
	offers := makeOffers(geo.Pt(10, 10))
	res := GreedySelect([]query.Query{aggs[0]}, offers)
	if len(res.Selected) != 0 {
		t.Fatal("greedy selected an unprofitable sensor")
	}
	if res.Welfare() != 0 {
		t.Errorf("welfare = %v", res.Welfare())
	}
}

func TestGreedyBeatsBaselineOnSharedRegions(t *testing.T) {
	// Overlapping regions let the greedy share sensors; sequential
	// baseline buys per query. Greedy welfare must dominate on aggregate.
	var sumG, sumB float64
	for seed := int64(20); seed < 30; seed++ {
		qs, offers := randomAggScenario(seed, 30, 10, 60)
		sumG += GreedySelect(qs, offers).Welfare()
		sumB += BaselineMultiSelect(qs, offers).Welfare()
	}
	if sumG <= sumB {
		t.Errorf("greedy total welfare %v <= baseline %v", sumG, sumB)
	}
}

func TestGreedyComplexityGuard(t *testing.T) {
	// O(|Q||S|^2) valuation calls: on a 40x10 instance this must finish
	// fast and select a bounded number of sensors.
	qs, offers := randomAggScenario(42, 40, 10, 100)
	res := GreedySelect(qs, offers)
	if len(res.Selected) > len(offers) {
		t.Error("selected more sensors than exist")
	}
}

func TestGreedyPointAdapter(t *testing.T) {
	queries, offers := randomScenario(5, 20, 40, 15)
	res := GreedyPoint()(queries, offers)
	for qid, o := range res.Outcomes {
		if o.Value <= 0 {
			t.Errorf("outcome %s has value %v", qid, o.Value)
		}
		if o.Sensor == nil {
			t.Errorf("outcome %s missing sensor", qid)
		}
	}
	// Welfare should be positive and within range of optimal.
	opt := OptimalPoint(OptimalOptions{})(queries, offers)
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
	res = GreedyPoint()(queries, offers)
	multi := GreedySelect([]query.Query{queries[0], queries[1], queries[2], queries[3]}, offers)
	paid := multi.Outcomes["q"].Payments
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

func TestGreedyMixedQueryTypes(t *testing.T) {
	// Aggregate + point + trajectory + multipoint in one greedy pass.
	grid := geo.NewUnitGrid(100, 100)
	agg := query.NewAggregate("agg", geo.NewRect(10, 10, 40, 40), 120, 10, grid)
	pt := query.NewPoint("pt", geo.Pt(25, 25), 30, 5)
	traj := query.NewTrajectory("traj", geo.Trajectory{Waypoints: []geo.Point{geo.Pt(10, 25), geo.Pt(40, 25)}}, 60, 10)
	mp := query.NewMultiPoint("mp", geo.Pt(30, 30), 40, 5, 2)
	offers := makeOffers(geo.Pt(25, 25), geo.Pt(30, 30), geo.Pt(15, 25), geo.Pt(35, 25), geo.Pt(70, 70))

	res := GreedySelect([]query.Query{agg, pt, traj, mp}, offers)
	if res.Welfare() <= 0 {
		t.Fatalf("mixed welfare = %v", res.Welfare())
	}
	// The far-away sensor (70,70) is irrelevant to everything: never picked.
	for _, s := range res.Selected {
		if s.Pos == geo.Pt(70, 70) {
			t.Error("irrelevant sensor selected")
		}
	}
	// Sensor sharing: at least one sensor serves multiple queries.
	counts := map[int]int{}
	for _, q := range []query.Query{agg, pt, traj, mp} {
		for _, s := range res.Outcomes[q.QID()].Sensors {
			counts[s.ID]++
		}
	}
	shared := false
	for _, c := range counts {
		if c > 1 {
			shared = true
		}
	}
	if !shared {
		t.Error("no sensor shared across queries in a heavily overlapping scenario")
	}
}

func TestBaselineMultiSelectPayments(t *testing.T) {
	qs, offers := randomAggScenario(8, 20, 6, 80)
	res := BaselineMultiSelect(qs, offers)
	// Sum of all payments equals total cost (first query pays, rest free).
	var paid float64
	for _, out := range res.Outcomes {
		//pslint:ignore floatorder tolerance-compared (1e-6) below; map-order float error is ~1 ulp
		paid += out.TotalPayment()
	}
	if math.Abs(paid-res.TotalCost) > 1e-6 {
		t.Errorf("payments %v != total cost %v", paid, res.TotalCost)
	}
}
