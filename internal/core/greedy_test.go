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
		for i, q := range qs {
			out := &res.Outcomes[i]
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
		for i, q := range qs {
			out := &res.Outcomes[i]
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
		for i := range qs {
			for _, p := range res.Outcomes[i].Payments {
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

func TestGreedyComplexityGuard(t *testing.T) {
	// O(|Q||S|^2) valuation calls: on a 40x10 instance this must finish
	// fast and select a bounded number of sensors.
	qs, offers := randomAggScenario(42, 40, 10, 100)
	res := GreedySelect(qs, offers)
	if len(res.Selected) > len(offers) {
		t.Error("selected more sensors than exist")
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
	for i := range []query.Query{agg, pt, traj, mp} {
		for _, s := range res.Outcomes[i].Sensors {
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
