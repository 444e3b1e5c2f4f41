package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// selectSamplingPointsNaive is Algorithm 4 as it was written before the
// planner became incremental, kept as the reference selectSamplingPoints
// must equal exactly: one tracker per time instant, each a full clone of
// the base, and every step re-scores every (time, sensor) pair with a
// from-scratch MarginalReduction.
func selectSamplingPointsNaive(q *query.RegionMonitoring, inRegion []Offer, costs []float64, budget float64, tc, maxTimes int) (sel []int, appended, rebuilt int64) {
	if len(inRegion) == 0 || budget <= 0 {
		return nil, 0, 0
	}
	if maxTimes <= 0 {
		maxTimes = 8
	}
	horizon := q.End - tc
	times := []int{tc}
	if horizon > 0 {
		step := 1
		if horizon+1 > maxTimes {
			step = (horizon + maxTimes - 1) / maxTimes
		}
		for tm := tc + step; tm <= q.End; tm += step {
			times = append(times, tm)
		}
	}

	// Every time instant's tracker starts from the query's accumulated
	// observations, so marginals measure genuinely new information. (The
	// paper's pseudocode resets S_t to empty each slot; conditioning on
	// q.S keeps a saturated query from re-buying what it already knows,
	// which matches the intent of the budget control C-hat.) The base
	// factorization is cached on the query across slots and extended by
	// rank-1 appends; it stays owned by the query, so every tracker is a
	// clone, never the base itself.
	base, appended, rebuilt := q.BasePosterior()
	trackers := make([]*gp.Posterior, len(times))
	for i := range trackers {
		trackers[i] = base.Clone(nil)
	}
	used := make([][]bool, len(times))
	for i := range used {
		used[i] = make([]bool, len(inRegion))
	}
	duration := float64(q.End - q.Start)
	if duration <= 0 {
		duration = 1
	}

	var currentSel []int
	var spent float64
	for iter := 0; iter < 200 && spent < budget; iter++ {
		bestDelta := 1e-9
		bestS, bestT := -1, -1
		for ti, tm := range times {
			timeFactor := float64(q.End-tm) / duration
			if tm == tc {
				// The current slot is never zero-weighted, even for queries
				// ending this very slot.
				timeFactor = math.Max(timeFactor, 1/duration)
			}
			if timeFactor <= 0 {
				continue
			}
			for si, o := range inRegion {
				if used[ti][si] {
					continue
				}
				delta := trackers[ti].MarginalReduction(o.Sensor.Pos) * q.Theta(o.Sensor) * timeFactor
				if delta > bestDelta {
					bestDelta, bestS, bestT = delta, si, ti
				}
			}
		}
		if bestS < 0 {
			break
		}
		trackers[bestT].Add(inRegion[bestS].Sensor.Pos)
		used[bestT][bestS] = true
		spent += costs[bestS]
		if times[bestT] == tc {
			currentSel = append(currentSel, bestS)
		}
	}
	return currentSel, appended, rebuilt
}

// planFixture is one seeded Algorithm 4 instance: a region query that has
// accumulated observations, and the candidates inside its region.
type planFixture struct {
	q       *query.RegionMonitoring
	offers  []Offer
	costs   []float64
	pending []geo.Point // recorded on the query after the first planning call
	budget  float64
	tc      int
}

// newPlanFixture draws an instance. The same (seed, obs, candidates) gives
// the same instance, so two calls build two queries in identical state.
func newPlanFixture(seed int64, obs, candidates int) planFixture {
	s := rng.New(seed, "plan-fixture")
	region := geo.NewRect(0, 0, 8, 6)
	grid := geo.NewUnitGrid(8, 6)
	q := query.NewRegionMonitoring("rm", region, 0, 10, 500, regModel(), grid)
	q.ResetIfNeeded(0)
	pt := func() geo.Point { return geo.Pt(s.Uniform(0, 8), s.Uniform(0, 6)) }
	// Two thirds of the observations are there before the first planning
	// call, the rest arrive between the calls: the second call's base
	// posterior is then an append, the first one's a rebuild.
	var all []geo.Point
	for i := 0; i < obs; i++ {
		all = append(all, pt())
	}
	early := (2*obs + 2) / 3
	for _, p := range all[:early] {
		q.Record(p, s.Uniform(0.5, 1), 1)
	}
	f := planFixture{q: q, pending: all[early:], tc: s.IntBetween(0, 10)}
	for i := 0; i < candidates; i++ {
		p := pt()
		switch {
		case i > 0 && s.Bool(0.15):
			p = f.offers[s.Intn(i)].Sensor.Pos // two sensors on one spot: a tie
		case len(all) > 0 && s.Bool(0.1):
			p = all[s.Intn(len(all))] // a sensor where the query already observed
		}
		sn := sensornet.NewSensor(i, p)
		sn.Inaccuracy = s.Uniform(0, 0.3)
		sn.Trust = s.Uniform(0.6, 1)
		f.offers = append(f.offers, Offer{Sensor: sn, Cost: s.Uniform(2, 12)})
		f.costs = append(f.costs, f.offers[i].Cost*WeightEq18(s.IntBetween(1, 4)))
	}
	// A budget one commit exhausts, or one that lasts many steps.
	f.budget = 1
	if s.Bool(0.7) {
		f.budget = s.Uniform(20, 400)
	}
	return f
}

// TestSelectSamplingPointsMatchesNaive: the incremental planner takes the
// decisions of the naive loop — same sensors, same order, same posterior
// cache accounting — on the first call over a query's observations
// (rebuild) and on a second after more arrived (append).
func TestSelectSamplingPointsMatchesNaive(t *testing.T) {
	instances, steps, multiTime := 0, 0, 0
	ar := &planArena{} // one arena for every instance, as a planning worker reuses it
	for _, obs := range []int{0, 5, 30} {
		for seed := int64(1); seed <= 70; seed++ {
			n := 1 + int(seed)%15
			got, want := newPlanFixture(seed, obs, n), newPlanFixture(seed, obs, n)
			for call := 0; call < 2; call++ {
				gs, ga, gr := selectSamplingPoints(ar, got.q, got.offers, got.costs, got.budget, got.tc)
				ws, wa, wr := selectSamplingPointsNaive(want.q, want.offers, want.costs, want.budget, want.tc, maxPlanningTimes)
				if !slices.Equal(gs, ws) || ga != wa || gr != wr {
					t.Fatalf("obs %d seed %d call %d: selected %v (appended %d, rebuilt %d), naive %v (%d, %d)",
						obs, seed, call, gs, ga, gr, ws, wa, wr)
				}
				steps += len(gs)
				for _, p := range got.pending {
					got.q.Record(p, 0.8, 1)
					want.q.Record(p, 0.8, 1)
				}
				got.pending, want.pending = nil, nil
			}
			instances++
			if got.tc < 10 {
				multiTime++
			}
		}
	}
	if instances < 200 || steps < 2*instances || multiTime < instances/2 {
		t.Fatalf("fixture too thin: %d instances, %d current-slot selections, %d with several planning times", instances, steps, multiTime)
	}
}

// benchPlanFixture is the planner's benchmark shape: m accumulated
// observations, 12 candidates, 8 planning times, a budget of about six
// commits.
func benchPlanFixture(m int) planFixture {
	f := newPlanFixture(7, m, 12)
	for _, p := range f.pending {
		f.q.Record(p, 0.8, 1)
	}
	f.tc, f.budget = 0, 40
	return f
}

func BenchmarkSelectSamplingPoints(b *testing.B) {
	ar := &planArena{}
	for _, impl := range []struct {
		name string
		fn   func(*query.RegionMonitoring, []Offer, []float64, float64, int) ([]int, int64, int64)
	}{{"incremental", func(q *query.RegionMonitoring, offers []Offer, costs []float64, budget float64, tc int) ([]int, int64, int64) {
		return selectSamplingPoints(ar, q, offers, costs, budget, tc)
	}}, {"naive", func(q *query.RegionMonitoring, offers []Offer, costs []float64, budget float64, tc int) ([]int, int64, int64) {
		return selectSamplingPointsNaive(q, offers, costs, budget, tc, maxPlanningTimes)
	}}} {
		for _, m := range []int{0, 16, 48} {
			b.Run(fmt.Sprintf("%s/m=%d", impl.name, m), func(b *testing.B) {
				f := benchPlanFixture(m)
				f.q.BasePosterior() // the first call's rebuild is the cache's cost, not the planner's
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					impl.fn(f.q, f.offers, f.costs, f.budget, f.tc)
				}
			})
		}
	}
}

// TestPlannerAllocations: a planning call on a warm arena allocates
// nothing — its probes, tracker clones, candidate blocks and new factor
// rows all come from the arena — where the naive loop allocates per scored
// (time, sensor) pair. Measured: 0 per call; it made 111 before the
// planning arena, when the limit was 160.
func TestPlannerAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	f := benchPlanFixture(16)
	ar := &planArena{}
	sel, _, _ := selectSamplingPoints(ar, f.q, f.offers, f.costs, f.budget, f.tc) // rebuilds the base, warms the arena
	if len(sel) < 2 {
		t.Fatalf("fixture: only %d current-slot selections", len(sel))
	}
	allocs := testing.AllocsPerRun(10, func() {
		selectSamplingPoints(ar, f.q, f.offers, f.costs, f.budget, f.tc)
	})
	naive := testing.AllocsPerRun(10, func() {
		selectSamplingPointsNaive(f.q, f.offers, f.costs, f.budget, f.tc, maxPlanningTimes)
	})
	t.Logf("%.0f allocations per planning call (naive loop: %.0f)", allocs, naive)
	const limit = 4
	if allocs > limit {
		t.Errorf("%.0f allocations per planning call, limit %d", allocs, limit)
	}
	if naive < 2*limit {
		t.Fatalf("fixture: the naive loop allocates only %.0f, the limit would not catch it", naive)
	}
}
