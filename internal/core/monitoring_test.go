package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/query"
	"repro/internal/regression"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

func history(seed int64, n int) *regression.Series {
	vals := field.DefaultOzone().Generate(n, rng.New(seed, "lm-history"))
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i)
	}
	s, _ := regression.NewSeries(times, vals)
	return s
}

func TestRunLocationMonitoringSlotLifecycle(t *testing.T) {
	h := history(1, 50)
	q := query.NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 20, 150, 10, h, 6)
	offers := makeOffers(geo.Pt(5, 5), geo.Pt(8, 8))
	solver := OptimalPoint(OptimalOptions{})

	var welfare float64
	for slot := 0; slot <= 20; slot++ {
		res := RunLocationMonitoringSlot(slot, []*query.LocationMonitoring{q}, offers, solver)
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
	res := RunLocationMonitoringSlot(0, []*query.LocationMonitoring{q}, offers, BaselinePoint())
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
			alg2Total += RunLocationMonitoringSlot(slot, qsA, offersA, OptimalPoint(OptimalOptions{})).Welfare()
		}
		qsB := mk()
		offersB := makeOffers(offerPos...)
		for slot := 0; slot <= 30; slot++ {
			baseTotal += RunLocationMonitoringSlotBaseline(slot, qsB, offersB).Welfare()
		}
	}
	if alg2Total < baseTotal-1e-6 {
		t.Errorf("Algorithm 2 welfare %v < baseline %v", alg2Total, baseTotal)
	}
}

func regModel() *gp.GP {
	return gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
}

func TestRunRegionMonitoringSlotRecordsObservations(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	q := query.NewRegionMonitoring("rm1", geo.NewRect(2, 2, 12, 10), 0, 15, 120, regModel(), grid)
	offers := makeOffers(geo.Pt(4, 4), geo.Pt(8, 6), geo.Pt(10, 8), geo.Pt(18, 14))
	res := RunRegionMonitoringSlot(0, []*query.RegionMonitoring{q}, offers,
		RegMonOptions{Solver: OptimalPoint(OptimalOptions{}), CostWeighting: true, ShareSensors: true})
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
		RunRegionMonitoringSlot(slot, []*query.RegionMonitoring{q}, offers,
			RegMonOptions{Solver: OptimalPoint(OptimalOptions{})})
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
		RunRegionMonitoringSlot(slot, qsShared, offersA,
			RegMonOptions{Solver: OptimalPoint(OptimalOptions{}), CostWeighting: true, ShareSensors: true})
	}
	for _, q := range qsShared {
		sharedVal += q.Value()
	}

	qsPlain := mk()
	var plainVal float64
	offersB := makeOffers(offerPos...)
	for slot := 0; slot <= 20; slot++ {
		RunRegionMonitoringSlotBaseline(slot, qsPlain, offersB)
	}
	for _, q := range qsPlain {
		plainVal += q.Value()
	}
	if sharedVal < plainVal-1e-6 {
		t.Errorf("sharing value %v < baseline %v", sharedVal, plainVal)
	}
}

func TestWeightEq18(t *testing.T) {
	cases := []struct {
		k    int
		want float64
	}{
		{0, 1}, {1, 1}, {2, 0.9}, {5, 0.6}, {9, 0.2}, {10, 0.1}, {15, 0.1},
	}
	for _, c := range cases {
		if got := WeightEq18(c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("w(%d)=%v want %v", c.k, got, c.want)
		}
	}
}

func TestSelectSamplingPointsSpreadsObservations(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	q := query.NewRegionMonitoring("rm", geo.NewRect(0, 0, 20, 15), 0, 10, 80, regModel(), grid)
	// Clustered and spread sensors: the GP marginal should prefer spread.
	offers := makeOffers(
		geo.Pt(5, 5), geo.Pt(5.2, 5.2), geo.Pt(5.4, 5.4), // cluster
		geo.Pt(15, 10), geo.Pt(2, 12), // spread
	)
	costs := []float64{10, 10, 10, 10, 10}
	sel, _, _ := selectSamplingPoints(&planArena{}, q, offers, costs, 40, 0, 0)
	if len(sel) == 0 {
		t.Fatal("nothing selected")
	}
	chosen := map[int]bool{}
	for _, i := range sel {
		chosen[i] = true
	}
	// Selecting all three clustered sensors before any spread one would be
	// a GP-marginal failure.
	if chosen[0] && chosen[1] && chosen[2] && !chosen[3] && !chosen[4] {
		t.Error("selection clustered despite submodular variance reduction")
	}
}

func TestRunMixSlotAllTypes(t *testing.T) {
	grid := geo.NewUnitGrid(100, 100)
	h := history(3, 50)
	mixQ := MixQueries{
		Aggregates: makeAggregates(grid, 100, geo.NewRect(10, 10, 40, 40)),
		Points:     makePoints(20, 5, geo.Pt(25, 25), geo.Pt(30, 30)),
		LocMon: []*query.LocationMonitoring{
			query.NewLocationMonitoring("lm1", geo.Pt(20, 20), 0, 20, 150, 10, h, 5),
		},
	}
	offers := makeOffers(geo.Pt(25, 25), geo.Pt(30, 30), geo.Pt(20, 20), geo.Pt(15, 35))
	res := RunMixSlot(0, mixQ, offers)
	if res.Welfare() <= 0 {
		t.Fatalf("mix welfare = %v", res.Welfare())
	}
	if res.AggValue <= 0 {
		t.Error("aggregate value missing")
	}
	if res.PointValue <= 0 {
		t.Error("point value missing")
	}
	if res.Multi == nil || len(res.Multi.Selected) == 0 {
		t.Error("no sensors selected")
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
		baseTotal += RunMixSlotBaseline(0, qA, oA).Welfare()
		_ = oA
	}
	if algTotal <= baseTotal {
		t.Errorf("Algorithm 5 welfare %v <= baseline %v", algTotal, baseTotal)
	}
}

func TestMixSlotLocMonFeedback(t *testing.T) {
	h := history(9, 50)
	lm := query.NewLocationMonitoring("lm1", geo.Pt(10, 10), 0, 10, 150, 10, h, 4)
	mixQ := MixQueries{LocMon: []*query.LocationMonitoring{lm}}
	offers := makeOffers(geo.Pt(10, 10))
	for slot := 0; slot <= 10; slot++ {
		RunMixSlot(slot, mixQ, offers)
	}
	if len(lm.Sampled) == 0 {
		t.Error("location monitoring got no samples through the mix pipeline")
	}
}

// TestMixSlotRegMonContributions: with overlapping regions, stage 4 of
// Algorithm 5 has a region query pay toward sensors selected for other
// queries inside its region. The contribution is booked in the query's
// published Continuous[id].Payment, so in some slot that payment exceeds
// what the query's own probes paid.
func TestMixSlotRegMonContributions(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	rm1 := query.NewRegionMonitoring("rm1", geo.NewRect(2, 2, 12, 10), 0, 20, 80, regModel(), grid)
	rm2 := query.NewRegionMonitoring("rm2", geo.NewRect(4, 4, 14, 12), 0, 20, 80, regModel(), grid)
	offers := makeOffers(geo.Pt(6, 6), geo.Pt(9, 8), geo.Pt(11, 5), geo.Pt(5, 9))
	shared := 0
	for slot := 0; slot <= 20; slot++ {
		// User point queries buy sensors inside both regions.
		points := []*query.Point{
			query.NewPoint(fmt.Sprintf("p%d-a", slot), geo.Pt(6, 6), 25, 1),
			query.NewPoint(fmt.Sprintf("p%d-b", slot), geo.Pt(9, 8), 25, 1),
		}
		res := RunMixSlot(slot, MixQueries{Points: points, RegMon: []*query.RegionMonitoring{rm1, rm2}}, offers)
		for _, rm := range []*query.RegionMonitoring{rm1, rm2} {
			var probes float64
			prefix := query.PointID(rm.ID, slot, "") + "/"
			for i, q := range res.Queries {
				if out := &res.Multi.Outcomes[i]; strings.HasPrefix(q.QID(), prefix) && out.Value > 0 {
					probes += out.TotalPayment()
				}
			}
			if i, ok := slices.BinarySearchFunc(res.Continuous, rm.ID, func(c ContinuousOutcome, id string) int { return strings.Compare(c.ID, id) }); ok && res.Continuous[i].Payment > probes+1e-9 {
				shared++
			}
		}
	}
	if rm1.Value() <= 0 || rm2.Value() <= 0 {
		t.Error("region queries got no value through the mix pipeline")
	}
	if shared == 0 {
		t.Error("no region query paid more than its own probes in any slot: stage-4 sharing never happened")
	}
	t.Logf("%d query-slots with a stage-4 contribution", shared)
}

func TestMixEmptySlot(t *testing.T) {
	res := RunMixSlot(0, MixQueries{}, makeOffers(geo.Pt(1, 1)))
	if res.Welfare() != 0 {
		t.Errorf("empty mix welfare = %v", res.Welfare())
	}
	resB := RunMixSlotBaseline(0, MixQueries{}, makeOffers(geo.Pt(1, 1)))
	if resB.Welfare() != 0 {
		t.Errorf("empty baseline mix welfare = %v", resB.Welfare())
	}
}

var _ = []*sensornet.Sensor{} // keep import if scenarios change

func TestRegMonSlotWelfareAccessor(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	q := query.NewRegionMonitoring("rm", geo.NewRect(2, 2, 10, 8), 0, 10, 60, regModel(), grid)
	offers := makeOffers(geo.Pt(5, 5), geo.Pt(8, 6))
	res := RunRegionMonitoringSlot(0, []*query.RegionMonitoring{q}, offers,
		RegMonOptions{Solver: OptimalPoint(OptimalOptions{})})
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
		res := RunMixSlotBaseline(slot, mq, offers)
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

// TestContinuousByIDMergesRepeatedIDs: the slot's continuous outcomes
// come out ascending by ID, one per ID. Outcomes of queries sharing an ID
// merge the way one entry per ID accumulated them in position order:
// satisfied when any was, payments summed in order, the last value delta.
func TestContinuousByIDMergesRepeatedIDs(t *testing.T) {
	got := continuousByID([]ContinuousOutcome{
		{ID: "lm-b", ValueDelta: 1, Payment: 0.5},
		{ID: "lm-a", ValueDelta: 2, Payment: 0.25, Satisfied: true},
		{ID: "rm-a", ValueDelta: 3},
		{ID: "lm-b", ValueDelta: 4, Payment: 0.125, Satisfied: true},
		{ID: "lm-b", ValueDelta: 5, Payment: 0.0625},
	})
	want := []ContinuousOutcome{
		{ID: "lm-a", ValueDelta: 2, Payment: 0.25, Satisfied: true},
		{ID: "lm-b", ValueDelta: 5, Payment: 0.5 + 0.125 + 0.0625, Satisfied: true},
		{ID: "rm-a", ValueDelta: 3},
	}
	if !slices.Equal(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if got := continuousByID([]ContinuousOutcome{}); got == nil || len(got) != 0 {
		t.Errorf("no continuous queries: got %#v, want an empty non-nil slice", got)
	}
}
