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

func regModel() *gp.GP {
	return gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
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
	sel, _, _ := selectSamplingPoints(&planArena{}, q, offers, costs, 40, 0)
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
