package ps

import (
	"math"
	"testing"
)

func TestAggregatorPointLifecycle(t *testing.T) {
	world := NewRWMWorld(1, 200, SensorConfig{})
	agg := NewAggregator(world)
	for i := 0; i < 20; i++ {
		mustSubmit(t, agg, PointSpec{ID: ids("p", i), Loc: Pt(30+float64(i%5), 30+float64(i/5)), Budget: 20})
	}
	rep := agg.RunSlot()
	if rep.Slot != 0 {
		t.Errorf("slot = %d", rep.Slot)
	}
	if rep.Welfare <= 0 {
		t.Fatalf("welfare = %v", rep.Welfare)
	}
	answered := 0
	for i := 0; i < 20; i++ {
		id := ids("p", i)
		if rep.Answered(id) {
			answered++
			if rep.Payment(id) >= rep.Value(id) {
				t.Errorf("query %s pays %v >= value %v", id, rep.Payment(id), rep.Value(id))
			}
		}
	}
	if answered == 0 {
		t.Fatal("no queries answered in a dense scenario")
	}
	// One-shot queries are consumed: next slot has no queries.
	rep2 := agg.RunSlot()
	if rep2.Welfare != 0 {
		t.Errorf("second slot welfare = %v, want 0 (no queries)", rep2.Welfare)
	}
}

// mustSubmit submits a spec that the test expects to validate.
func mustSubmit(t testing.TB, a *Aggregator, spec Spec) SubmittedQuery {
	t.Helper()
	sq, err := a.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%s %q): %v", spec.Kind(), spec.QueryID(), err)
	}
	return sq
}

func ids(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestAggregatorMixedWorkload(t *testing.T) {
	world := NewRNCWorld(3, SensorConfig{})
	agg := NewAggregator(world)
	mustSubmit(t, agg, AggregateSpec{ID: "agg1", Region: NewRect(80, 110, 120, 150), Budget: 400})
	mustSubmit(t, agg, TrajectorySpec{ID: "traj1", Path: Trajectory{Waypoints: []Point{Pt(80, 120), Pt(140, 120)}}, Budget: 200})
	mustSubmit(t, agg, MultiPointSpec{ID: "mp1", Loc: Pt(100, 130), Budget: 60, K: 2})
	for i := 0; i < 50; i++ {
		mustSubmit(t, agg, PointSpec{ID: ids("p", i), Loc: Pt(75+float64((i*3)%90), 105+float64((i*7)%90)), Budget: 15})
	}
	mustSubmit(t, agg, LocationMonitoringSpec{ID: "lm1", Loc: Pt(110, 140), Duration: 10, Budget: 100, Samples: 3})
	rep := agg.RunSlot()
	if rep.Welfare <= 0 {
		t.Fatalf("mixed welfare = %v", rep.Welfare)
	}
	if rep.AggValue <= 0 {
		t.Error("aggregate obtained no value")
	}
	if rep.SensorsUsed == 0 {
		t.Error("no sensors used")
	}
	// Continuous query persists across slots.
	rep2 := agg.RunSlot()
	_ = rep2
	if len(agg.locMon) == 0 {
		t.Error("location monitoring query retired too early")
	}
}

func TestAggregatorRegionMonitoringRequiresModel(t *testing.T) {
	world := NewRNCWorld(4, SensorConfig{})
	agg := NewAggregator(world)
	if _, err := agg.Submit(RegionMonitoringSpec{ID: "rm1", Region: NewRect(80, 110, 100, 130), Duration: 10, Budget: 100}); err == nil {
		t.Fatal("expected error on world without GP model")
	}
	lab := NewIntelLabWorld(4, SensorConfig{})
	agg2 := NewAggregator(lab)
	q := mustSubmit(t, agg2, RegionMonitoringSpec{ID: "rm1", Region: NewRect(2, 2, 12, 10), Duration: 10, Budget: 80}).
		Underlying().(*RegionMonitoringQuery)
	var gained float64
	for slot := 0; slot < 10; slot++ {
		agg2.RunSlot()
	}
	gained = q.Value()
	if gained <= 0 {
		t.Error("region monitoring obtained no value")
	}
}

func TestAggregatorEventDetection(t *testing.T) {
	lab := NewIntelLabWorld(5, SensorConfig{})
	agg := NewAggregator(lab)
	// Threshold below the field's mean so crossings are plausible;
	// generous budget.
	mustSubmit(t, agg, EventDetectionSpec{ID: "ev1", Loc: Pt(10, 7), Duration: 10, Threshold: 10, Confidence: 0.8, BudgetPerSlot: 50})
	sawEvaluation := false
	for slot := 0; slot < 10; slot++ {
		rep := agg.RunSlot()
		for _, n := range rep.Events {
			sawEvaluation = true
			if n.QueryID != "ev1" {
				t.Errorf("notification for wrong query: %+v", n)
			}
			if n.Confidence < 0 || n.Confidence > 1 {
				t.Errorf("confidence out of range: %v", n.Confidence)
			}
		}
	}
	if !sawEvaluation {
		t.Error("event query never evaluated over 10 slots")
	}
}

func TestAggregatorNextSlot(t *testing.T) {
	world := NewRWMWorld(7, 20, SensorConfig{})
	agg := NewAggregator(world)
	if agg.NextSlot() != 0 {
		t.Errorf("NextSlot = %d want 0", agg.NextSlot())
	}
	agg.RunSlot()
	if agg.NextSlot() != 1 {
		t.Errorf("NextSlot = %d want 1", agg.NextSlot())
	}
}

func TestReportAccessorsOnEmptySlot(t *testing.T) {
	world := NewRWMWorld(8, 10, SensorConfig{})
	agg := NewAggregator(world)
	rep := agg.RunSlot()
	if rep.Answered("nope") || rep.Value("nope") != 0 || rep.Payment("nope") != 0 {
		t.Error("empty report accessors broken")
	}
	if math.IsNaN(rep.Welfare) {
		t.Error("NaN welfare")
	}
}

// TestAggregatorPaymentConservation: four point-only slots and one mix
// slot pay every committed sensor its cost and charge no query more than
// its value or budget.
func TestAggregatorPaymentConservation(t *testing.T) {
	agg := NewAggregator(NewRWMWorld(11, 200, SensorConfig{}))
	var welfare float64
	for slot := 0; slot < 4; slot++ {
		for i := 0; i < 80; i++ {
			mustSubmit(t, agg, PointSpec{ID: ids("q", i), Loc: Pt(15+float64((i*31+slot*3)%50), 15+float64((i*17+slot*5)%50)), Budget: 18})
		}
		welfare += agg.RunSlot().Welfare
	}
	if welfare <= 0 {
		t.Errorf("point-slot welfare %v, want positive", welfare)
	}
	mustSubmit(t, agg, AggregateSpec{ID: "agg-l", Region: NewRect(20, 20, 45, 45), Budget: 400})
	if rep := agg.RunSlot(); !rep.Answered("agg-l") {
		t.Error("mix slot left the aggregate unanswered")
	}
	if v := agg.SelectionStats().ConservationViolations; v != 0 {
		t.Errorf("%d conservation violations", v)
	}
}

func TestAggregatorRegionEvent(t *testing.T) {
	lab := NewIntelLabWorld(13, SensorConfig{})
	agg := NewAggregator(lab)
	// Threshold below the field mean (20) so the regional average should
	// exceed it whenever coverage and trust suffice.
	q := mustSubmit(t, agg, RegionEventSpec{
		ID: "re1", Region: NewRect(2, 2, 14, 11), Duration: 12,
		Threshold: 15.0, Confidence: 0.5, BudgetPerSlot: 150,
	}).Underlying().(*RegionEventQuery)
	if q.SensingRange != lab.DMax {
		t.Errorf("probe sensing range = %v want world dmax", q.SensingRange)
	}
	evaluations, detections := 0, 0
	for slot := 0; slot < 12; slot++ {
		rep := agg.RunSlot()
		for _, n := range rep.Events {
			if n.QueryID != "re1" {
				continue
			}
			evaluations++
			if n.Confidence < 0 || n.Confidence > 1 {
				t.Errorf("confidence %v out of range", n.Confidence)
			}
			if n.Detected {
				detections++
				if n.Reading <= 15 {
					t.Errorf("detected with reading %v <= threshold", n.Reading)
				}
			}
		}
	}
	if evaluations == 0 {
		t.Fatal("region event never evaluated")
	}
	if detections == 0 {
		t.Log("no detections fired (acceptable: depends on fleet coverage), evaluations:", evaluations)
	}
	// Query retires after its window.
	if len(agg.regEvents) != 0 {
		t.Error("region event query not retired")
	}
}

// TestPointOutcomeIgnoresUnrelatedDemand: a point query's outcome depends
// on the points competing for its sensors, not on an aggregate whose
// footprint is disjoint from every point's. Every slot runs the same
// Algorithm 5 selection, so adding that aggregate leaves each point's
// answered flag, value and payment unchanged to the last bit.
func TestPointOutcomeIgnoresUnrelatedDemand(t *testing.T) {
	run := func(seed int64, withAggregate bool) *SlotReport {
		agg := NewAggregator(NewRWMWorld(seed, 200, SensorConfig{}))
		for i := 0; i < 80; i++ {
			mustSubmit(t, agg, PointSpec{ID: ids("q", i), Loc: Pt(15+float64((i*31)%25), 15+float64((i*17)%25)), Budget: 15})
		}
		if withAggregate {
			mustSubmit(t, agg, AggregateSpec{ID: "far", Region: NewRect(55, 55, 65, 65), Budget: 300})
		}
		return agg.RunSlot()
	}
	for seed := int64(1); seed <= 5; seed++ {
		alone, mixed := run(seed, false), run(seed, true)
		for i := 0; i < 80; i++ {
			id := ids("q", i)
			if alone.Answered(id) != mixed.Answered(id) ||
				math.Float64bits(alone.Value(id)) != math.Float64bits(mixed.Value(id)) ||
				math.Float64bits(alone.Payment(id)) != math.Float64bits(mixed.Payment(id)) {
				t.Errorf("seed %d %s: alone (answered %v, value %v, paid %v), with the aggregate (answered %v, value %v, paid %v)",
					seed, id, alone.Answered(id), alone.Value(id), alone.Payment(id),
					mixed.Answered(id), mixed.Value(id), mixed.Payment(id))
			}
		}
	}
}
