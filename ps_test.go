package ps

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mobility"
	"repro/internal/sensornet"
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
		rep := agg.RunSlot()
		requireConserved(t, slot, rep)
		welfare += rep.Welfare
	}
	if welfare <= 0 {
		t.Errorf("point-slot welfare %v, want positive", welfare)
	}
	mustSubmit(t, agg, AggregateSpec{ID: "agg-l", Region: NewRect(20, 20, 45, 45), Budget: 400})
	rep := agg.RunSlot()
	if !rep.Answered("agg-l") {
		t.Error("mix slot left the aggregate unanswered")
	}
	requireConserved(t, 4, rep)
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

// cornerDemand is one query of every kind in a 7.5 x 5 corner of the
// IntelLab region whose south-west corner is (ox, oy), for the given
// slot: the one-shots are issued anew each slot, the continuous queries
// once at slot 0 for the whole run. Every footprint (DMax 2 around each
// location, region and path) stays inside (ox-1.5, oy-1.5)-(ox+9.5, oy+7).
func cornerDemand(prefix string, ox, oy float64, slot, slots int) []Spec {
	at := func(x, y float64) Point { return Pt(ox+x, oy+y) }
	box := func(x0, y0, x1, y1 float64) Rect { return NewRect(ox+x0, oy+y0, ox+x1, oy+y1) }
	id := func(kind string) string { return fmt.Sprintf("%s-%s-%d", prefix, kind, slot) }
	specs := []Spec{
		PointSpec{ID: id("pt0"), Loc: at(1, 1.5), Budget: 18},
		PointSpec{ID: id("pt1"), Loc: at(5, 3), Budget: 15},
		MultiPointSpec{ID: id("mp"), Loc: at(3, 2), Budget: 60, K: 2},
		AggregateSpec{ID: id("agg"), Region: box(0.5, 0.5, 5.5, 4), Budget: 120},
		TrajectorySpec{ID: id("tr"), Path: Trajectory{Waypoints: []Point{at(1, 0.5), at(6.5, 4.5)}}, Budget: 60},
	}
	if slot == 0 {
		specs = append(specs,
			LocationMonitoringSpec{ID: prefix + "-lm", Loc: at(3.5, 2.5), Duration: slots, Budget: 80, Samples: 3},
			RegionMonitoringSpec{ID: prefix + "-rm", Region: box(0.5, 0.5, 4.5, 3.5), Duration: slots, Budget: 150},
			EventDetectionSpec{ID: prefix + "-ev", Loc: at(2, 3.5), Duration: slots,
				Threshold: 15, Confidence: 0.5, BudgetPerSlot: 20},
			RegionEventSpec{ID: prefix + "-re", Region: box(2.5, 0.5, 7.5, 4), Duration: slots,
				Threshold: 15, Confidence: 0.5, BudgetPerSlot: 40},
		)
	}
	return specs
}

// TestOutcomesIgnoreUnrelatedDemand: a query's outcome depends on the
// demand competing for its sensors, not on a query whose footprint is
// disjoint from every other's. Base demand of all eight kinds sits in
// the south-west corner of a fleet standing still; a query of one kind
// is added in the north-east corner, each kind in turn. Over several
// slots, on an Aggregator and on a 4-shard ShardedAggregator, every base
// query's answered flag, value, payment and event evaluations stay
// identical to the last bit. The fleet stands still because a sensor the
// far query paid would otherwise carry its changed privacy history, and
// so its price, into the base corner.
func TestOutcomesIgnoreUnrelatedDemand(t *testing.T) {
	const slots = 4
	world := func() *World {
		w := NewIntelLabWorld(5, SensorConfig{})
		pos := make([]Point, len(w.Fleet.Sensors))
		for i := range pos {
			x, y := 1+1.5*float64(i%5), 1+1.5*float64((i/5)%3)
			if i >= len(pos)/2 {
				x, y = x+12, y+9.5
			}
			pos[i] = Pt(x, y)
		}
		w.Fleet = sensornet.NewFleet(w.Fleet.Sensors, mobility.NewStationary(pos), w.Working)
		return w
	}
	type runtime interface {
		Submit(Spec) (SubmittedQuery, error)
		RunSlot() *SlotReport
	}
	// run drives the base demand, plus the far corner's query of kind
	// far when far >= 0, and returns each slot's report with the IDs of
	// the far query's outcomes.
	run := func(newRuntime func(*World) runtime, far QueryKind) (reps []*SlotReport, farIDs []string) {
		r := newRuntime(world())
		for slot := 0; slot < slots; slot++ {
			specs := cornerDemand("base", 0, 0, slot, slots)
			for _, sp := range cornerDemand("far", 12, 9.5, slot, slots) {
				if sp.Kind() == far {
					specs = append(specs, sp)
					farIDs = append(farIDs, sp.QueryID())
				}
			}
			for _, sp := range specs {
				if _, err := r.Submit(sp); err != nil {
					t.Fatalf("Submit(%s %q): %v", sp.Kind(), sp.QueryID(), err)
				}
			}
			reps = append(reps, r.RunSlot())
		}
		return reps, farIDs
	}
	var baseIDs []string
	kindOf := map[string]QueryKind{}
	for slot := 0; slot < slots; slot++ {
		for _, sp := range cornerDemand("base", 0, 0, slot, slots) {
			baseIDs = append(baseIDs, sp.QueryID())
			kindOf[sp.QueryID()] = sp.Kind()
		}
	}
	baseEvents := func(rep *SlotReport) []EventNotification {
		var evs []EventNotification
		for _, ev := range rep.Events {
			if strings.HasPrefix(ev.QueryID, "base-") {
				evs = append(evs, ev)
			}
		}
		return evs
	}
	for _, layer := range []struct {
		name string
		new  func(*World) runtime
	}{
		{"aggregator", func(w *World) runtime { return NewAggregator(w) }},
		{"sharded", func(w *World) runtime { return NewShardedAggregator(w, 4) }},
	} {
		alone, _ := run(layer.new, -1)
		answered := map[QueryKind]bool{}
		for _, rep := range alone {
			for _, id := range baseIDs {
				if rep.Answered(id) {
					answered[kindOf[id]] = true
				}
			}
		}
		if len(answered) != 8 {
			t.Fatalf("%s: base kinds answered %v; every kind must be served for the comparison to mean anything", layer.name, answered)
		}
		for kind := KindPoint; kind <= KindRegionEvent; kind++ {
			mixed, farIDs := run(layer.new, kind)
			farServed := false
			for slot, rep := range mixed {
				for _, id := range farIDs {
					farServed = farServed || rep.Answered(id)
				}
				a := alone[slot]
				for _, id := range baseIDs {
					if a.Answered(id) != rep.Answered(id) ||
						math.Float64bits(a.Value(id)) != math.Float64bits(rep.Value(id)) ||
						math.Float64bits(a.Payment(id)) != math.Float64bits(rep.Payment(id)) {
						t.Errorf("%s, far %s, slot %d, %s: alone (answered %v, value %v, paid %v), with it (answered %v, value %v, paid %v)",
							layer.name, kind, slot, id, a.Answered(id), a.Value(id), a.Payment(id),
							rep.Answered(id), rep.Value(id), rep.Payment(id))
					}
				}
				if ae, me := baseEvents(a), baseEvents(rep); !reflect.DeepEqual(ae, me) {
					t.Errorf("%s, far %s, slot %d: base events alone %+v, with it %+v", layer.name, kind, slot, ae, me)
				}
			}
			if !farServed {
				t.Errorf("%s: the far %s query was never answered, so it competed for nothing", layer.name, kind)
			}
		}
	}
}
