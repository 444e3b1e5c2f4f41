package ps

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestQueryKindStringRoundTrip(t *testing.T) {
	kinds := []QueryKind{
		KindPoint, KindMultiPoint, KindAggregate, KindTrajectory,
		KindLocationMonitoring, KindRegionMonitoring, KindEventDetection, KindRegionEvent,
	}
	if len(kinds) != 8 {
		t.Fatalf("expected 8 kinds")
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
		back, err := ParseQueryKind(name)
		if err != nil || back != k {
			t.Errorf("ParseQueryKind(%q) = %v, %v; want %v", name, back, err, k)
		}
	}
	if _, err := ParseQueryKind("nonsense"); err == nil {
		t.Error("ParseQueryKind(nonsense) succeeded")
	}
}

// TestSpecValidateRejections: the centralized validation rejects the
// malformed specs each transport used to have to police itself.
func TestSpecValidateRejections(t *testing.T) {
	rwm := NewRWMWorld(1, 50, SensorConfig{})
	gp := NewIntelLabWorld(1, SensorConfig{})

	valid := []Spec{
		PointSpec{ID: "p", Loc: Pt(30, 30), Budget: 10},
		MultiPointSpec{ID: "mp", Loc: Pt(30, 30), Budget: 10, K: 3},
		AggregateSpec{ID: "a", Region: NewRect(20, 20, 40, 40), Budget: 100},
		TrajectorySpec{ID: "tr", Path: Trajectory{Waypoints: []Point{Pt(0, 0), Pt(10, 10)}}, Budget: 50},
		LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: 5, Budget: 100, Samples: 3},
		EventDetectionSpec{ID: "ev", Loc: Pt(30, 30), Duration: 5, Threshold: 1, Confidence: 0.9, BudgetPerSlot: 10},
		RegionEventSpec{ID: "re", Region: NewRect(20, 20, 40, 40), Duration: 5, Threshold: 1, Confidence: 0.9, BudgetPerSlot: 10},
	}
	for _, spec := range valid {
		if err := spec.Validate(rwm); err != nil {
			t.Errorf("valid %s spec rejected: %v", spec.Kind(), err)
		}
	}
	if err := (RegionMonitoringSpec{ID: "rm", Region: NewRect(1, 1, 10, 10), Duration: 5, Budget: 100}).Validate(gp); err != nil {
		t.Errorf("valid regmon spec rejected on GP world: %v", err)
	}

	rejections := []struct {
		name string
		spec Spec
		want string
	}{
		{"empty id", PointSpec{Loc: Pt(1, 1), Budget: 5}, "empty query ID"},
		{"negative budget point", PointSpec{ID: "p", Loc: Pt(1, 1), Budget: -5}, "negative budget"},
		{"negative budget aggregate", AggregateSpec{ID: "a", Region: NewRect(0, 0, 5, 5), Budget: -1}, "negative budget"},
		{"negative k", MultiPointSpec{ID: "mp", Loc: Pt(1, 1), Budget: 5, K: -2}, "negative redundancy"},
		{"empty trajectory", TrajectorySpec{ID: "tr", Budget: 5}, "0 waypoints"},
		{"one-waypoint trajectory", TrajectorySpec{ID: "tr", Path: Trajectory{Waypoints: []Point{Pt(1, 1)}}, Budget: 5}, "1 waypoints"},
		{"zero duration locmon", LocationMonitoringSpec{ID: "lm", Loc: Pt(1, 1), Budget: 10}, "duration 0"},
		{"negative duration event", EventDetectionSpec{ID: "ev", Loc: Pt(1, 1), Duration: -3, BudgetPerSlot: 5}, "duration -3"},
		{"zero duration regionevent", RegionEventSpec{ID: "re", Region: NewRect(0, 0, 5, 5), BudgetPerSlot: 5}, "duration 0"},
		{"negative samples", LocationMonitoringSpec{ID: "lm", Loc: Pt(1, 1), Duration: 5, Budget: 10, Samples: -1}, "negative sample count"},
		{"negative per-slot budget", EventDetectionSpec{ID: "ev", Loc: Pt(1, 1), Duration: 5, BudgetPerSlot: -5}, "negative budget"},
		{"regmon without GP model", RegionMonitoringSpec{ID: "rm", Region: NewRect(0, 0, 5, 5), Duration: 5, Budget: 10}, "no GP phenomenon model"},
	}
	for _, tc := range rejections {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(rwm)
			if err == nil {
				t.Fatalf("Validate accepted %#v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want it to contain %q", err, tc.want)
			}
			// Submit must refuse the same spec without registering anything.
			agg := NewAggregator(rwm)
			if _, err := agg.Submit(tc.spec); err == nil {
				t.Errorf("Submit accepted invalid spec %#v", tc.spec)
			}
		})
	}
}

// TestSpecValidateSentinels walks every error path of Spec.Validate
// across all 8 kinds and asserts the wrapped sentinel with errors.Is, so
// transports can branch on the failure class instead of matching message
// text. Happy paths per kind anchor the table.
func TestSpecValidateSentinels(t *testing.T) {
	rwm := NewRWMWorld(1, 50, SensorConfig{})
	gp := NewIntelLabWorld(1, SensorConfig{})

	region := NewRect(20, 20, 40, 40)
	path := Trajectory{Waypoints: []Point{Pt(0, 0), Pt(10, 10)}}
	cases := []struct {
		name  string
		spec  Spec
		world *World
		want  error // nil = must validate
	}{
		// One valid spec per kind: the sentinel table must not over-reject.
		{"point ok", PointSpec{ID: "q", Loc: Pt(30, 30), Budget: 10}, rwm, nil},
		{"multipoint ok", MultiPointSpec{ID: "q", Loc: Pt(30, 30), Budget: 10, K: 3}, rwm, nil},
		{"aggregate ok", AggregateSpec{ID: "q", Region: region, Budget: 10}, rwm, nil},
		{"trajectory ok", TrajectorySpec{ID: "q", Path: path, Budget: 10}, rwm, nil},
		{"locmon ok", LocationMonitoringSpec{ID: "q", Loc: Pt(30, 30), Duration: 3, Budget: 10, Samples: 2}, rwm, nil},
		{"regmon ok", RegionMonitoringSpec{ID: "q", Region: region, Duration: 3, Budget: 10}, gp, nil},
		{"event ok", EventDetectionSpec{ID: "q", Loc: Pt(30, 30), Duration: 3, BudgetPerSlot: 10}, rwm, nil},
		{"regionevent ok", RegionEventSpec{ID: "q", Region: region, Duration: 3, BudgetPerSlot: 10}, rwm, nil},

		// Empty ID, every kind.
		{"point empty id", PointSpec{Loc: Pt(1, 1), Budget: 5}, rwm, ErrEmptyQueryID},
		{"multipoint empty id", MultiPointSpec{Loc: Pt(1, 1), Budget: 5}, rwm, ErrEmptyQueryID},
		{"aggregate empty id", AggregateSpec{Region: region, Budget: 5}, rwm, ErrEmptyQueryID},
		{"trajectory empty id", TrajectorySpec{Path: path, Budget: 5}, rwm, ErrEmptyQueryID},
		{"locmon empty id", LocationMonitoringSpec{Loc: Pt(1, 1), Duration: 3, Budget: 5}, rwm, ErrEmptyQueryID},
		{"regmon empty id", RegionMonitoringSpec{Region: region, Duration: 3, Budget: 5}, gp, ErrEmptyQueryID},
		{"event empty id", EventDetectionSpec{Loc: Pt(1, 1), Duration: 3, BudgetPerSlot: 5}, rwm, ErrEmptyQueryID},
		{"regionevent empty id", RegionEventSpec{Region: region, Duration: 3, BudgetPerSlot: 5}, rwm, ErrEmptyQueryID},

		// Negative budget (or per-slot budget), every kind.
		{"point negative budget", PointSpec{ID: "q", Loc: Pt(1, 1), Budget: -1}, rwm, ErrNegativeBudget},
		{"multipoint negative budget", MultiPointSpec{ID: "q", Loc: Pt(1, 1), Budget: -1}, rwm, ErrNegativeBudget},
		{"aggregate negative budget", AggregateSpec{ID: "q", Region: region, Budget: -1}, rwm, ErrNegativeBudget},
		{"trajectory negative budget", TrajectorySpec{ID: "q", Path: path, Budget: -1}, rwm, ErrNegativeBudget},
		{"locmon negative budget", LocationMonitoringSpec{ID: "q", Loc: Pt(1, 1), Duration: 3, Budget: -1}, rwm, ErrNegativeBudget},
		{"regmon negative budget", RegionMonitoringSpec{ID: "q", Region: region, Duration: 3, Budget: -1}, gp, ErrNegativeBudget},
		{"event negative budget", EventDetectionSpec{ID: "q", Loc: Pt(1, 1), Duration: 3, BudgetPerSlot: -1}, rwm, ErrNegativeBudget},
		{"regionevent negative budget", RegionEventSpec{ID: "q", Region: region, Duration: 3, BudgetPerSlot: -1}, rwm, ErrNegativeBudget},

		// Degenerate windows, every continuous kind.
		{"locmon zero duration", LocationMonitoringSpec{ID: "q", Loc: Pt(1, 1), Budget: 5}, rwm, ErrBadDuration},
		{"regmon zero duration", RegionMonitoringSpec{ID: "q", Region: region, Budget: 5}, gp, ErrBadDuration},
		{"event negative duration", EventDetectionSpec{ID: "q", Loc: Pt(1, 1), Duration: -2, BudgetPerSlot: 5}, rwm, ErrBadDuration},
		{"regionevent zero duration", RegionEventSpec{ID: "q", Region: region, BudgetPerSlot: 5}, rwm, ErrBadDuration},

		// Kind-specific shape errors.
		{"trajectory no waypoints", TrajectorySpec{ID: "q", Budget: 5}, rwm, ErrBadTrajectory},
		{"trajectory one waypoint", TrajectorySpec{ID: "q", Path: Trajectory{Waypoints: []Point{Pt(1, 1)}}, Budget: 5}, rwm, ErrBadTrajectory},
		{"multipoint negative k", MultiPointSpec{ID: "q", Loc: Pt(1, 1), Budget: 5, K: -1}, rwm, ErrNegativeRedundancy},
		{"locmon negative samples", LocationMonitoringSpec{ID: "q", Loc: Pt(1, 1), Duration: 3, Budget: 5, Samples: -1}, rwm, ErrNegativeSamples},

		// The GP-model precondition: no model, and no world at all.
		{"regmon without model", RegionMonitoringSpec{ID: "q", Region: region, Duration: 3, Budget: 5}, rwm, ErrNoGPModel},
		{"regmon nil world", RegionMonitoringSpec{ID: "q", Region: region, Duration: 3, Budget: 5}, nil, ErrNoGPModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(tc.world)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate(%#v) = %v, want nil", tc.spec, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted %#v, want %v", tc.spec, tc.want)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("Validate error %q does not wrap sentinel %q", err, tc.want)
			}
			// Aggregator.Submit must surface the same sentinel.
			if tc.world != nil {
				if _, serr := NewAggregator(tc.world).Submit(tc.spec); !errors.Is(serr, tc.want) {
					t.Errorf("Submit error %v does not wrap sentinel %q", serr, tc.want)
				}
			}
		})
	}
}

// TestMaxDurationBoundsEveryWindow: every windowed kind accepts a window
// of MaxDuration slots at the Aggregator and refuses one slot more, and
// math.MaxInt — which used to panic the location-monitoring history's
// make — with ErrBadDuration.
func TestMaxDurationBoundsEveryWindow(t *testing.T) {
	rwm := NewRWMWorld(1, 50, SensorConfig{})
	intel := NewIntelLabWorld(1, SensorConfig{})
	region := NewRect(20, 20, 40, 40)
	specs := []struct {
		world *World
		spec  func(id string, d int) Spec
	}{
		{rwm, func(id string, d int) Spec {
			return LocationMonitoringSpec{ID: id, Loc: Pt(30, 30), Duration: d, Budget: 5, Samples: 4}
		}},
		{intel, func(id string, d int) Spec {
			return RegionMonitoringSpec{ID: id, Region: intel.Region, Duration: d, Budget: 5}
		}},
		{rwm, func(id string, d int) Spec {
			return EventDetectionSpec{ID: id, Loc: Pt(30, 30), Duration: d, Threshold: 50, Confidence: 0.5, BudgetPerSlot: 5}
		}},
		{rwm, func(id string, d int) Spec {
			return RegionEventSpec{ID: id, Region: region, Duration: d, Threshold: 50, Confidence: 0.5, BudgetPerSlot: 5}
		}},
	}
	for _, tc := range specs {
		a := NewAggregator(tc.world)
		kind := tc.spec("", 1).Kind()
		if _, err := a.Submit(tc.spec("max", MaxDuration)); err != nil {
			t.Errorf("%s: a %d-slot window refused: %v", kind, MaxDuration, err)
		}
		for _, d := range []int{MaxDuration + 1, math.MaxInt} {
			if _, err := a.Submit(tc.spec(fmt.Sprint(d), d)); !errors.Is(err, ErrBadDuration) {
				t.Errorf("%s: a %d-slot window: err = %v, want ErrBadDuration", kind, d, err)
			}
		}
	}
}

// reportSnapshot captures the comparable surface of a SlotReport.
type reportSnapshot struct {
	slot        int
	welfare     float64
	totalCost   float64
	sensorsUsed int
	offers      int
	pointValue  float64
	aggValue    float64
	locMon      float64
	regMon      float64
	extra       float64
	events      int
	results     []slotResult
}

func snapshot(r *SlotReport) reportSnapshot {
	return reportSnapshot{
		slot:        r.Slot,
		welfare:     r.Welfare,
		totalCost:   r.TotalCost,
		sensorsUsed: r.SensorsUsed,
		offers:      r.Offers,
		pointValue:  r.PointValue,
		aggValue:    r.AggValue,
		locMon:      r.LocMonValue,
		regMon:      r.RegMonValue,
		extra:       r.ExtraValue,
		events:      len(r.Events),
		results:     slices.Clone(r.results),
	}
}

// requireIdentical compares two snapshots bit-for-bit (float equality,
// not tolerance: the two paths must execute the same arithmetic).
func requireIdentical(t *testing.T, slot int, legacy, spec reportSnapshot) {
	t.Helper()
	if legacy.slot != spec.slot || legacy.offers != spec.offers {
		t.Fatalf("slot %d: slot/offers diverged: %+v vs %+v", slot, legacy, spec)
	}
	if legacy.welfare != spec.welfare {
		t.Fatalf("slot %d: welfare %v != %v", slot, legacy.welfare, spec.welfare)
	}
	if legacy.totalCost != spec.totalCost || legacy.sensorsUsed != spec.sensorsUsed {
		t.Fatalf("slot %d: cost/sensors diverged: %+v vs %+v", slot, legacy, spec)
	}
	if legacy.pointValue != spec.pointValue || legacy.aggValue != spec.aggValue ||
		legacy.locMon != spec.locMon || legacy.regMon != spec.regMon || legacy.extra != spec.extra {
		t.Fatalf("slot %d: per-type values diverged: %+v vs %+v", slot, legacy, spec)
	}
	if legacy.events != spec.events {
		t.Fatalf("slot %d: event count %d != %d", slot, legacy.events, spec.events)
	}
	if !slices.Equal(legacy.results, spec.results) {
		t.Fatalf("slot %d: per-query results diverged:\n legacy %+v\n spec   %+v", slot, legacy.results, spec.results)
	}
}

// TestSubmitSpecGoldenEquivalence: on a fixed-seed RWM workload mixing
// seven query kinds, the same specs submitted to two aggregators over
// twin worlds produce bit-identical SlotReports (welfare, values,
// payments) — Submit and the slot pipeline carry no hidden state from
// one run to the next.
func TestSubmitSpecGoldenEquivalence(t *testing.T) {
	const seed, sensors, slots = 17, 150, 8
	first := NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}))
	second := NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}))
	both := []*Aggregator{first, second}

	// Continuous queries once, before slot 0.
	submitAll(t, both, LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: slots, Budget: 150, Samples: 4})
	submitAll(t, both, EventDetectionSpec{ID: "ev", Loc: Pt(35, 30), Duration: slots, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30})
	submitAll(t, both, RegionEventSpec{ID: "re", Region: NewRect(25, 25, 40, 40), Duration: slots, Threshold: 0.5, Confidence: 0.5, BudgetPerSlot: 60})

	for slot := 0; slot < slots; slot++ {
		for i := 0; i < 25; i++ {
			x := 15 + float64((i*37+slot*11)%50)
			y := 15 + float64((i*53+slot*29)%50)
			submitAll(t, both, PointSpec{ID: fmt.Sprintf("pt-%d-%d", slot, i), Loc: Pt(x, y), Budget: 10 + float64(i%7)})
		}
		for i := 0; i < 3; i++ {
			submitAll(t, both, MultiPointSpec{ID: fmt.Sprintf("mp-%d-%d", slot, i), Loc: Pt(30+float64(i), 32), Budget: 60, K: 4})
		}
		for i := 0; i < 2; i++ {
			r := NewRect(20+float64(5*i), 20, 38+float64(5*i), 38)
			submitAll(t, both, AggregateSpec{ID: fmt.Sprintf("agg-%d-%d", slot, i), Region: r, Budget: 250})
		}
		path := Trajectory{Waypoints: []Point{Pt(20, 20), Pt(35, 30), Pt(45, 45)}}
		submitAll(t, both, TrajectorySpec{ID: fmt.Sprintf("tr-%d", slot), Path: path, Budget: 120})

		requireIdentical(t, slot, snapshot(first.RunSlot()), snapshot(second.RunSlot()))
	}
}

// TestSubmitSpecGoldenEquivalenceRegionMonitoring covers the eighth kind
// on the GP-model world it requires.
func TestSubmitSpecGoldenEquivalenceRegionMonitoring(t *testing.T) {
	const seed, slots = 5, 6
	first := NewAggregator(NewIntelLabWorld(seed, SensorConfig{}))
	second := NewAggregator(NewIntelLabWorld(seed, SensorConfig{}))
	both := []*Aggregator{first, second}

	submitAll(t, both, RegionMonitoringSpec{ID: "rm", Region: NewRect(1, 1, 15, 12), Duration: slots, Budget: 200})
	for slot := 0; slot < slots; slot++ {
		// A little point demand so sensors get shared.
		submitAll(t, both, PointSpec{ID: fmt.Sprintf("pt-%d", slot), Loc: Pt(10, 8), Budget: 15})
		requireIdentical(t, slot, snapshot(first.RunSlot()), snapshot(second.RunSlot()))
	}
}

// TestSubmittedQueryMetadata: Submit reports kind, window and the
// concrete underlying query.
func TestSubmittedQueryMetadata(t *testing.T) {
	world := NewRWMWorld(2, 50, SensorConfig{})
	agg := NewAggregator(world)

	sq, err := agg.Submit(PointSpec{ID: "p", Loc: Pt(30, 30), Budget: 10})
	if err != nil {
		t.Fatalf("submit point: %v", err)
	}
	if sq.ID != "p" || sq.Kind != KindPoint || sq.Start != sq.End || sq.Start != agg.NextSlot() {
		t.Errorf("point SubmittedQuery = %+v", sq)
	}
	if _, ok := sq.Underlying().(*PointQuery); !ok {
		t.Errorf("point Underlying = %T", sq.Underlying())
	}

	sq, err = agg.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: 7, Budget: 100, Samples: 3})
	if err != nil {
		t.Fatalf("submit locmon: %v", err)
	}
	if sq.Kind != KindLocationMonitoring || sq.End-sq.Start != 6 {
		t.Errorf("locmon SubmittedQuery = %+v, want a 7-slot window", sq)
	}
	lm, ok := sq.Underlying().(*LocationMonitoringQuery)
	if !ok || lm.Start != sq.Start || lm.End != sq.End {
		t.Errorf("locmon Underlying = %#v vs %+v", lm, sq)
	}

	// Nil specs — untyped or typed-nil pointers — are refused, not
	// dereferenced.
	if _, err := agg.Submit(nil); err == nil {
		t.Error("Submit(nil) succeeded")
	}
	var typedNil *PointSpec
	if _, err := agg.Submit(typedNil); err == nil {
		t.Error("Submit(typed nil) succeeded")
	}

	// Pointer specs are a sanctioned form (value-receiver methods
	// promote); they materialize like their value counterparts.
	sq, err = agg.Submit(&PointSpec{ID: "pp", Loc: Pt(30, 30), Budget: 10})
	if err != nil || sq.Kind != KindPoint {
		t.Errorf("Submit(*PointSpec) = %+v, %v", sq, err)
	}
}

// TestSlotReportOutcomes: the bulk iterator agrees with the per-id
// getters and covers answered-but-zero-value continuous queries.
func TestSlotReportOutcomes(t *testing.T) {
	world := NewRWMWorld(3, 200, SensorConfig{})
	agg := NewAggregator(world)
	if _, err := agg.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: 4, Budget: 120, Samples: 2}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := agg.Submit(PointSpec{ID: fmt.Sprintf("p%d", i), Loc: Pt(30+float64(i), 30), Budget: 20}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	rep := agg.RunSlot()

	got := map[string]QueryOutcome{}
	for id, o := range rep.Outcomes() {
		if _, dup := got[id]; dup {
			t.Errorf("Outcomes yielded %q twice", id)
		}
		if strings.Contains(id, "@t") {
			t.Errorf("Outcomes leaked derived probe ID %q; continuous work must appear under the parent ID only", id)
		}
		got[id] = o
	}
	if len(got) == 0 {
		t.Fatal("Outcomes yielded nothing on a dense slot")
	}
	for id, o := range got {
		if o.Answered != rep.Answered(id) || o.Value != rep.Value(id) || o.Payment != rep.Payment(id) {
			t.Errorf("outcome %q = %+v disagrees with getters (%v, %v, %v)",
				id, o, rep.Answered(id), rep.Value(id), rep.Payment(id))
		}
	}
	// Early break must not panic or leak.
	for range rep.Outcomes() {
		break
	}
}

// TestDescribeSubmissionMatchesSubmit: the window a cluster coordinator
// computes for a posted submit is the one Aggregator.Submit binds, for
// every kind, before the first slot and after some have run, with
// one-slot and longer continuous windows, and for pointer specs.
func TestDescribeSubmissionMatchesSubmit(t *testing.T) {
	path := Trajectory{Waypoints: []Point{Pt(20, 20), Pt(40, 35)}}
	region := NewRect(2, 2, 9, 9)
	specs := func(d int) []Spec {
		return []Spec{
			PointSpec{ID: "p", Loc: Pt(5, 5), Budget: 10},
			MultiPointSpec{ID: "mp", Loc: Pt(5, 5), Budget: 10, K: 3},
			AggregateSpec{ID: "a", Region: region, Budget: 100},
			TrajectorySpec{ID: "tr", Path: path, Budget: 50},
			&TrajectorySpec{ID: "trp", Path: path, Budget: 50},
			LocationMonitoringSpec{ID: "lm", Loc: Pt(5, 5), Duration: d, Budget: 100, Samples: 1},
			RegionMonitoringSpec{ID: "rm", Region: region, Duration: d, Budget: 100},
			EventDetectionSpec{ID: "ev", Loc: Pt(5, 5), Duration: d, Threshold: 1, Confidence: 0.9, BudgetPerSlot: 10},
			&RegionEventSpec{ID: "re", Region: region, Duration: d, Threshold: 1, Confidence: 0.9, BudgetPerSlot: 10},
		}
	}
	agg := NewAggregator(NewIntelLabWorld(1, SensorConfig{}))
	kinds := map[QueryKind]bool{}
	for round, d := range []int{1, 4, 9} {
		for _, spec := range specs(d) {
			want := DescribeSubmission(spec, agg.NextSlot())
			got, err := agg.Submit(spec)
			if err != nil {
				t.Fatalf("round %d: Submit(%s %q): %v", round, spec.Kind(), spec.QueryID(), err)
			}
			if got.ID != want.ID || got.Kind != want.Kind || got.Start != want.Start || got.End != want.End {
				t.Errorf("round %d, duration %d: Submit(%s) = {%s %s %d %d}, DescribeSubmission = {%s %s %d %d}",
					round, d, spec.Kind(), got.ID, got.Kind, got.Start, got.End, want.ID, want.Kind, want.Start, want.End)
			}
			length := 1 // one-shot kinds
			if want.Kind >= KindLocationMonitoring {
				length = d
			}
			if want.Start != agg.NextSlot() || want.End != want.Start+length-1 {
				t.Errorf("round %d: %s window [%d, %d] at next slot %d, want %d slots", round, spec.Kind(), want.Start, want.End, agg.NextSlot(), length)
			}
			if want.Underlying() != nil {
				t.Errorf("DescribeSubmission(%s) carries a query object", spec.Kind())
			}
			kinds[got.Kind] = true
			agg.CancelQuery(spec.QueryID())
		}
		agg.RunSlot()
		agg.RunSlot()
	}
	if len(kinds) != 8 {
		t.Errorf("covered %d kinds, want all 8", len(kinds))
	}
}
