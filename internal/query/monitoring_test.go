package query

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/regression"
	"repro/internal/rng"
)

func ozoneHistory(t *testing.T, n int) *regression.Series {
	t.Helper()
	vals := field.DefaultOzone().Generate(n, rng.New(31, "hist"))
	times := make([]float64, n)
	for i := range times {
		times[i] = float64(i)
	}
	s, err := regression.NewSeries(times, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocationMonitoringDesiredTimes(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(5, 5), 10, 25, 100, 10, h, 5)
	if len(q.Desired) == 0 {
		t.Fatal("no desired sampling times selected")
	}
	for i, d := range q.Desired {
		if i > 0 && q.Desired[i-1] >= d {
			t.Error("desired times not strictly sorted")
		}
		_ = d
	}
}

func TestLocationMonitoringActive(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(0, 0), 10, 20, 50, 10, h, 3)
	if q.Active(9) || !q.Active(10) || !q.Active(20) || q.Active(21) {
		t.Error("Active window wrong")
	}
}

func TestLocationMonitoringCreatePointQueryLifecycle(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 20, 100, 10, h, 4)
	// First slot initializes state and should produce a query with positive
	// budget (urgent or opportunistic).
	p, ok := q.CreatePointQuery(0)
	if !ok {
		t.Skip("first slot produced no worthwhile sample for this trace")
	}
	if p.Budget() <= 0 {
		t.Fatalf("point budget = %v", p.Budget())
	}
	if p.Loc != q.Loc {
		t.Error("point query at wrong location")
	}
	// Satisfy it.
	q.ApplyResults(0, true, p.Budget()/2, 0.8)
	if len(q.Sampled) != 1 || q.Spent != p.Budget()/2 {
		t.Fatalf("state after success: %v spent %v", q.Sampled, q.Spent)
	}
	if q.Value() <= 0 {
		t.Error("value after one sample should be positive")
	}
}

func TestLocationMonitoringUrgentAtDesiredTime(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 30, 100, 10, h, 5)
	if len(q.Desired) == 0 {
		t.Skip("no desired times")
	}
	desired := int(q.Desired[0])
	q.CreatePointQuery(0) // init
	pUrgent, okUrgent := q.CreatePointQuery(desired)
	if !okUrgent {
		t.Fatal("desired slot produced no query")
	}
	// Urgent budget equals the full marginal value: must be at least any
	// opportunistic alpha-capped budget at the same state.
	if pUrgent.Budget() <= 0 {
		t.Errorf("urgent budget = %v", pUrgent.Budget())
	}
}

func TestLocationMonitoringMissedDesiredTriggersRetry(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 30, 100, 10, h, 5)
	if len(q.Desired) == 0 {
		t.Skip("no desired times")
	}
	q.CreatePointQuery(0)
	first := int(q.Desired[0])
	// Fail the desired slot.
	q.ApplyResults(first, false, 0, 0)
	if !q.missedPending(first + 1) {
		t.Error("missed desired time should be pending")
	}
	// Succeeding later clears the pending miss.
	q.ApplyResults(first+1, true, 1, 0.9)
	if q.missedPending(first + 2) {
		t.Error("pending miss should clear after a successful catch-up sample")
	}
}

func TestLocationMonitoringOpportunisticCappedByAlpha(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 30, 100, 10, h, 2)
	q.Alpha = 0.5
	q.CreatePointQuery(0)
	// Take a cheap successful sample to build surplus.
	q.ApplyResults(0, true, 0.1, 0.9)
	// Advance past desired times artificially by marking them satisfied.
	for _, d := range q.Desired {
		q.ApplyResults(int(d), true, 0.1, 0.9)
	}
	// Now past schedule -> urgent branch; value-based budget still finite.
	p, ok := q.CreatePointQuery(29)
	if ok && (math.IsInf(p.Budget(), 0) || math.IsNaN(p.Budget())) {
		t.Errorf("budget must be finite, got %v", p.Budget())
	}
}

func TestLocationMonitoringQualityBounds(t *testing.T) {
	h := ozoneHistory(t, 50)
	q := NewLocationMonitoring("lm1", geo.Pt(5, 5), 0, 20, 100, 10, h, 4)
	if q.Quality() != 0 {
		t.Error("quality before sampling != 0")
	}
	q.CreatePointQuery(0)
	for slot := 0; slot <= 20; slot++ {
		q.ApplyResults(slot, true, 0.5, 0.8)
	}
	if q.Quality() < 0 {
		t.Errorf("quality = %v", q.Quality())
	}
}

func TestRegionMonitoringValueAndF(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	q := NewRegionMonitoring("rm1", geo.NewRect(2, 2, 10, 8), 0, 20, 200, model, grid)
	if len(q.Targets()) == 0 {
		t.Fatal("no target cells")
	}
	if q.F(nil) != 0 {
		t.Error("F(empty) != 0")
	}
	obs := []geo.Point{geo.Pt(4, 4), geo.Pt(8, 6)}
	f2 := q.F(obs)
	if f2 <= 0 {
		t.Fatalf("F = %v", f2)
	}
	// Monotone in observations.
	f3 := q.F(append(obs, geo.Pt(6, 5)))
	if f3 < f2-1e-9 {
		t.Errorf("F not monotone: %v -> %v", f2, f3)
	}
	v := q.ValueOf(obs, []float64{0.9, 0.8})
	if v <= 0 || math.IsNaN(v) {
		t.Errorf("value = %v", v)
	}
}

func TestRegionMonitoringRuntime(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	q := NewRegionMonitoring("rm1", geo.NewRect(2, 2, 10, 8), 3, 20, 100, model, grid)
	if q.Active(2) || !q.Active(3) || !q.Active(20) || q.Active(21) {
		t.Error("Active window wrong")
	}
	q.ResetIfNeeded(3)
	q.Record(geo.Pt(5, 5), 0.9, 7)
	if q.Spent != 7 || len(q.ObsPoints) != 1 {
		t.Error("Record bookkeeping wrong")
	}
	if q.RemainingBudget() != 93 {
		t.Errorf("remaining = %v", q.RemainingBudget())
	}
	if q.Value() <= 0 {
		t.Error("value after recording should be positive")
	}
	if q.Quality() <= 0 {
		t.Error("quality should be positive")
	}
	// Reset at start slot clears state.
	q.ResetIfNeeded(3)
	if len(q.ObsPoints) != 0 || q.Spent != 0 {
		t.Error("ResetIfNeeded at start slot must clear state")
	}
}

func TestRegionMonitoringQualityCanExceedOne(t *testing.T) {
	// With RefFraction < 1 and dense high-quality coverage, quality > 1 is
	// reachable (the paper's Fig 9(b) shows >1 most of the time).
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 4}, 0.01)
	q := NewRegionMonitoring("rm1", geo.NewRect(2, 2, 8, 8), 0, 10, 100, model, grid)
	q.ResetIfNeeded(0)
	for x := 2.0; x <= 8; x += 2 {
		for y := 2.0; y <= 8; y += 2 {
			q.Record(geo.Pt(x, y), 1.0, 0)
		}
	}
	if q.Quality() <= 1 {
		t.Errorf("dense coverage quality = %v, want > 1", q.Quality())
	}
}

func TestEventDetection(t *testing.T) {
	e := NewEventDetection("ev1", geo.Pt(5, 5), 0, 10, 80, 0.9, 30, 10)
	if !e.Active(0) || e.Active(11) {
		t.Error("Active window wrong")
	}
	// Required readings: theta 0.7 -> 1-(0.3)^k >= 0.9 -> k=2.
	if k := e.RequiredReadings(0.7); k != 2 {
		t.Errorf("RequiredReadings(0.7) = %d want 2", k)
	}
	if k := e.RequiredReadings(0); k != 1 {
		t.Errorf("RequiredReadings(0) = %d want 1", k)
	}
	if k := e.RequiredReadings(0.01); k != 5 {
		t.Errorf("RequiredReadings(0.01) = %d want capped 5", k)
	}
	mp, ok := e.CreatePointQuery(3)
	if !ok || mp.K != 2 {
		t.Fatalf("CreatePointQuery: ok=%v K=%d", ok, mp.K)
	}
	if _, ok := e.CreatePointQuery(99); ok {
		t.Error("inactive slot should create no query")
	}

	conf := e.DetectionConfidence([]float64{0.7, 0.7})
	if math.Abs(conf-0.91) > 1e-9 {
		t.Errorf("fused confidence = %v want 0.91", conf)
	}

	// Event above threshold with confident readings.
	det, c := e.Evaluate([]float64{85, 90}, []float64{0.7, 0.7})
	if !det || c < 0.9 {
		t.Errorf("Evaluate = %v, %v; want detection", det, c)
	}
	// Below threshold: no event.
	if det, _ := e.Evaluate([]float64{50, 60}, []float64{0.7, 0.7}); det {
		t.Error("false positive below threshold")
	}
	// Insufficient confidence: no event.
	if det, _ := e.Evaluate([]float64{85}, []float64{0.5}); det {
		t.Error("detection without confidence")
	}
	// Degenerate inputs.
	if det, c := e.Evaluate(nil, nil); det || c != 0 {
		t.Error("empty evaluate should be negative")
	}
	if det, _ := e.Evaluate([]float64{85}, []float64{0}); det {
		t.Error("zero-quality readings cannot detect")
	}
}

func TestEventDetectionConfidenceClamping(t *testing.T) {
	e := NewEventDetection("ev", geo.Pt(0, 0), 0, 5, 10, 2.0, 5, 5) // confidence > 1 clamps
	if e.Confidence >= 1 {
		t.Errorf("confidence not clamped: %v", e.Confidence)
	}
	e2 := NewEventDetection("ev", geo.Pt(0, 0), 0, 5, 10, -1, 5, 5)
	if e2.Confidence != 0.9 {
		t.Errorf("non-positive confidence default = %v", e2.Confidence)
	}
}

// TestRegionMonitoringValueMemo: Value is computed once per observation
// set and is always the valuation of the current one — Record and the
// reset at the start slot drop the remembered answer.
func TestRegionMonitoringValueMemo(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	q := NewRegionMonitoring("rm", geo.NewRect(2, 2, 10, 8), 3, 20, 100, model, grid)
	fresh := func() float64 { return q.ValueOf(q.ObsPoints, q.Thetas) }

	q.ResetIfNeeded(3)
	if q.Value() != 0 {
		t.Fatal("value of nothing observed")
	}
	q.Record(geo.Pt(5, 5), 0.9, 7)
	v1 := q.Value()
	if v1 <= 0 || v1 != fresh() {
		t.Fatalf("after the first Record: Value %v, recomputed %v", v1, fresh())
	}
	if q.Value() != v1 || q.PlanValue(nil, nil) != v1 {
		t.Error("a second Value, or the value of an empty plan, differs from the first")
	}
	q.Record(geo.Pt(8, 4), 0.7, 5)
	v2 := q.Value()
	if v2 == v1 || v2 != fresh() {
		t.Fatalf("after the second Record: Value %v (was %v), recomputed %v", v2, v1, fresh())
	}
	q.ResetIfNeeded(5) // not the start slot: state and value stay
	if q.Value() != v2 {
		t.Error("ResetIfNeeded off the start slot changed the value")
	}
	q.ResetIfNeeded(3)
	if q.Value() != 0 {
		t.Errorf("after the reset at the start slot: Value %v, want 0", q.Value())
	}
}

// TestPlanMarginalsMatchLeaveOneOut: the marginals computed over one set
// of kernel entries are exactly PlanValue(plan) - PlanValue(plan \ {i}),
// with and without accumulated observations, for plans of one and several
// points, including a plan point on an observed spot.
func TestPlanMarginalsMatchLeaveOneOut(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	q := NewRegionMonitoring("rm", geo.NewRect(2, 2, 10, 8), 0, 10, 100, model, grid)
	q.ResetIfNeeded(0)
	plan := []geo.Point{geo.Pt(4, 4), geo.Pt(7, 6), geo.Pt(3, 7), geo.Pt(9, 3), geo.Pt(6, 5)}
	thetas := []float64{0.9, 0.8, 0.75, 0.95, 0.6}
	for round := 0; round < 3; round++ {
		for n := 1; n <= len(plan); n++ {
			got := q.PlanMarginals(plan[:n], thetas[:n])
			full := q.PlanValue(plan[:n], thetas[:n])
			for i := 0; i < n; i++ {
				var rest []geo.Point
				var restThetas []float64
				for j := 0; j < n; j++ {
					if j != i {
						rest = append(rest, plan[j])
						restThetas = append(restThetas, thetas[j])
					}
				}
				if want := full - q.PlanValue(rest, restThetas); got[i] != want {
					t.Fatalf("%d observations, plan of %d: marginal %d = %v, leave-one-out %v", len(q.ObsPoints), n, i, got[i], want)
				}
			}
		}
		q.Record(geo.Pt(5+float64(round), 5), 0.85, 3)
		q.Record(plan[4], 0.6, 2)
	}
}
