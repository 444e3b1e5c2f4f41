package query

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
)

func TestRegionEventLifecycle(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	e := NewRegionEvent("re1", geo.NewRect(2, 2, 12, 10), 3, 10, 50, 0.8, 100, 4, grid)
	if e.Active(2) || !e.Active(3) || !e.Active(10) || e.Active(11) {
		t.Error("Active window wrong")
	}
	probe, ok := e.CreateProbe(5)
	if !ok {
		t.Fatal("active slot produced no probe")
	}
	if probe.Region != e.Region || probe.Budget() != 100 {
		t.Errorf("probe misconfigured: %+v", probe)
	}
	if _, ok := e.CreateProbe(99); ok {
		t.Error("inactive slot created a probe")
	}
}

func TestRegionEventConfidenceClamping(t *testing.T) {
	grid := geo.NewUnitGrid(10, 10)
	e := NewRegionEvent("re", geo.NewRect(0, 0, 5, 5), 0, 5, 10, 2.0, 10, 3, grid)
	if e.Confidence >= 1 {
		t.Errorf("confidence not clamped: %v", e.Confidence)
	}
	e2 := NewRegionEvent("re", geo.NewRect(0, 0, 5, 5), 0, 5, 10, -1, 10, 3, grid)
	if e2.Confidence != 0.9 {
		t.Errorf("non-positive confidence default = %v", e2.Confidence)
	}
}

func TestRegionEventDetectionConfidence(t *testing.T) {
	grid := geo.NewUnitGrid(10, 10)
	e := NewRegionEvent("re", geo.NewRect(0, 0, 5, 5), 0, 5, 10, 0.8, 10, 3, grid)

	// Coverage scales confidence: trusted readings but half coverage.
	full := e.DetectionConfidence([]float64{0.9, 0.9}, 1.0)
	half := e.DetectionConfidence([]float64{0.9, 0.9}, 0.5)
	if math.Abs(half-full/2) > 1e-12 {
		t.Errorf("coverage should scale confidence linearly: %v vs %v", half, full)
	}
	// Zero coverage kills confidence regardless of trust.
	if c := e.DetectionConfidence([]float64{1, 1}, 0); c != 0 {
		t.Errorf("zero-coverage confidence = %v", c)
	}
	// Inputs clamp.
	if c := e.DetectionConfidence([]float64{2, -1}, 2); c != 1 {
		t.Errorf("clamped confidence = %v want 1", c)
	}
}

func TestRegionEventEvaluate(t *testing.T) {
	grid := geo.NewUnitGrid(10, 10)
	e := NewRegionEvent("re", geo.NewRect(0, 0, 5, 5), 0, 5, 50, 0.7, 10, 3, grid)

	// Above-threshold average with good coverage and trust: detected.
	det, conf, avg := e.Evaluate([]float64{55, 60}, []float64{0.9, 0.8}, 0.95)
	if !det {
		t.Errorf("expected detection: conf=%v avg=%v", conf, avg)
	}
	if avg <= 50 {
		t.Errorf("weighted avg = %v", avg)
	}

	// Same readings, poor coverage: confidence collapses, no detection.
	if det, conf, _ := e.Evaluate([]float64{55, 60}, []float64{0.9, 0.8}, 0.3); det || conf >= 0.7 {
		t.Errorf("low-coverage detection: det=%v conf=%v", det, conf)
	}

	// Below threshold: no detection even at full confidence.
	if det, _, _ := e.Evaluate([]float64{40, 45}, []float64{0.9, 0.9}, 1.0); det {
		t.Error("false positive below threshold")
	}

	// Degenerate inputs.
	if det, conf, avg := e.Evaluate(nil, nil, 1); det || conf != 0 || avg != 0 {
		t.Error("empty evaluate should be all-zero")
	}
	if det, _, _ := e.Evaluate([]float64{60}, []float64{0}, 1); det {
		t.Error("zero-quality readings cannot detect")
	}
	if det, _, _ := e.Evaluate([]float64{60, 61}, []float64{0.9}, 1); det {
		t.Error("mismatched lengths must not detect")
	}
}

func TestRegionEventWeightedAverage(t *testing.T) {
	grid := geo.NewUnitGrid(10, 10)
	e := NewRegionEvent("re", geo.NewRect(0, 0, 5, 5), 0, 5, 0, 0.5, 10, 3, grid)
	// Weighted mean of 10 (w=0.9) and 20 (w=0.1) = 11.
	_, _, avg := e.Evaluate([]float64{10, 20}, []float64{0.9, 0.1}, 1)
	if math.Abs(avg-11) > 1e-9 {
		t.Errorf("weighted avg = %v want 11", avg)
	}
}

// TestRegionEventProbeAllocations: a region event derives its grid
// cells once. Each slot's probe state takes them as its coverage targets
// and the coverage count reads them, so neither builds a cell list: a
// probe state makes only its own two allocations (the state and its
// coverage bitset), and the count makes none. Both give what a freshly
// derived cell list gives.
func TestRegionEventProbeAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	grid := geo.NewUnitGrid(30, 20)
	region := geo.NewRect(3, 2, 17, 13)
	e := NewRegionEvent("re", region, 0, 9, 0.5, 0.8, 40, 4, grid)
	probe, ok := e.CreateProbe(3)
	if !ok {
		t.Fatal("no probe in an active slot")
	}
	cells, cols := grid.CellBlock(region)
	st := probe.NewState().(*coverageState)
	if !slices.Equal(st.targets, cells) || st.cols != cols || &st.targets[0] != &e.cells[0] {
		t.Fatalf("probe state targets: %d cells in rows of %d, want the event's %d in rows of %d", len(st.targets), st.cols, len(cells), cols)
	}
	positions := []geo.Point{geo.Pt(5, 5), geo.Pt(12, 9), geo.Pt(16, 3)}
	if got, want := e.Coverage(positions), geo.CoverageFraction(cells, positions, 4); got != want || got <= 0 {
		t.Fatalf("Coverage %v, from a fresh cell list %v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { probe.NewState() }); n > 2 {
		t.Errorf("a probe state made %v allocations, want 2 (state and bitset)", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.Coverage(positions) }); n != 0 {
		t.Errorf("the coverage count made %v allocations, want 0", n)
	}
}
