package mobility

import (
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

func TestRandomWaypointStaysInRegion(t *testing.T) {
	region := geo.NewRect(0, 0, 80, 80)
	m := NewRandomWaypoint(50, region, nil, rng.New(1, "rwm"))
	if m.N() != 50 {
		t.Fatalf("N=%d", m.N())
	}
	for slot := 0; slot < 100; slot++ {
		for i, p := range m.Step() {
			if !region.Contains(p) {
				t.Fatalf("slot %d sensor %d escaped region: %v", slot, i, p)
			}
		}
	}
}

func TestRandomWaypointAxisAlignedMoves(t *testing.T) {
	region := geo.NewRect(0, 0, 1000, 1000) // huge so clamping never kicks in
	m := NewRandomWaypoint(20, region, []float64{5}, rng.New(2, "rwm2"))
	// Step's result is valid until the next Step: keep a copy to compare.
	prev := slices.Clone(m.Step())
	for slot := 0; slot < 20; slot++ {
		cur := m.Step()
		for i := range cur {
			dx := cur[i].X - prev[i].X
			dy := cur[i].Y - prev[i].Y
			if dx != 0 && dy != 0 {
				t.Fatalf("diagonal move: sensor %d moved (%v,%v)", i, dx, dy)
			}
			if dx > 5+1e-9 || dx < -5-1e-9 || dy > 5+1e-9 || dy < -5-1e-9 {
				t.Fatalf("sensor %d moved faster than max speed: (%v,%v)", i, dx, dy)
			}
		}
		copy(prev, cur)
	}
}

func TestRandomWaypointDeterminism(t *testing.T) {
	region := geo.NewRect(0, 0, 80, 80)
	a := NewRandomWaypoint(10, region, nil, rng.New(7, "det"))
	b := NewRandomWaypoint(10, region, nil, rng.New(7, "det"))
	for slot := 0; slot < 10; slot++ {
		pa, pb := a.Step(), b.Step()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("slot %d sensor %d diverged", slot, i)
			}
		}
	}
}

func TestRandomWaypointEventuallyMoves(t *testing.T) {
	region := geo.NewRect(0, 0, 80, 80)
	m := NewRandomWaypoint(5, region, nil, rng.New(3, "mv"))
	start := slices.Clone(m.Step())
	moved := false
	for slot := 0; slot < 20 && !moved; slot++ {
		for i, p := range m.Step() {
			if p != start[i] {
				moved = true
				break
			}
		}
	}
	if !moved {
		t.Error("no sensor moved over 20 slots")
	}
}

func TestTripSynthesizerStaysInRegion(t *testing.T) {
	region := geo.NewRect(0, 0, 237, 300)
	hotspot := geo.NewRect(70, 100, 170, 200)
	m := NewTripSynthesizer(100, region, hotspot, TripConfig{}, rng.New(4, "trip"))
	for slot := 0; slot < 60; slot++ {
		for i, p := range m.Step() {
			if !region.Contains(p) {
				t.Fatalf("slot %d sensor %d escaped: %v", slot, i, p)
			}
		}
	}
}

// TestTripSynthesizerCalibration checks the RNC substitution: with the
// paper's geometry (237x300 region, 100x100 hotspot, 635 sensors) the
// per-slot hotspot population must be in the vicinity of the reported 120.
func TestTripSynthesizerCalibration(t *testing.T) {
	region := geo.NewRect(0, 0, 237, 300)
	hotspot := geo.NewRect(70, 100, 170, 200)
	m := NewTripSynthesizer(635, region, hotspot, TripConfig{}, rng.New(5, "rnc"))
	var total int
	slots := 50
	for slot := 0; slot < slots; slot++ {
		for _, p := range m.Step() {
			if hotspot.Contains(p) {
				total++
			}
		}
	}
	avg := float64(total) / float64(slots)
	if avg < 90 || avg > 160 {
		t.Errorf("hotspot population = %.1f, want ≈120 (90..160)", avg)
	}
}

func TestTripSynthesizerChurn(t *testing.T) {
	// Sensors must enter AND leave the hotspot over time — churn is what
	// motivates the paper's myopic optimization.
	region := geo.NewRect(0, 0, 237, 300)
	hotspot := geo.NewRect(70, 100, 170, 200)
	m := NewTripSynthesizer(200, region, hotspot, TripConfig{}, rng.New(6, "churn"))
	inPrev := make([]bool, m.N())
	for i, p := range m.Step() {
		inPrev[i] = hotspot.Contains(p)
	}
	entered, left := 0, 0
	for slot := 0; slot < 50; slot++ {
		for i, p := range m.Step() {
			now := hotspot.Contains(p)
			if now && !inPrev[i] {
				entered++
			}
			if !now && inPrev[i] {
				left++
			}
			inPrev[i] = now
		}
	}
	if entered < 20 || left < 20 {
		t.Errorf("hotspot churn too low: entered=%d left=%d", entered, left)
	}
}

func TestStationaryNeverMoves(t *testing.T) {
	pts := []geo.Point{geo.Pt(1, 2), geo.Pt(3, 4)}
	m := NewStationary(pts)
	if m.N() != 2 {
		t.Fatalf("N=%d", m.N())
	}
	for slot := 0; slot < 5; slot++ {
		got := m.Step()
		for i := range pts {
			if got[i] != pts[i] {
				t.Fatalf("stationary sensor moved: %v", got[i])
			}
		}
	}
}

// TestStepReturnsTheModelsOwnSlice pins the Step contract: no model copies
// its positions per slot (a 20 000-sensor fleet steps once a slot on every
// replica), so the slice is the same storage every time.
func TestStepReturnsTheModelsOwnSlice(t *testing.T) {
	region := geo.NewRect(0, 0, 80, 80)
	for name, m := range map[string]Model{
		"rwm":        NewRandomWaypoint(50, region, nil, rng.New(8, "own")),
		"trip":       NewTripSynthesizer(50, region, geo.NewRect(20, 20, 40, 40), TripConfig{}, rng.New(8, "own")),
		"stationary": NewStationary(make([]geo.Point, 50)),
	} {
		first := m.Step()
		if allocs := testing.AllocsPerRun(10, func() { m.Step() }); allocs != 0 {
			t.Errorf("%s: Step allocates %v times", name, allocs)
		}
		if again := m.Step(); &again[0] != &first[0] {
			t.Errorf("%s: Step returned a fresh slice", name)
		}
	}
}
