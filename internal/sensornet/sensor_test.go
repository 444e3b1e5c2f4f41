package sensornet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/rng"
)

func TestQualityEq4(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.Inaccuracy = 0.1
	s.Trust = 0.8
	// At distance 0: (1-0.1)*(1-0)*0.8 = 0.72.
	if got := s.Quality(geo.Pt(0, 0), 5); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("quality at 0 = %v want 0.72", got)
	}
	// At distance 2.5 of dmax 5: factor (1-0.5).
	if got := s.Quality(geo.Pt(2.5, 0), 5); math.Abs(got-0.36) > 1e-12 {
		t.Errorf("quality at half range = %v want 0.36", got)
	}
	// Beyond dmax: zero.
	if got := s.Quality(geo.Pt(5.01, 0), 5); got != 0 {
		t.Errorf("quality beyond range = %v want 0", got)
	}
	// Exactly at dmax: zero quality by the distance term.
	if got := s.Quality(geo.Pt(5, 0), 5); got != 0 {
		t.Errorf("quality at dmax = %v want 0", got)
	}
}

func TestQualityRangeProperty(t *testing.T) {
	f := func(gammaRaw, trustRaw, dxRaw uint8) bool {
		s := NewSensor(1, geo.Pt(0, 0))
		s.Inaccuracy = float64(gammaRaw%21) / 100 // [0,0.2]
		s.Trust = float64(trustRaw%101) / 100
		d := float64(dxRaw) / 10
		q := s.Quality(geo.Pt(d, 0), 5)
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedEnergyCost(t *testing.T) {
	m := FixedEnergyCost{}
	if m.EnergyCost(10, 1) != 10 || m.EnergyCost(10, 0) != 10 {
		t.Error("fixed cost must ignore energy")
	}
}

func TestLinearEnergyCost(t *testing.T) {
	m := LinearEnergyCost{Beta: 2}
	if got := m.EnergyCost(10, 1); got != 10 {
		t.Errorf("full energy cost = %v want 10", got)
	}
	if got := m.EnergyCost(10, 0.5); got != 20 {
		t.Errorf("half energy cost = %v want 20", got)
	}
	if got := m.EnergyCost(10, 0); got != 30 {
		t.Errorf("empty energy cost = %v want 30", got)
	}
	// Energy outside [0,1] clamps.
	if got := m.EnergyCost(10, -0.5); got != 30 {
		t.Errorf("clamped low = %v", got)
	}
	if got := m.EnergyCost(10, 2); got != 10 {
		t.Errorf("clamped high = %v", got)
	}
}

func TestLifetimeAndEnergy(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.Lifetime = 4
	if !s.Alive() || s.RemainingEnergy() != 1 {
		t.Fatal("fresh sensor state wrong")
	}
	for i := 0; i < 4; i++ {
		s.RecordReading(i)
	}
	if s.Alive() {
		t.Error("sensor should be exhausted after lifetime readings")
	}
	if s.RemainingEnergy() != 0 {
		t.Errorf("energy = %v want 0", s.RemainingEnergy())
	}
	if s.readings != 4 {
		t.Errorf("readings = %d", s.readings)
	}
}

func TestPrivacyLossEmptyHistory(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.PrivacyWindow = 10
	// Eq. 14 with empty history: w / (w(w+1)/2) = 2/(w+1).
	want := 2.0 / 11
	if got := s.PrivacyLoss(5); math.Abs(got-want) > 1e-12 {
		t.Errorf("empty-history privacy loss = %v want %v", got, want)
	}
}

func TestPrivacyLossRecentReportsWeighMore(t *testing.T) {
	recent := NewSensor(1, geo.Pt(0, 0))
	recent.PrivacyWindow = 10
	recent.RecordReading(9) // one slot ago at now=10

	old := NewSensor(2, geo.Pt(0, 0))
	old.PrivacyWindow = 10
	old.RecordReading(2) // eight slots ago at now=10

	if recent.PrivacyLoss(10) <= old.PrivacyLoss(10) {
		t.Errorf("recent report should cost more privacy: recent=%v old=%v",
			recent.PrivacyLoss(10), old.PrivacyLoss(10))
	}
}

func TestPrivacyLossConsecutiveReporting(t *testing.T) {
	// Reporting every slot accumulates much more privacy loss than
	// reporting once, demonstrating the trajectory-hiding incentive.
	s := NewSensor(1, geo.Pt(0, 0))
	s.PrivacyWindow = 10
	for slot := 0; slot < 10; slot++ {
		s.RecordReading(slot)
	}
	many := s.PrivacyLoss(10)

	one := NewSensor(2, geo.Pt(0, 0))
	one.PrivacyWindow = 10
	one.RecordReading(9)
	single := one.PrivacyLoss(10)

	if many <= single*2 {
		t.Errorf("consecutive reporting loss %v should far exceed single %v", many, single)
	}
}

func TestPrivacyLossWindowExpiry(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.PrivacyWindow = 5
	s.RecordReading(0)
	// At now=10 the old report is outside the window: loss equals baseline.
	base := NewSensor(2, geo.Pt(0, 0))
	base.PrivacyWindow = 5
	if got, want := s.PrivacyLoss(10), base.PrivacyLoss(10); got != want {
		t.Errorf("expired report still counted: %v vs %v", got, want)
	}
}

func TestPrivacyCostEq15(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.Privacy = PrivacyHigh // 0.75
	s.BasePrice = 10
	s.PrivacyWindow = 10
	want := 0.75 * s.PrivacyLoss(3) * 10
	if got := s.PrivacyCost(3); math.Abs(got-want) > 1e-12 {
		t.Errorf("privacy cost = %v want %v", got, want)
	}
	s.Privacy = PrivacyZero
	if got := s.PrivacyCost(3); got != 0 {
		t.Errorf("zero PSL privacy cost = %v", got)
	}
}

func TestTotalCostEq8(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.Privacy = PrivacyVeryHigh
	s.Energy = LinearEnergyCost{Beta: 1}
	s.Lifetime = 10
	s.RecordReading(0)
	s.RecordReading(1) // energy 0.8
	now := 2
	wantEnergy := 10 * (1 + 1*(1-0.8))
	wantPrivacy := 1.0 * s.PrivacyLoss(now) * 10
	if got := s.Cost(now); math.Abs(got-(wantEnergy+wantPrivacy)) > 1e-9 {
		t.Errorf("cost = %v want %v", got, wantEnergy+wantPrivacy)
	}
}

func TestDefaultSensorCostIsBasePrice(t *testing.T) {
	// §4.1: Cs=10, fixed energy model, PSL Zero -> cost exactly 10 forever.
	s := NewSensor(1, geo.Pt(0, 0))
	for slot := 0; slot < 5; slot++ {
		if got := s.Cost(slot); got != 10 {
			t.Fatalf("slot %d default cost = %v want 10", slot, got)
		}
		s.RecordReading(slot)
	}
}

func TestPrivacyLevelString(t *testing.T) {
	if PrivacyModerate.String() != "Moderate" {
		t.Errorf("String() = %q", PrivacyModerate.String())
	}
	if PrivacyLevel(0.33).String() != "PSL(0.33)" {
		t.Errorf("custom String() = %q", PrivacyLevel(0.33).String())
	}
	if len(AllPrivacyLevels) != 5 {
		t.Error("expected 5 PSLs")
	}
}

func TestPrivacyHistoryTrimming(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.PrivacyWindow = 5
	s.Lifetime = 1000
	for slot := 0; slot < 500; slot++ {
		s.RecordReading(slot)
	}
	if len(s.history) > 6 {
		t.Errorf("history not trimmed: len=%d", len(s.history))
	}
}

func TestFleetStepFiltersAndAnnounces(t *testing.T) {
	working := geo.NewRect(0, 0, 10, 10)
	inside := NewSensor(0, geo.Pt(5, 5))
	outside := NewSensor(1, geo.Pt(50, 50))
	dead := NewSensor(2, geo.Pt(6, 6))
	dead.Lifetime = 0
	model := mobility.NewStationary([]geo.Point{{X: 5, Y: 5}, {X: 50, Y: 50}, {X: 6, Y: 6}})
	f := NewFleet([]*Sensor{inside, outside, dead}, model, working)

	offers := f.Step()
	if f.Slot() != 0 {
		t.Errorf("slot = %d want 0", f.Slot())
	}
	if len(offers) != 1 || offers[0].Sensor.ID != 0 {
		t.Fatalf("offers = %+v, want only sensor 0", offers)
	}
	if offers[0].Cost != 10 {
		t.Errorf("announced cost = %v want 10", offers[0].Cost)
	}
}

func TestFleetCommitConsumesLifetime(t *testing.T) {
	working := geo.NewRect(0, 0, 10, 10)
	s := NewSensor(0, geo.Pt(5, 5))
	s.Lifetime = 2
	model := mobility.NewStationary([]geo.Point{{X: 5, Y: 5}})
	f := NewFleet([]*Sensor{s}, model, working)

	for i := 0; i < 2; i++ {
		offers := f.Step()
		if len(offers) != 1 {
			t.Fatalf("slot %d: offers=%d", i, len(offers))
		}
		f.Commit([]*Sensor{s})
	}
	if offers := f.Step(); len(offers) != 0 {
		t.Errorf("exhausted sensor still offered: %+v", offers)
	}
}

func TestFleetMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on sensor/model count mismatch")
		}
	}()
	NewFleet([]*Sensor{NewSensor(0, geo.Pt(0, 0))},
		mobility.NewStationary([]geo.Point{{}, {}}), geo.NewRect(0, 0, 1, 1))
}

func TestFleetMovingSensorsEnterAndLeave(t *testing.T) {
	working := geo.NewRect(0, 0, 20, 20)
	region := geo.NewRect(0, 0, 80, 80)
	rnd := rng.New(12, "fleet")
	n := 100
	sensors := make([]*Sensor, n)
	for i := range sensors {
		sensors[i] = NewSensor(i, geo.Pt(0, 0))
	}
	f := NewFleet(sensors, mobility.NewRandomWaypoint(n, region, nil, rnd), working)
	counts := map[int]bool{}
	for slot := 0; slot < 30; slot++ {
		counts[len(f.Step())] = true
	}
	if len(counts) < 2 {
		t.Error("working-region population never changed — no churn")
	}
}

// warmMetroFleet returns a metro-sized fleet whose Step has warmed both
// of its offer buffers.
func warmMetroFleet() *Fleet {
	const n = 20000
	region, working := geo.NewRect(0, 0, 80, 80), geo.NewRect(15, 15, 65, 65)
	sensors := make([]*Sensor, n)
	for i := range sensors {
		sensors[i] = NewSensor(i, geo.Pt(0, 0))
	}
	f := NewFleet(sensors, mobility.NewRandomWaypoint(n, region, nil, rng.New(20, "fleet")), working)
	for i := 0; i < 4; i++ {
		f.Step() // warm both buffers
	}
	return f
}

// TestFleetStepAllocations: on a warm metro-sized fleet a Step allocates
// next to nothing — no position slice, no offer slice grown from nil.
func TestFleetStepAllocations(t *testing.T) {
	f := warmMetroFleet()
	if allocs := testing.AllocsPerRun(5, func() { f.Step() }); allocs > 2 {
		t.Errorf("a warm Step of %d sensors allocates %v times, want at most 2", len(f.Sensors), allocs)
	}
}

// TestFleetStepReusesItsBuffers: the offers a Step returns stay intact
// through the Step after (two buffers, used in turn), though they are
// promised only until then.
func TestFleetStepReusesItsBuffers(t *testing.T) {
	f := warmMetroFleet()
	held := f.Step()
	want := append([]Offer(nil), held...)
	if next := f.Step(); len(next) > 0 && len(held) > 0 && &next[0] == &held[0] {
		t.Fatal("consecutive Steps returned the same buffer")
	}
	for i := range want {
		if held[i] != want[i] {
			t.Fatalf("offer %d of the previous slot changed under the next Step", i)
		}
	}
}

func TestPrivacyLevelStringAll(t *testing.T) {
	want := map[PrivacyLevel]string{
		PrivacyZero: "Zero", PrivacyLow: "Low", PrivacyModerate: "Moderate",
		PrivacyHigh: "High", PrivacyVeryHigh: "VeryHigh",
	}
	for lvl, name := range want {
		if lvl.String() != name {
			t.Errorf("%v.String() = %q want %q", float64(lvl), lvl.String(), name)
		}
	}
}

func TestRemainingEnergyDegenerate(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.Lifetime = 0
	if s.RemainingEnergy() != 0 {
		t.Error("zero-lifetime energy != 0")
	}
	s.Lifetime = 2
	s.RecordReading(0)
	s.RecordReading(1)
	s.RecordReading(2) // over-consumption must clamp, not go negative
	if e := s.RemainingEnergy(); e != 0 {
		t.Errorf("over-consumed energy = %v", e)
	}
}

func TestPrivacyLossZeroWindow(t *testing.T) {
	s := NewSensor(1, geo.Pt(0, 0))
	s.PrivacyWindow = 0
	if s.PrivacyLoss(5) != 0 {
		t.Error("zero window should have zero loss")
	}
	// Future-dated history entries (clock skew) clamp age at 0.
	s2 := NewSensor(2, geo.Pt(0, 0))
	s2.PrivacyWindow = 5
	s2.RecordReading(10)
	if loss := s2.PrivacyLoss(8); loss <= 0 {
		t.Errorf("future-dated report loss = %v", loss)
	}
}
