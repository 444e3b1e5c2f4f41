package datasets

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/sensornet"
)

func TestNewRWMGeometry(t *testing.T) {
	w := NewRWM(1, 200, SensorConfig{})
	if w.Region.Width() != 80 || w.Region.Height() != 80 {
		t.Errorf("region = %v", w.Region)
	}
	if w.Working.Width() != 50 || w.Working.Height() != 50 {
		t.Errorf("working = %v", w.Working)
	}
	if w.DMax != 5 {
		t.Errorf("dmax = %v", w.DMax)
	}
	if len(w.Fleet.Sensors) != 200 {
		t.Errorf("sensors = %d", len(w.Fleet.Sensors))
	}
	offers := w.Fleet.Step()
	// Roughly area-proportional population: 200 * 2500/6400 ≈ 78.
	if len(offers) < 30 || len(offers) > 160 {
		t.Errorf("working-region offers = %d, want ≈78", len(offers))
	}
}

func TestNewRWMDefaultsAndConfig(t *testing.T) {
	w := NewRWM(1, 0, SensorConfig{})
	if len(w.Fleet.Sensors) != 200 {
		t.Errorf("default n = %d", len(w.Fleet.Sensors))
	}
	for _, s := range w.Fleet.Sensors {
		if s.Inaccuracy < 0 || s.Inaccuracy > 0.2 {
			t.Fatalf("inaccuracy %v outside [0,0.2]", s.Inaccuracy)
		}
		if s.Trust != 1 {
			t.Fatalf("default trust %v != 1", s.Trust)
		}
		if s.Privacy != sensornet.PrivacyZero {
			t.Fatalf("default PSL %v", s.Privacy)
		}
		if s.Lifetime != 50 {
			t.Fatalf("default lifetime %d", s.Lifetime)
		}
	}
}

func TestSensorConfigApplied(t *testing.T) {
	w := NewRWM(2, 100, SensorConfig{
		Lifetime:     25,
		RandomPSL:    true,
		LinearEnergy: true,
		TrustMin:     0.4,
		TrustMax:     0.9,
	})
	levels := map[sensornet.PrivacyLevel]int{}
	linear := 0
	for _, s := range w.Fleet.Sensors {
		if s.Lifetime != 25 {
			t.Fatalf("lifetime %d", s.Lifetime)
		}
		levels[s.Privacy]++
		if _, ok := s.Energy.(sensornet.LinearEnergyCost); ok {
			linear++
		}
		if s.Trust < 0.4 || s.Trust > 0.9 {
			t.Fatalf("trust %v outside configured range", s.Trust)
		}
	}
	if len(levels) < 3 {
		t.Errorf("random PSL produced only %d levels", len(levels))
	}
	if linear != 100 {
		t.Errorf("linear energy on %d/100 sensors", linear)
	}
}

func TestNewRNCPopulation(t *testing.T) {
	w := NewRNC(3, SensorConfig{})
	if len(w.Fleet.Sensors) != 635 {
		t.Fatalf("sensors = %d want 635", len(w.Fleet.Sensors))
	}
	if w.DMax != 10 {
		t.Errorf("dmax = %v", w.DMax)
	}
	total := 0
	slots := 50
	for i := 0; i < slots; i++ {
		total += len(w.Fleet.Step())
	}
	avg := float64(total) / float64(slots)
	if avg < 90 || avg > 160 {
		t.Errorf("average working population = %.1f, want ≈120", avg)
	}
}

func TestNewIntelLab(t *testing.T) {
	w := NewIntelLab(4, SensorConfig{})
	if w.GPModel == nil || w.Phenomenon == nil {
		t.Fatal("missing GP model or phenomenon")
	}
	if len(w.Fleet.Sensors) != 30 {
		t.Errorf("sensors = %d want 30", len(w.Fleet.Sensors))
	}
	// Readings are grid-cell values of the field.
	pos := geo.Pt(5.3, 7.8)
	want := w.Phenomenon.ValueAt(w.Grid.CellCenter(w.Grid.CellOf(pos)))
	if got := w.ReadingAt(pos, 0); got != want {
		t.Errorf("ReadingAt = %v want %v", got, want)
	}
	// The GP model must have learned a sensible variance (same order as
	// the generating Sigma2 of 4).
	offers := w.Fleet.Step()
	if len(offers) == 0 {
		t.Error("no offers on the lab grid")
	}
}

func TestWorldHistoryDeterministicAndCached(t *testing.T) {
	w := NewRNC(5, SensorConfig{})
	loc := geo.Pt(100, 150)
	a := w.History(loc, 50)
	b := w.History(loc, 50)
	if a != b {
		t.Error("history not cached")
	}
	w2 := NewRNC(5, SensorConfig{})
	c := w2.History(loc, 50)
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			t.Fatal("history not deterministic across same-seed worlds")
		}
	}
	if a.Len() != 50 {
		t.Errorf("history length = %d", a.Len())
	}
	// Distinct locations get distinct profiles.
	d := w.History(geo.Pt(120, 150), 50)
	same := true
	for i := range a.Values {
		if a.Values[i] != d.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different locations share identical histories")
	}
}

func TestWorldsAreReproducible(t *testing.T) {
	a := NewRWM(7, 50, SensorConfig{RandomPSL: true})
	b := NewRWM(7, 50, SensorConfig{RandomPSL: true})
	for i := range a.Fleet.Sensors {
		sa, sb := a.Fleet.Sensors[i], b.Fleet.Sensors[i]
		if sa.Inaccuracy != sb.Inaccuracy || sa.Privacy != sb.Privacy {
			t.Fatal("sensor parameters differ across same-seed worlds")
		}
	}
	oa, ob := a.Fleet.Step(), b.Fleet.Step()
	if len(oa) != len(ob) {
		t.Fatal("fleet evolution differs across same-seed worlds")
	}
	for i := range oa {
		if oa[i].Sensor.Pos != ob[i].Sensor.Pos {
			t.Fatal("positions differ across same-seed worlds")
		}
	}
}

func TestReadingAtWithoutPhenomenon(t *testing.T) {
	w := NewRWM(1, 10, SensorConfig{})
	if got := w.ReadingAt(geo.Pt(1, 1), 0); got != 0 {
		t.Errorf("ReadingAt without phenomenon = %v", got)
	}
}

// TestTrustBoundsOutsideUnitPanic: trust bounds outside [0, 1], NaN or
// inverted, panic with a message naming the field, in every world
// builder; bounds inside [0, 1] build.
func TestTrustBoundsOutsideUnitPanic(t *testing.T) {
	builders := map[string]func(SensorConfig){
		"RWM":      func(c SensorConfig) { NewRWM(1, 20, c) },
		"RNC":      func(c SensorConfig) { NewRNC(1, c) },
		"IntelLab": func(c SensorConfig) { NewIntelLab(1, c) },
	}
	for _, c := range []struct {
		min, max float64
		field    string // "" builds
	}{
		{0, 0, ""}, {0.2, 0.4, ""}, {0, 1, ""}, {1, 1, ""},
		{-0.05, 0.15, "TrustMin"}, {0.95, 1.05, "TrustMax"}, {math.NaN(), 1, "TrustMin"},
		{0, math.Inf(1), "TrustMax"}, {0.5, 0, "TrustMin"}, {0.6, 0.4, "TrustMin"},
	} {
		for name, build := range builders {
			cfg := SensorConfig{TrustMin: c.min, TrustMax: c.max}
			var got any
			func() {
				defer func() { got = recover() }()
				build(cfg)
			}()
			msg, _ := got.(string)
			switch {
			case c.field == "" && got != nil:
				t.Errorf("%s, trust [%v, %v]: panicked with %v", name, c.min, c.max, got)
			case c.field != "" && !strings.Contains(msg, "SensorConfig."+c.field):
				t.Errorf("%s, trust [%v, %v]: recovered %v, want a panic naming SensorConfig.%s", name, c.min, c.max, got, c.field)
			}
		}
	}
}
