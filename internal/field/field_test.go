package field

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

func TestGPFieldDeterministicAndSmooth(t *testing.T) {
	a := NewGPField(20, 4, 3, 64, rng.New(1, "f"))
	b := NewGPField(20, 4, 3, 64, rng.New(1, "f"))
	p := geo.Pt(5, 7)
	if a.ValueAt(p) != b.ValueAt(p) {
		t.Fatal("field not deterministic for same seed")
	}
	// Smoothness: nearby points have close values relative to field scale.
	v1 := a.ValueAt(geo.Pt(5, 5))
	v2 := a.ValueAt(geo.Pt(5.05, 5))
	if math.Abs(v1-v2) > 0.5 {
		t.Errorf("field too rough: |%v - %v|", v1, v2)
	}
}

func TestGPFieldStatistics(t *testing.T) {
	f := NewGPField(20, 4, 3, 128, rng.New(2, "stats"))
	g := geo.NewUnitGrid(40, 40)
	vals := make([]float64, g.NumCells())
	for idx := range vals {
		vals[idx] = f.ValueAt(g.CellCenter(g.CellAt(idx)))
	}
	var sum, sumsq float64
	for _, v := range vals {
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(len(vals))
	variance := sumsq/float64(len(vals)) - mean*mean
	// One realization over a finite window: loose bounds.
	if math.Abs(mean-20) > 4 {
		t.Errorf("field mean=%v want ≈20", mean)
	}
	if variance < 0.3 || variance > 20 {
		t.Errorf("field variance=%v want same order as 4", variance)
	}
}

func TestGPFieldSpatialCorrelation(t *testing.T) {
	// Average |difference| between close pairs must be below far pairs.
	f := NewGPField(0, 4, 3, 96, rng.New(3, "corr"))
	s := rng.New(4, "corr-sample")
	var closeDiff, farDiff float64
	n := 300
	for i := 0; i < n; i++ {
		p := geo.Pt(s.Uniform(0, 50), s.Uniform(0, 50))
		closeDiff += math.Abs(f.ValueAt(p) - f.ValueAt(p.Add(geo.Pt(0.5, 0))))
		farDiff += math.Abs(f.ValueAt(p) - f.ValueAt(p.Add(geo.Pt(25, 0))))
	}
	if closeDiff >= farDiff {
		t.Errorf("no spatial correlation: close=%v far=%v", closeDiff/float64(n), farDiff/float64(n))
	}
}

func TestGPFieldDefaultWaves(t *testing.T) {
	f := NewGPField(0, 1, 1, 0, rng.New(5, "w"))
	if len(f.kx) != 64 {
		t.Errorf("default waves = %d want 64", len(f.kx))
	}
}

func TestDiurnalSeriesShape(t *testing.T) {
	d := DefaultOzone()
	vals := d.Generate(50, rng.New(6, "ozone"))
	if len(vals) != 50 {
		t.Fatalf("len=%d", len(vals))
	}
	// Peak should be in the middle of the "day" (sin(-pi/2 .. 3pi/2) peaks
	// at t = period/2), trough near the edges.
	var maxIdx int
	for i, v := range vals {
		if v > vals[maxIdx] {
			maxIdx = i
		}
	}
	if maxIdx < 10 || maxIdx > 40 {
		t.Errorf("diurnal peak at slot %d, want mid-day", maxIdx)
	}
	// Values stay within a physically plausible ozone band.
	for i, v := range vals {
		if v < 0 || v > 150 {
			t.Errorf("slot %d value %v outside plausible band", i, v)
		}
	}
}

func TestDiurnalSeriesDeterminism(t *testing.T) {
	d := DefaultOzone()
	a := d.Generate(30, rng.New(7, "det"))
	b := d.Generate(30, rng.New(7, "det"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("series not deterministic")
		}
	}
}

func TestDiurnalSeriesNoiseAutocorrelation(t *testing.T) {
	// With AR=0.9 and no signal, consecutive values should correlate.
	d := DiurnalSeries{Base: 0, Amplitude: 0, Period: 50, NoiseSD: 1, AR: 0.9}
	vals := d.Generate(2000, rng.New(8, "ar"))
	var num, den float64
	for i := 1; i < len(vals); i++ {
		num += vals[i] * vals[i-1]
		den += vals[i] * vals[i]
	}
	if corr := num / den; corr < 0.5 {
		t.Errorf("AR(0.9) lag-1 correlation = %v, want > 0.5", corr)
	}
}
