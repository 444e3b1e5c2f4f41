package gp

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
)

// varianceReduction computes F(A) of Eq. 6 from scratch: the total prior
// variance over the targets minus the total posterior variance after
// observing obs. It is the reference the incremental paths are checked
// against.
func varianceReduction(g *GP, targets, obs []geo.Point) (float64, error) {
	red, _, err := g.NewKernelBlocks(targets, obs).reduction(nil)
	return red, err
}

func TestKernelProperties(t *testing.T) {
	kernels := []Kernel{
		SquaredExponential{Sigma2: 2, Length: 3},
		Exponential{Sigma2: 2, Length: 3},
	}
	p, q := geo.Pt(0, 0), geo.Pt(1, 2)
	for _, k := range kernels {
		if got := k.Cov(p, p); math.Abs(got-2) > 1e-12 {
			t.Errorf("%T Cov(p,p)=%v want Sigma2", k, got)
		}
		if k.Cov(p, q) != k.Cov(q, p) {
			t.Errorf("%T not symmetric", k)
		}
		if k.Cov(p, q) >= k.Var(p) {
			t.Errorf("%T covariance should decay with distance", k)
		}
		if k.Cov(p, q) <= 0 {
			t.Errorf("%T covariance should stay positive", k)
		}
	}
}

func TestKernelDecay(t *testing.T) {
	k := SquaredExponential{Sigma2: 1, Length: 2}
	prev := k.Cov(geo.Pt(0, 0), geo.Pt(0, 0))
	for d := 1.0; d < 10; d++ {
		cur := k.Cov(geo.Pt(0, 0), geo.Pt(d, 0))
		if cur >= prev {
			t.Fatalf("covariance not strictly decaying at d=%v", d)
		}
		prev = cur
	}
}

func TestPosteriorVarianceNoObs(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 3, Length: 1}, 0.1)
	vars, err := g.PosteriorVariances([]geo.Point{geo.Pt(0, 0), geo.Pt(5, 5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vars {
		if v != 3 {
			t.Errorf("prior variance = %v want 3", v)
		}
	}
}

func TestPosteriorVarianceDropsAtObservation(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 1, Length: 2}, 0.01)
	obs := []geo.Point{geo.Pt(0, 0)}
	vars, err := g.PosteriorVariances([]geo.Point{geo.Pt(0, 0), geo.Pt(10, 10)}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if vars[0] > 0.05 {
		t.Errorf("variance at observed point = %v, should be near noise level", vars[0])
	}
	if vars[1] < 0.9 {
		t.Errorf("variance far from observation = %v, should stay near prior", vars[1])
	}
}

func TestPosteriorVarianceDuplicateObservations(t *testing.T) {
	// Two sensors on the same cell make K_AA singular; the jitter retry
	// must rescue the solve.
	g := New(SquaredExponential{Sigma2: 1, Length: 2}, 1e-9)
	obs := []geo.Point{geo.Pt(1, 1), geo.Pt(1, 1), geo.Pt(1, 1)}
	vars, err := g.PosteriorVariances([]geo.Point{geo.Pt(1, 1)}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if vars[0] < 0 || vars[0] > 0.1 {
		t.Errorf("duplicate-observation variance = %v", vars[0])
	}
}

func TestVarianceReductionMonotoneAndBounded(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 2, Length: 3}, 0.05)
	grid := geo.NewUnitGrid(10, 10)
	targets := grid.CellsIn(grid.Bounds)
	var obs []geo.Point
	prev := 0.0
	total := 2.0 * float64(len(targets))
	for i := 0; i < 5; i++ {
		obs = append(obs, geo.Pt(float64(i*2), float64(i*2)))
		red, err := varianceReduction(g, targets, obs)
		if err != nil {
			t.Fatal(err)
		}
		if red < prev-1e-9 {
			t.Fatalf("variance reduction decreased when adding observation: %v -> %v", prev, red)
		}
		if red > total {
			t.Fatalf("variance reduction %v exceeds total prior variance %v", red, total)
		}
		prev = red
	}
	if prev <= 0 {
		t.Error("variance reduction should be positive with observations")
	}
}

func TestVarianceReductionSubmodularProperty(t *testing.T) {
	// F is submodular: marginal gain of adding a fixed point shrinks as the
	// observation set grows along a chain.
	g := New(SquaredExponential{Sigma2: 1, Length: 2.5}, 0.05)
	targets := geo.NewUnitGrid(8, 8).CellsIn(geo.NewRect(0, 0, 8, 8))
	s := rng.New(17, "gp-submodular")
	for trial := 0; trial < 20; trial++ {
		newPt := geo.Pt(s.Uniform(0, 8), s.Uniform(0, 8))
		small := []geo.Point{geo.Pt(s.Uniform(0, 8), s.Uniform(0, 8))}
		big := append(append([]geo.Point{}, small...),
			geo.Pt(s.Uniform(0, 8), s.Uniform(0, 8)),
			geo.Pt(s.Uniform(0, 8), s.Uniform(0, 8)))
		fSmall, _ := varianceReduction(g, targets, small)
		fSmallPlus, _ := varianceReduction(g, targets, append(append([]geo.Point{}, small...), newPt))
		fBig, _ := varianceReduction(g, targets, big)
		fBigPlus, _ := varianceReduction(g, targets, append(append([]geo.Point{}, big...), newPt))
		if (fSmallPlus-fSmall)-(fBigPlus-fBig) < -1e-6 {
			t.Fatalf("submodularity violated: small gain %v < big gain %v",
				fSmallPlus-fSmall, fBigPlus-fBig)
		}
	}
}

func TestNormalizedVarianceReductionRange(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 1, Length: 3}, 0.05)
	targets := geo.NewUnitGrid(6, 6).CellsIn(geo.NewRect(0, 0, 6, 6))
	f := func(x, y uint8) bool {
		obs := []geo.Point{geo.Pt(float64(x%6), float64(y%6))}
		v, err := g.NormalizedVarianceReduction(targets, obs)
		return err == nil && v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if v, _ := g.NormalizedVarianceReduction(nil, nil); v != 0 {
		t.Errorf("empty targets normalized reduction = %v", v)
	}
}

func TestFitSquaredExponentialRecoversScale(t *testing.T) {
	// Sample a field from a known GP-like construction and verify the fit
	// finds a plausible variance and length scale.
	s := rng.New(99, "gp-fit")
	true_ := SquaredExponential{Sigma2: 4, Length: 3}
	// Build correlated values with a crude spectral trick: sum of random
	// cosines with the kernel's scale.
	var pts []geo.Point
	var vals []float64
	type wave struct{ kx, ky, phase, amp float64 }
	waves := make([]wave, 40)
	for i := range waves {
		waves[i] = wave{
			kx:    s.Norm(0, 1/true_.Length),
			ky:    s.Norm(0, 1/true_.Length),
			phase: s.Uniform(0, 2*math.Pi),
			amp:   math.Sqrt(2 * true_.Sigma2 / float64(len(waves))),
		}
	}
	for i := 0; i < 120; i++ {
		p := geo.Pt(s.Uniform(0, 20), s.Uniform(0, 15))
		var v float64
		for _, w := range waves {
			v += w.amp * math.Cos(w.kx*p.X+w.ky*p.Y+w.phase)
		}
		pts = append(pts, p)
		vals = append(vals, v)
	}
	g, err := FitSquaredExponential(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	k := g.Kernel.(SquaredExponential)
	if k.Sigma2 < 1 || k.Sigma2 > 12 {
		t.Errorf("fitted Sigma2=%v, want same order as 4", k.Sigma2)
	}
	if k.Length < 0.5 || k.Length > 12 {
		t.Errorf("fitted Length=%v, want same order as 3", k.Length)
	}
	if g.Noise <= 0 {
		t.Error("fitted noise must be positive")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitSquaredExponential([]geo.Point{geo.Pt(0, 0)}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitSquaredExponential([]geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}, []float64{1, 2}); err == nil {
		t.Error("too few observations should error")
	}
}

func TestFitConstantField(t *testing.T) {
	// A constant field has zero variance; the fit must not return NaNs.
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(0, 1), geo.Pt(1, 1)}
	vals := []float64{5, 5, 5, 5}
	g, err := FitSquaredExponential(pts, vals)
	if err != nil {
		t.Fatal(err)
	}
	k := g.Kernel.(SquaredExponential)
	if math.IsNaN(k.Sigma2) || math.IsNaN(k.Length) || k.Sigma2 <= 0 {
		t.Errorf("degenerate fit: %+v", k)
	}
}

func TestNewDefaultsNoise(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 1, Length: 1}, 0)
	if g.Noise <= 0 {
		t.Error("New should default non-positive noise to a small positive value")
	}
}

// TestKernelBlocksSubsetsMatchDirect: the posterior of a subset read out of
// one set's kernel blocks is exactly the posterior computed for those
// points alone — also when a duplicated point makes the noise-free kernel
// matrix singular and the jittered retry factorizes it.
func TestKernelBlocksSubsetsMatchDirect(t *testing.T) {
	targets := geo.NewUnitGrid(5, 4).CellsIn(geo.NewRect(0, 0, 5, 4))
	pts := []geo.Point{geo.Pt(1, 1), geo.Pt(3.5, 2), geo.Pt(1, 1), geo.Pt(4, 0.5), geo.Pt(2, 3)}
	for _, g := range []*GP{
		New(SquaredExponential{Sigma2: 2, Length: 1.5}, 0.05),
		{Kernel: SquaredExponential{Sigma2: 2, Length: 1.5}}, // singular with both (1,1)s in
	} {
		kb := g.NewKernelBlocks(targets, pts)
		for _, idx := range [][]int{nil, {}, {0}, {0, 2}, {1, 3, 4}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}} {
			sub := pts
			if idx != nil {
				sub = []geo.Point{}
				for _, i := range idx {
					sub = append(sub, pts[i])
				}
			}
			got, err1 := kb.PosteriorVariances(idx)
			want, err2 := g.PosteriorVariances(targets, sub)
			if err1 != nil || err2 != nil {
				t.Fatalf("noise %g subset %v: errors %v, %v", g.Noise, idx, err1, err2)
			}
			if !slices.Equal(got, want) {
				t.Errorf("noise %g subset %v: variances from blocks differ from the direct computation", g.Noise, idx)
			}
			gn, _ := kb.NormalizedVarianceReduction(idx)
			wn, _ := g.NormalizedVarianceReduction(targets, sub)
			if gn != wn {
				t.Errorf("noise %g subset %v: normalized reduction %v from blocks, %v direct", g.Noise, idx, gn, wn)
			}
		}
	}
}
