package gp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// factorReference is K_AA from the kernel for obs and its factor, with
// PosteriorVariances' jitter retry.
func factorReference(g *GP, obs []geo.Point) (*linalg.Cholesky, error) {
	n := len(obs)
	kaa := &linalg.Matrix{Rows: n, Cols: n, Data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.Kernel.Cov(obs[i], obs[j])
			kaa.Set(i, j, v)
			kaa.Set(j, i, v)
		}
		kaa.Set(i, i, kaa.At(i, i)+g.Noise)
	}
	ch := &linalg.Cholesky{}
	if err := linalg.CholeskyInto(ch, kaa); err != nil {
		for i := 0; i < n; i++ {
			kaa.Set(i, i, kaa.At(i, i)+1e-6*g.Kernel.Var(obs[i])+1e-9)
		}
		if err := linalg.CholeskyInto(ch, kaa); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// posteriorVariancesReference is Eq. 6's posterior variance at each
// target computed the one-target-at-a-time way KernelBlocks must
// reproduce bit for bit: K_AA from the kernel, its factor (with the same
// jitter retry), then per target the forward substitution y = L⁻¹k_A(t)
// and k(t,t) − Σ y², each sum in ascending index order.
func posteriorVariancesReference(g *GP, targets, obs []geo.Point) ([]float64, error) {
	out := make([]float64, len(targets))
	n := len(obs)
	if n == 0 {
		for i, t := range targets {
			out[i] = g.Kernel.Var(t)
		}
		return out, nil
	}
	ch, err := factorReference(g, obs)
	if err != nil {
		return nil, err
	}
	l := ch.L.Data
	y := make([]float64, n)
	for v, t := range targets {
		for i, o := range obs {
			s := g.Kernel.Cov(t, o)
			for k, lv := range l[i*n : i*n+i] {
				s -= lv * y[k]
			}
			y[i] = s / l[i*n+i]
		}
		var ss float64
		for _, yi := range y {
			ss += yi * yi
		}
		out[v] = g.Kernel.Var(t) - ss
		if out[v] < 0 {
			out[v] = 0
		}
	}
	return out, nil
}

// posteriorVariancesSolveDot is Eq. 6 the way it was computed before the
// forward-only form: per target the full solve α = K_AA⁻¹k_A(t), forward
// and backward substitution, then k(t,t) − k_A(t)·α. It is the same
// quantity through a different float sequence, so it agrees with
// PosteriorVariances to rounding only.
func posteriorVariancesSolveDot(g *GP, targets, obs []geo.Point) ([]float64, error) {
	out := make([]float64, len(targets))
	n := len(obs)
	ch, err := factorReference(g, obs)
	if err != nil {
		return nil, err
	}
	l := ch.L.Data
	kv, alpha := make([]float64, n), make([]float64, n)
	for v, t := range targets {
		for j, o := range obs {
			kv[j] = g.Kernel.Cov(t, o)
		}
		for i := 0; i < n; i++ {
			s := kv[i]
			for k, lv := range l[i*n : i*n+i] {
				s -= lv * alpha[k]
			}
			alpha[i] = s / l[i*n+i]
		}
		for i := n - 1; i >= 0; i-- {
			s := alpha[i]
			for k := i + 1; k < n; k++ {
				s -= l[k*n+i] * alpha[k]
			}
			alpha[i] = s / l[i*n+i]
		}
		var dot float64
		for j := range kv {
			dot += kv[j] * alpha[j]
		}
		out[v] = g.Kernel.Var(t) - dot
		if out[v] < 0 {
			out[v] = 0
		}
	}
	return out, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPosteriorVariancesMatchReferenceBitForBit: the blocked
// PosteriorVariances equals the one-target forward-only reference bit for
// bit — on random subsets of a point set built by NewKernelBlocks and
// grown by Extend, on the empty subset, after a Truncate, for target
// counts on every side of the blocks of four, and on duplicated points
// whose noise-free K_AA only the jitter retry factorizes. The solve-and-dot
// form Eq. 6 was computed in before agrees to 1e-12 of each target's
// prior variance.
func TestPosteriorVariancesMatchReferenceBitForBit(t *testing.T) {
	s := rng.New(5, "blocked-posterior")
	pt := func() geo.Point { return geo.Pt(s.Uniform(0, 12), s.Uniform(0, 9)) }
	for _, g := range []*GP{
		New(SquaredExponential{Sigma2: 2, Length: 2.5}, 0.05),
		New(Exponential{Sigma2: 1.5, Length: 3}, 0.2),
		{Kernel: SquaredExponential{Sigma2: 2, Length: 1.5}}, // duplicates are singular: jitter retry
	} {
		for _, nt := range []int{0, 1, 3, 4, 5, 8, 11, 36} {
			targets := make([]geo.Point, nt)
			for i := range targets {
				targets[i] = pt()
			}
			pts := make([]geo.Point, 24)
			for i := range pts {
				pts[i] = pt()
			}
			copy(pts[20:], pts[:4]) // duplicated locations
			kb := g.NewKernelBlocks(targets, pts[:10])
			kb.Extend(pts[10:]...)
			check := func(name string, idx []int) {
				t.Helper()
				var sub []geo.Point
				for _, i := range idx {
					sub = append(sub, pts[i])
				}
				if idx == nil {
					sub = pts[:kb.Len()]
				}
				want, err1 := posteriorVariancesReference(g, targets, sub)
				got, err2 := kb.PosteriorVariances(idx)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("noise %g, %d targets, %s: errors %v, %v", g.Noise, nt, name, err1, err2)
				}
				if !sameBits(got, want) {
					t.Fatalf("noise %g, %d targets, %s: blocked %v, reference %v", g.Noise, nt, name, got, want)
				}
				if len(sub) == 0 {
					return
				}
				old, err := posteriorVariancesSolveDot(g, targets, sub)
				if err != nil {
					t.Fatalf("noise %g, %d targets, %s: solve-and-dot form: %v", g.Noise, nt, name, err)
				}
				for i, tp := range targets {
					if d := math.Abs(got[i] - old[i]); d > 1e-12*g.Kernel.Var(tp) {
						t.Fatalf("noise %g, %d targets, %s: target %d forward-only %v, solve-and-dot %v", g.Noise, nt, name, i, got[i], old[i])
					}
				}
			}
			check("all", nil)
			check("empty", []int{})
			check("duplicates", []int{0, 1, 2, 20, 21})
			for trial := 0; trial < 20; trial++ {
				var idx []int
				for i := range pts {
					if s.Bool(0.5) {
						idx = append(idx, i)
					}
				}
				check(fmt.Sprintf("subset %v", idx), idx)
			}
			kb.Truncate(7)
			check("after Truncate(7)", nil)
			check("prefix", []int{0, 1, 2, 3, 4, 5, 6})
		}
	}
}

// TestLeaveOneOutMatchesSubsetsBitForBit: LeaveOneOut's reductions are
// NormalizedVarianceReduction's for the whole set and for each subset
// without one point j >= from, bit for bit — over random point sets of
// 1 to 14 points, from at 0, the middle and the last point, target counts
// on every side of the blocks of four, and duplicated points whose
// noise-free K_AA only the jitter retry factorizes: on the whole set, on
// subsets that keep both copies, and on those that drop one.
func TestLeaveOneOutMatchesSubsetsBitForBit(t *testing.T) {
	s := rng.New(11, "leave-one-out")
	pt := func() geo.Point { return geo.Pt(s.Uniform(0, 12), s.Uniform(0, 9)) }
	var dst []float64
	for _, g := range []*GP{
		New(SquaredExponential{Sigma2: 2, Length: 2.5}, 0.05),
		New(Exponential{Sigma2: 1.5, Length: 3}, 0.2),
		{Kernel: SquaredExponential{Sigma2: 2, Length: 1.5}}, // duplicates are singular: jitter retry
	} {
		for _, nt := range []int{0, 1, 3, 4, 5, 36} {
			targets := make([]geo.Point, nt)
			for i := range targets {
				targets[i] = pt()
			}
			for n := 1; n <= 14; n++ {
				for trial := 0; trial < 3; trial++ {
					pts := make([]geo.Point, n)
					for i := range pts {
						pts[i] = pt()
					}
					if n >= 3 && trial > 0 {
						// a duplicate late in the set (trial 1) or
						// early (trial 2), one copy of it after from
						a := (n - 1) * (trial - 1) / 2
						pts[n-1-(trial-1)] = pts[a]
					}
					kb := g.NewKernelBlocks(targets, pts)
					for _, from := range []int{0, n / 2, n - 1} {
						got, err := kb.LeaveOneOut(dst, from)
						dst = got
						want, werr := kb.NormalizedVarianceReduction(nil)
						if err != nil || werr != nil {
							t.Fatalf("noise %g, %d targets, n=%d from=%d: errors %v, %v", g.Noise, nt, n, from, err, werr)
						}
						if len(got) != 1+n-from {
							t.Fatalf("n=%d from=%d: %d values, want %d", n, from, len(got), 1+n-from)
						}
						if math.Float64bits(got[0]) != math.Float64bits(want) {
							t.Fatalf("noise %g, %d targets, n=%d from=%d: whole set %v, NormalizedVarianceReduction %v", g.Noise, nt, n, from, got[0], want)
						}
						for j := from; j < n; j++ {
							var idx []int
							for i := 0; i < n; i++ {
								if i != j {
									idx = append(idx, i)
								}
							}
							if idx == nil {
								idx = []int{}
							}
							want, err := kb.NormalizedVarianceReduction(idx)
							if err != nil {
								t.Fatal(err)
							}
							if math.Float64bits(got[1+j-from]) != math.Float64bits(want) {
								t.Fatalf("noise %g, %d targets, n=%d from=%d: without %d %v, NormalizedVarianceReduction %v", g.Noise, nt, n, from, j, got[1+j-from], want)
							}
						}
					}
				}
			}
		}
	}
}
