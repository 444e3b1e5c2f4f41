// Package gp implements the Gaussian-process machinery behind the
// region-monitoring valuation (Eqs. 6-7 of the paper): a spatial phenomenon
// is modeled as a GP; the value of observing a set A of locations is the
// expected reduction in predictive variance at the unobserved locations,
//
//	F(A) = Var(X_V) - E[ Var(X_V | X_A) ].
//
// For a Gaussian process the posterior variance does not depend on the
// observed values, so the expectation is exact:
// F(A) = sum_v k(v,v) - sum_v postVar(v | A).
package gp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/linalg"
)

// Kernel is a positive-definite covariance function over the plane.
type Kernel interface {
	// Cov returns the covariance between the phenomenon at p and q.
	Cov(p, q geo.Point) float64
	// Var returns the prior variance at p (Cov(p,p)).
	Var(p geo.Point) float64
}

// SquaredExponential is the classic RBF kernel
// k(p,q) = Sigma2 * exp(-|p-q|^2 / (2*Length^2)).
type SquaredExponential struct {
	Sigma2 float64 // signal variance
	Length float64 // length scale
}

// Cov implements Kernel.
func (k SquaredExponential) Cov(p, q geo.Point) float64 {
	d2 := p.Dist2(q)
	return k.Sigma2 * math.Exp(-d2/(2*k.Length*k.Length))
}

// Var implements Kernel.
func (k SquaredExponential) Var(geo.Point) float64 { return k.Sigma2 }

// Exponential is the Matern-1/2 kernel
// k(p,q) = Sigma2 * exp(-|p-q| / Length), rougher than RBF.
type Exponential struct {
	Sigma2 float64
	Length float64
}

// Cov implements Kernel.
func (k Exponential) Cov(p, q geo.Point) float64 {
	return k.Sigma2 * math.Exp(-p.Dist(q)/k.Length)
}

// Var implements Kernel.
func (k Exponential) Var(geo.Point) float64 { return k.Sigma2 }

// GP is a zero-mean Gaussian process with observation noise.
type GP struct {
	Kernel Kernel
	Noise  float64 // observation noise variance sigma_n^2
}

// New creates a GP with the given kernel and noise variance.
func New(k Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-6
	}
	return &GP{Kernel: k, Noise: noise}
}

// KernelBlocks holds every kernel entry Eq. 6 needs for a point set U
// against a target set: k(U,U) and k(targets,U). The posterior of any
// subset of U is then a matter of copying entries, so a caller valuing
// many subsets of one set (the leave-one-out marginals of
// CreatePointQueries) evaluates each point pair's covariance once.
type KernelBlocks struct {
	g       *GP
	targets []geo.Point
	pts     []geo.Point
	kuu     []float64 // kuu[i*n+j] = k(pts[i], pts[j]) for j <= i, without noise
	ktu     []float64 // ktu[v*n+i] = k(targets[v], pts[i])
}

// NewKernelBlocks evaluates the kernel over pts and targets.
func (g *GP) NewKernelBlocks(targets, pts []geo.Point) *KernelBlocks {
	n := len(pts)
	kb := &KernelBlocks{g: g, targets: targets, pts: pts,
		kuu: make([]float64, n*n), ktu: make([]float64, len(targets)*n)}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			kb.kuu[i*n+j] = g.Kernel.Cov(pts[i], pts[j])
		}
	}
	for v, t := range targets {
		for i, o := range pts {
			kb.ktu[v*n+i] = g.Kernel.Cov(t, o)
		}
	}
	return kb
}

// PosteriorVariances returns the predictive variance at each target after
// observing (noisy) measurements at the points idx selects, ascending
// indices into the point set; nil selects all of them. With no
// observations it returns the prior variances.
func (kb *KernelBlocks) PosteriorVariances(idx []int) ([]float64, error) {
	g, stride := kb.g, len(kb.pts)
	if idx == nil {
		idx = make([]int, stride)
		for i := range idx {
			idx[i] = i
		}
	}
	out := make([]float64, len(kb.targets))
	if len(idx) == 0 {
		for i, t := range kb.targets {
			out[i] = g.Kernel.Var(t)
		}
		return out, nil
	}
	n := len(idx)
	kaa := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kb.kuu[idx[i]*stride+idx[j]]
			kaa.Set(i, j, v)
			kaa.Set(j, i, v)
		}
		kaa.Set(i, i, kaa.At(i, i)+g.Noise)
	}
	ch, err := linalg.NewCholesky(kaa)
	if err != nil {
		// Retry with jitter: duplicated observation locations make K_AA
		// singular, which legitimately happens when several sensors stand
		// on the same grid cell.
		jittered := kaa.Clone()
		for i := 0; i < n; i++ {
			jittered.Set(i, i, jittered.At(i, i)+1e-6*g.Kernel.Var(kb.pts[idx[i]])+1e-9)
		}
		ch, err = linalg.NewCholesky(jittered)
		if err != nil {
			return nil, fmt.Errorf("gp: posterior variance: %w", err)
		}
	}
	kv, alpha := make([]float64, n), make([]float64, n)
	for i, t := range kb.targets {
		for j, u := range idx {
			kv[j] = kb.ktu[i*stride+u]
		}
		if err := ch.SolveVecInto(alpha, kv); err != nil {
			return nil, err
		}
		v := g.Kernel.Var(t) - linalg.Dot(kv, alpha)
		if v < 0 {
			v = 0 // numerical floor
		}
		out[i] = v
	}
	return out, nil
}

// reduction returns F of Eq. 6 for the points idx selects — total prior
// minus total posterior variance over the targets, floored at zero — and
// the total prior variance.
func (kb *KernelBlocks) reduction(idx []int) (red, prior float64, err error) {
	post, err := kb.PosteriorVariances(idx)
	if err != nil {
		return 0, 0, err
	}
	var posterior float64
	for i, t := range kb.targets {
		prior += kb.g.Kernel.Var(t)
		posterior += post[i]
	}
	red = prior - posterior
	if red < 0 {
		red = 0
	}
	return red, prior, nil
}

// NormalizedVarianceReduction returns F of Eq. 6 for the points idx
// selects, divided by the total prior variance: the fraction of
// uncertainty removed, in [0,1].
func (kb *KernelBlocks) NormalizedVarianceReduction(idx []int) (float64, error) {
	red, prior, err := kb.reduction(idx)
	if err != nil || prior == 0 {
		return 0, err
	}
	return red / prior, nil
}

// PosteriorVariances returns the predictive variance at each target
// location after observing (noisy) measurements at obs. With no
// observations it returns the prior variances.
func (g *GP) PosteriorVariances(targets, obs []geo.Point) ([]float64, error) {
	return g.NewKernelBlocks(targets, obs).PosteriorVariances(nil)
}

// NormalizedVarianceReduction returns F(A) divided by the total prior
// variance, i.e. a value in [0,1] describing the fraction of uncertainty
// removed. Useful for quality reporting.
func (g *GP) NormalizedVarianceReduction(targets, obs []geo.Point) (float64, error) {
	return g.NewKernelBlocks(targets, obs).NormalizedVarianceReduction(nil)
}

// FitSquaredExponential estimates squared-exponential hyperparameters from
// observed (location, value) pairs, the way the evaluation "learns the
// parameters of the Gaussian model from a fraction of sensor readings in
// the Intel Lab dataset" (§4.6).
//
// The signal variance is the sample variance of the values; the length
// scale is fit to the empirical variogram by choosing, among candidate
// scales, the one minimizing squared error between the empirical
// correlation at binned distances and exp(-d^2/(2 l^2)). The noise
// variance is taken as a small fraction of the signal variance plus the
// variogram nugget estimate.
func FitSquaredExponential(points []geo.Point, values []float64) (*GP, error) {
	if len(points) != len(values) {
		return nil, fmt.Errorf("gp: fit: %d points vs %d values", len(points), len(values))
	}
	if len(points) < 3 {
		return nil, fmt.Errorf("gp: fit: need at least 3 observations, got %d", len(points))
	}
	n := len(points)
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	var variance float64
	for _, v := range values {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(n)
	if variance <= 0 {
		variance = 1e-6
	}

	// Empirical correlation at binned pairwise distances.
	type pair struct{ d, corr float64 }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := points[i].Dist(points[j])
			c := (values[i] - mean) * (values[j] - mean) / variance
			pairs = append(pairs, pair{d, c})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })
	const nbins = 12
	maxD := pairs[len(pairs)-1].d
	if maxD <= 0 {
		maxD = 1
	}
	binD := make([]float64, 0, nbins)
	binC := make([]float64, 0, nbins)
	for b := 0; b < nbins; b++ {
		lo := maxD * float64(b) / nbins
		hi := maxD * float64(b+1) / nbins
		var sumD, sumC float64
		cnt := 0
		for _, p := range pairs {
			if p.d >= lo && p.d < hi {
				sumD += p.d
				sumC += p.corr
				cnt++
			}
		}
		if cnt > 0 {
			binD = append(binD, sumD/float64(cnt))
			binC = append(binC, sumC/float64(cnt))
		}
	}

	bestL, bestErr := maxD/4, math.Inf(1)
	for _, l := range candidateScales(maxD) {
		var sse float64
		for i := range binD {
			pred := math.Exp(-binD[i] * binD[i] / (2 * l * l))
			diff := pred - binC[i]
			sse += diff * diff
		}
		if sse < bestErr {
			bestErr, bestL = sse, l
		}
	}

	noise := 0.05 * variance
	return New(SquaredExponential{Sigma2: variance, Length: bestL}, noise), nil
}

func candidateScales(maxD float64) []float64 {
	out := make([]float64, 0, 24)
	for f := 0.05; f <= 1.2; f += 0.05 {
		out = append(out, f*maxD)
	}
	return out
}
