package gp

import (
	"math"

	"repro/internal/geo"
)

// Posterior incrementally tracks a GP posterior over a fixed target set as
// observations are added one at a time. It exists because Algorithm 4
// (sampling-point selection for region monitoring) needs many marginal
// variance-reduction evaluations per slot; recomputing a full Cholesky per
// candidate would be O(m^3) each, while this tracker answers a marginal
// from scratch in O(m^2 + m * |targets|) using incremental Cholesky rows,
// and a Probe keeps a candidate's marginal current across an Add in
// O(m + |targets|).
//
// Representation: for observations S with kernel matrix K_SS + noise*I =
// L L^T, we store W[j][v] = (L^-1 K_S,targets)[j][v]. Then
//
//	postVar(v | S)   = k(v,v) - sum_j W[j][v]^2
//	cov(v, s | S)    = k(v,s) - w_s . W[.][v]
//	postVar(s | S)   = k(s,s) - |w_s|^2   (noise-free)
//
// and adding s appends one row to L and W.
type Posterior struct {
	gp      *GP
	targets []geo.Point
	obs     []geo.Point

	prior   []float64   // prior variance per target
	postVar []float64   // current posterior variance per target
	l       [][]float64 // lower-triangular rows of chol(K_SS + noise I)
	w       [][]float64 // W rows, one per observation

	// degraded latches when an accepted observation's residual variance d
	// fell below degradedFraction of its prior scale: the Cholesky row
	// divides by sqrt(d), so later rows amplify rounding error once d is
	// tiny. Callers that keep a Posterior alive across batches (the
	// region-monitoring base-posterior cache) treat the flag as a signal
	// to rebuild from scratch instead of appending further rows.
	degraded bool
}

// degradedFraction is the conditioning threshold of Degraded: an accepted
// observation whose residual variance d is below this fraction of its
// prior scale k(s,s)+noise marks the factorization as degraded.
const degradedFraction = 1e-9

// NewPosterior starts tracking the posterior over the given targets with
// no observations.
func (g *GP) NewPosterior(targets []geo.Point) *Posterior {
	p := &Posterior{
		gp:      g,
		targets: targets,
		prior:   make([]float64, len(targets)),
		postVar: make([]float64, len(targets)),
	}
	for i, t := range targets {
		p.prior[i] = g.Kernel.Var(t)
		p.postVar[i] = p.prior[i]
	}
	return p
}

// solveAgainst computes w_s = L^-1 k_S(s) for a candidate point.
func (p *Posterior) solveAgainst(s geo.Point) []float64 {
	m := len(p.obs)
	ws := make([]float64, m)
	for i := 0; i < m; i++ {
		v := p.gp.Kernel.Cov(p.obs[i], s)
		for j := 0; j < i; j++ {
			v -= p.l[i][j] * ws[j]
		}
		ws[i] = v / p.l[i][i]
	}
	return ws
}

// candidate computes w_s and the (noise-inflated) residual variance d of
// a candidate.
func (p *Posterior) candidate(s geo.Point) (ws []float64, d float64) {
	ws = p.solveAgainst(s)
	d = p.gp.Kernel.Var(s) + p.gp.Noise
	for _, w := range ws {
		d -= w * w
	}
	return ws, d
}

// MarginalReduction returns the decrease in total posterior variance over
// the targets if s were observed next:
//
//	sum_v cov(v, s | S)^2 / (postVar(s|S) + noise).
//
// It does not mutate the tracker. Returns 0 for numerically redundant
// candidates (e.g. duplicate locations).
func (p *Posterior) MarginalReduction(s geo.Point) float64 {
	ws, d := p.candidate(s)
	if d <= 1e-12 {
		return 0
	}
	var sum float64
	for vi, t := range p.targets {
		c := p.gp.Kernel.Cov(t, s)
		for j, w := range ws {
			c -= w * p.w[j][vi]
		}
		sum += c * c / d
	}
	return sum
}

// Add commits an observation at s, updating the posterior in
// O(m^2 + m * |targets|). Numerically redundant observations are absorbed
// as no-ops (reduction 0) rather than corrupting the factorization.
func (p *Posterior) Add(s geo.Point) {
	pr := p.NewProbe(s)
	p.appendRow(&pr)
}

// AddProbe is Add(s) for the location pr follows, in O(m + |targets|): the
// probe already holds what Add solves for. pr stays usable.
func (p *Posterior) AddProbe(pr *Probe) {
	p.Extend(pr)
	cp := pr.Clone()
	p.appendRow(&cp)
}

// appendRow commits the observation pr follows; pr must be extended to
// all of p's rows. It takes ownership of pr's vectors: ws, with the
// diagonal entry appended, and c, scaled, become the new rows of L and W.
func (p *Posterior) appendRow(pr *Probe) {
	if pr.d <= 1e-12 {
		return
	}
	if pr.d < degradedFraction*(p.gp.Kernel.Var(pr.s)+p.gp.Noise) {
		p.degraded = true
	}
	root := math.Sqrt(pr.d)
	for vi := range pr.c {
		pr.c[vi] /= root
		p.postVar[vi] -= pr.c[vi] * pr.c[vi]
		if p.postVar[vi] < 0 {
			p.postVar[vi] = 0
		}
	}
	p.l = append(p.l, append(pr.ws, root))
	p.w = append(p.w, pr.c)
	p.obs = append(p.obs, pr.s)
}

// TotalReduction returns F(S): total prior variance minus total posterior
// variance over the targets (Eq. 6).
func (p *Posterior) TotalReduction() float64 {
	var sum float64
	for i := range p.targets {
		sum += p.prior[i] - p.postVar[i]
	}
	if sum < 0 {
		return 0
	}
	return sum
}

// Degraded reports whether any accepted observation was ill-conditioned
// (residual variance below degradedFraction of its prior scale). A
// degraded tracker still answers queries — every Add so far used the
// exact same arithmetic a from-scratch replay of the observation
// sequence would — but appending further rows risks amplified rounding,
// so long-lived caches should rebuild instead of appending.
func (p *Posterior) Degraded() bool { return p.degraded }

// Clone returns an independent copy of the tracker, so branch-and-bound or
// per-time-instance selections (Algorithm 4 keeps one set per future time
// slot) can diverge cheaply. The rows of L and W are written once, when
// their observation is added, and never again, so the clone shares them:
// its row lists are capped at the current length, which makes the first
// Add on either side grow a private list instead of writing into a
// shared one. Only the per-target posterior variances are copied.
func (p *Posterior) Clone() *Posterior {
	n := len(p.obs)
	return &Posterior{
		gp:       p.gp,
		targets:  p.targets,
		obs:      p.obs[:n:n],
		prior:    p.prior,
		postVar:  append([]float64(nil), p.postVar...),
		l:        p.l[:n:n],
		w:        p.w[:n:n],
		degraded: p.degraded,
	}
}

// Probe follows one candidate location s as a tracker grows. It holds the
// three pieces MarginalReduction solves for from scratch — ws = L^-1 k_S(s),
// the residual variance d and the per-target covariances c[v] = cov(v, s | S)
// — and Extend advances each by exactly the term a new observation adds,
// in O(m + |targets|) with one kernel evaluation, where the from-scratch
// solve is O(m^2 + m*|targets|) with m + |targets| of them.
//
// The result is the same float, not an approximation. Forward substitution
// is prefix-stable: ws[i] depends on rows 0..i of L only, so appending a
// row leaves every earlier entry as it was. And d and c[v] are running
// differences taken in ascending row order, which is the order
// MarginalReduction subtracts in, so each is the same sequence of
// operations whether done in one pass or one row at a time.
type Probe struct {
	s  geo.Point
	ws []float64 // L^-1 k_S(s) over the rows folded in so far
	d  float64   // k(s,s) + noise - sum_j ws[j]^2
	c  []float64 // k(v,s) - sum_j ws[j]*W[j][v] per target v
}

// NewProbe starts following s from the tracker's current observations.
func (p *Posterior) NewProbe(s geo.Point) Probe {
	pr := Probe{s: s, d: p.gp.Kernel.Var(s) + p.gp.Noise}
	pr.c, pr.ws = probeBuffers(len(p.targets), len(p.obs))
	for vi, t := range p.targets {
		pr.c[vi] = p.gp.Kernel.Cov(t, s)
	}
	p.Extend(&pr)
	return pr
}

// probeBuffers carves a probe's two vectors out of one allocation: c of
// length v, and an empty ws with room for m entries plus the handful a
// planning call commits per tracker (past that, append moves ws out).
func probeBuffers(v, m int) (c, ws []float64) {
	buf := make([]float64, v+m+4)
	return buf[:v:v], buf[v:v]
}

// Extend folds into pr the observations p holds beyond those pr has seen.
// pr must come from p or from a tracker p was cloned from: the rows it has
// seen are then the first rows of p.
func (p *Posterior) Extend(pr *Probe) {
	for i := len(pr.ws); i < len(p.obs); i++ {
		li := p.l[i]
		v := p.gp.Kernel.Cov(p.obs[i], pr.s)
		for j, w := range pr.ws {
			v -= li[j] * w
		}
		w := v / li[i]
		pr.ws = append(pr.ws, w)
		pr.d -= w * w
		for vi, wv := range p.w[i] {
			pr.c[vi] -= w * wv
		}
	}
}

// Reduction is MarginalReduction(s) on the tracker pr was last extended
// against.
func (pr *Probe) Reduction() float64 {
	if pr.d <= 1e-12 {
		return 0
	}
	var sum float64
	for _, c := range pr.c {
		sum += c * c / pr.d
	}
	return sum
}

// Clone returns an independent copy, for a tracker about to diverge from
// the one pr follows.
func (pr *Probe) Clone() Probe {
	cp := Probe{s: pr.s, d: pr.d}
	cp.c, cp.ws = probeBuffers(len(pr.c), len(pr.ws))
	copy(cp.c, pr.c)
	cp.ws = append(cp.ws, pr.ws...)
	return cp
}
