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
	"sync"

	"repro/internal/geo"
	"repro/internal/linalg"
)

// Kernel is a positive-definite covariance function over the plane.
//
// Cov and Var must be safe for concurrent use: region-monitoring queries
// that share one GP model are planned on several goroutines at once (see
// internal/core's PlanRegionMonitoring). A pure function of its arguments
// and fixed parameters, like the kernels below, is.
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
// many subsets of one set evaluates each point pair's covariance once.
// The leave-one-out subsets of CreatePointQueries' marginals share more:
// LeaveOneOut values U and every U∖{j} from one forward sweep over U's
// factor.
//
// The point set grows at its end (Extend) and shrinks back (Truncate);
// the entries of the points kept stay where they are, so a caller whose
// point set only grows, like a region-monitoring query's observations,
// evaluates the kernel for each new point alone.
//
// A KernelBlocks keeps its selected indices and its result between
// calls; the larger buffers of a solve come from a free list the blocks
// of every caller share, so many long-lived blocks, one per query, do not
// each hold their own. The zero value is ready for Reset. Not
// safe for concurrent use.
type KernelBlocks struct {
	g       *GP
	targets []geo.Point
	pts     []geo.Point
	kuu     []float64 // packed lower triangle: kuu[i*(i+1)/2+j] = k(pts[i], pts[j]) for j <= i, without noise
	ktu     []float64 // one row per point: ktu[i*len(targets)+v] = k(targets[v], pts[i])

	idx []int     // PosteriorVariances(nil)'s selection, or LeaveOneOut's fallback subset
	out []float64 // PosteriorVariances' result, or LeaveOneOut's variances of one set
}

// solveBuffers are the buffers of one PosteriorVariances or LeaveOneOut
// call: K_AA and its factor, the targets' covariances with the selected
// points and their forward solves (one row per selected point, one
// column per target), the targets' sums of squares, and LeaveOneOut's
// copy of one subset's trailing rows.
type solveBuffers struct {
	kaa   linalg.Matrix
	ch    linalg.Cholesky
	kv, y []float64
	ss    []float64
	sub   sweep
}

// sweep is a right-looking elimination in progress: the lower triangle
// of an n×n system a, the n×r rows y of its right-hand sides and the
// running sums of squares ss of the rows already eliminated.
type sweep struct {
	n, r int
	a, y []float64
	ss   []float64
	done int // rows eliminated
}

// idleSolveBuffers holds the solve buffers no call is using, a free list
// for the reason core's planning arenas keep one: a sync.Pool empties at
// every GC. It holds at most as many as calls ever ran at once.
var idleSolveBuffers struct {
	sync.Mutex
	free []*solveBuffers
}

func getSolveBuffers() *solveBuffers {
	idleSolveBuffers.Lock()
	defer idleSolveBuffers.Unlock()
	n := len(idleSolveBuffers.free)
	if n == 0 {
		return &solveBuffers{}
	}
	sb := idleSolveBuffers.free[n-1]
	idleSolveBuffers.free = idleSolveBuffers.free[:n-1]
	return sb
}

func putSolveBuffers(sb *solveBuffers) {
	idleSolveBuffers.Lock()
	idleSolveBuffers.free = append(idleSolveBuffers.free, sb)
	idleSolveBuffers.Unlock()
}

// blockBuffers are the buffers a KernelBlocks owns, emptied.
type blockBuffers struct {
	pts      []geo.Point
	kuu, ktu []float64
	idx      []int
	out      []float64
}

// idleBlockBuffers holds the buffers of released KernelBlocks (Release)
// for the next Reset of blocks that have none: a region-monitoring
// window that ends hands its grown buffers to the query that starts
// next, instead of every window growing its own by append doubling. It
// keeps at most maxIdleBlocks; buffers past that are left to the
// collector.
var idleBlockBuffers struct {
	sync.Mutex
	free []blockBuffers
}

const maxIdleBlocks = 64

// NewKernelBlocks evaluates the kernel over pts and targets, in buffers
// of its own.
func (g *GP) NewKernelBlocks(targets, pts []geo.Point) *KernelBlocks {
	kb := &KernelBlocks{g: g, targets: targets}
	kb.Extend(pts...)
	return kb
}

// Reset empties kb's point set and binds it to g and targets, keeping
// its buffers; blocks without buffers take a released one's. kb keeps
// targets, which must not change while it is in use.
func (kb *KernelBlocks) Reset(g *GP, targets []geo.Point) {
	kb.g, kb.targets = g, targets
	if cap(kb.kuu) == 0 {
		idleBlockBuffers.Lock()
		if n := len(idleBlockBuffers.free); n > 0 {
			bb := idleBlockBuffers.free[n-1]
			idleBlockBuffers.free = idleBlockBuffers.free[:n-1]
			kb.pts, kb.kuu, kb.ktu, kb.idx, kb.out = bb.pts, bb.kuu, bb.ktu, bb.idx, bb.out
		}
		idleBlockBuffers.Unlock()
	}
	kb.pts, kb.kuu, kb.ktu = kb.pts[:0], kb.kuu[:0], kb.ktu[:0]
}

// Release empties kb and hands its buffers on to the next Reset of
// blocks that have none. kb holds nothing afterwards; only a Reset makes
// it usable again.
func (kb *KernelBlocks) Release() {
	bb := blockBuffers{kb.pts[:0], kb.kuu[:0], kb.ktu[:0], kb.idx[:0], kb.out[:0]}
	*kb = KernelBlocks{}
	if cap(bb.kuu) == 0 {
		return
	}
	idleBlockBuffers.Lock()
	if len(idleBlockBuffers.free) < maxIdleBlocks {
		idleBlockBuffers.free = append(idleBlockBuffers.free, bb)
	}
	idleBlockBuffers.Unlock()
}

// Extend appends pts to kb's point set, evaluating the kernel between
// each new point and every point before it, itself and each target.
func (kb *KernelBlocks) Extend(pts ...geo.Point) {
	k := kb.g.Kernel
	for _, p := range pts {
		kb.pts = append(kb.pts, p)
		for _, o := range kb.pts {
			kb.kuu = append(kb.kuu, k.Cov(p, o))
		}
		for _, t := range kb.targets {
			kb.ktu = append(kb.ktu, k.Cov(t, p))
		}
	}
}

// Truncate shrinks kb's point set to its first n points.
func (kb *KernelBlocks) Truncate(n int) {
	kb.pts, kb.kuu, kb.ktu = kb.pts[:n], kb.kuu[:n*(n+1)/2], kb.ktu[:n*len(kb.targets)]
}

// Len returns the size of kb's point set.
func (kb *KernelBlocks) Len() int { return len(kb.pts) }

// growFloats returns buf resized to n, reallocating only when its
// capacity is short, and then to at least twice it, so a buffer that
// follows a growing point set is reallocated a logarithmic number of
// times. Contents are unspecified.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// PosteriorVariances returns the predictive variance at each target after
// observing (noisy) measurements at the points idx selects, ascending
// indices into the point set; nil selects all of them. With no
// observations it returns the prior variances. The result is kb's own
// buffer: it is valid until the next call on kb.
//
// Eq. 6 is taken in its forward-only form: with K_AA = L Lᵀ and
// y = L⁻¹k_A(t), the posterior variance is k(t,t) − ‖y‖², floored at 0.
// One factorization serves every target: the targets' covariance vectors
// are the columns of one matrix, forward-solved four at a time
// (linalg.Cholesky.ForwardInto), and each column's squares are summed in
// ascending row order (linalg.ColumnDots), so each target's variance is
// bit-identical to a one-vector forward substitution of its own.
func (kb *KernelBlocks) PosteriorVariances(idx []int) ([]float64, error) {
	g, nt := kb.g, len(kb.targets)
	if idx == nil {
		kb.idx = kb.idx[:0]
		for i := range kb.pts {
			kb.idx = append(kb.idx, i)
		}
		idx = kb.idx
	}
	kb.out = growFloats(kb.out, nt)
	if len(idx) == 0 {
		kb.variances(kb.out, nil)
		return kb.out, nil
	}
	sb := getSolveBuffers()
	defer putSolveBuffers(sb)
	n := len(idx)
	kaa := &sb.kaa
	kaa.Rows, kaa.Cols, kaa.Data = n, n, growFloats(kaa.Data, n*n)
	for i, u := range idx {
		row := kb.kuu[u*(u+1)/2:]
		for j, w := range idx[:i+1] {
			v := row[w]
			kaa.Set(i, j, v)
			kaa.Set(j, i, v)
		}
		kaa.Set(i, i, kaa.At(i, i)+g.Noise)
	}
	ch := &sb.ch
	if err := linalg.CholeskyInto(ch, kaa); err != nil {
		// Retry with jitter: duplicated observation locations make K_AA
		// singular, which legitimately happens when several sensors stand
		// on the same grid cell. The failed attempt only read K_AA, so
		// the jitter goes onto it in place.
		for i := 0; i < n; i++ {
			kaa.Set(i, i, kaa.At(i, i)+1e-6*g.Kernel.Var(kb.pts[idx[i]])+1e-9)
		}
		if err := linalg.CholeskyInto(ch, kaa); err != nil {
			return nil, fmt.Errorf("gp: posterior variance: %w", err)
		}
	}
	if nt == 0 {
		return kb.out, nil
	}
	// Ascending and distinct, idx selects the first n points when its
	// last is n-1: their rows of ktu are already the matrix to solve.
	kv := kb.ktu[:n*nt]
	if idx[n-1] != n-1 {
		sb.kv = growFloats(sb.kv, n*nt)
		kv = sb.kv
		for j, u := range idx {
			copy(kv[j*nt:(j+1)*nt], kb.ktu[u*nt:(u+1)*nt])
		}
	}
	sb.y = growFloats(sb.y, n*nt)
	if err := ch.ForwardInto(sb.y, kv, nt); err != nil {
		return nil, err
	}
	sb.ss = growFloats(sb.ss, nt)
	linalg.ColumnDots(sb.ss, sb.y, sb.y)
	kb.variances(kb.out, sb.ss)
	return kb.out, nil
}

// variances writes into out each target's posterior variance k(t,t) −
// ss[t], floored at 0 against rounding; nil ss (no observations) gives
// the prior variances.
func (kb *KernelBlocks) variances(out, ss []float64) {
	for i, t := range kb.targets {
		v := kb.g.Kernel.Var(t)
		if ss != nil {
			v -= ss[i]
		}
		if v < 0 {
			v = 0 // numerical floor
		}
		out[i] = v
	}
}

// reduction returns F of Eq. 6 for the points idx selects — total prior
// minus total posterior variance over the targets, floored at zero — and
// the total prior variance.
func (kb *KernelBlocks) reduction(idx []int) (red, prior float64, err error) {
	post, err := kb.PosteriorVariances(idx)
	if err != nil {
		return 0, 0, err
	}
	red, prior = kb.reductionOf(post)
	return red, prior, nil
}

// reductionOf is reduction for the targets' posterior variances post.
func (kb *KernelBlocks) reductionOf(post []float64) (red, prior float64) {
	var posterior float64
	for i, t := range kb.targets {
		prior += kb.g.Kernel.Var(t)
		posterior += post[i]
	}
	red = prior - posterior
	if red < 0 {
		red = 0
	}
	return red, prior
}

// normalized is F divided by the total prior variance, 0 when that is.
func normalized(red, prior float64) float64 {
	if prior == 0 {
		return 0
	}
	return red / prior
}

// NormalizedVarianceReduction returns F of Eq. 6 for the points idx
// selects, divided by the total prior variance: the fraction of
// uncertainty removed, in [0,1].
func (kb *KernelBlocks) NormalizedVarianceReduction(idx []int) (float64, error) {
	red, prior, err := kb.reduction(idx)
	if err != nil {
		return 0, err
	}
	return normalized(red, prior), nil
}

// LeaveOneOut returns, in dst grown to 1+Len()-from values, the
// normalized variance reduction of kb's whole point set followed, for
// each j from `from` (0 <= from <= Len()) to Len()-1, by that of the set
// without point j: NormalizedVarianceReduction(nil) and
// NormalizedVarianceReduction of every index but j, bit for bit. An entry
// whose factorization fails even with jitter is 0, as there, and the
// first such error is returned.
//
// One forward sweep serves them all. The full set is eliminated
// right-looking: step k finishes row k of the factor L and of
// y = L⁻¹K_{A,V}, adds row k's squares to the targets' running sums, and
// subtracts its share from every later row. Before step j the later rows
// hold exactly the partial sums the set without j has at its own row j,
// since rows < j of its factor, of its y and of its running sums are the
// full set's. So the subset without j finishes a copy of those trailing
// rows alone. Every entry is still its left-looking sum, the same terms
// subtracted in the same ascending order as CholeskyInto and
// ForwardInto, and every sum of squares ColumnDots', which is what
// keeps the results bit-identical to a from-scratch valuation of each
// set. Where the full set meets a pivot CholeskyInto rejects, or a
// subset's trailing rows do, that set falls back to
// NormalizedVarianceReduction and its jitter retry.
func (kb *KernelBlocks) LeaveOneOut(dst []float64, from int) ([]float64, error) {
	n, nt := len(kb.pts), len(kb.targets)
	dst = growFloats(dst, 1+n-from)
	sb := getSolveBuffers()
	defer putSolveBuffers(sb)
	full := &sweep{n: n, r: nt}
	full.a = growFloats(sb.kaa.Data, n*n)
	sb.kaa.Data = full.a
	for i := 0; i < n; i++ {
		copy(full.a[i*n:i*n+i+1], kb.kuu[i*(i+1)/2:])
		full.a[i*n+i] += kb.g.Noise
	}
	sb.y = growFloats(sb.y, n*nt)
	full.y = sb.y
	copy(full.y, kb.ktu[:n*nt])
	sb.ss = growFloats(sb.ss, nt)
	full.ss = sb.ss
	clear(full.ss)
	kb.out = growFloats(kb.out, nt)
	var firstErr error
	fallback := func(skip int) float64 {
		var idx []int // nil: the whole set
		if skip >= 0 {
			kb.idx = kb.idx[:0]
			for i := 0; i < n; i++ {
				if i != skip {
					kb.idx = append(kb.idx, i)
				}
			}
			idx = kb.idx
		}
		v, err := kb.NormalizedVarianceReduction(idx)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	value := func(sw *sweep) float64 {
		kb.variances(kb.out, sw.ss)
		return normalized(kb.reductionOf(kb.out))
	}
	for j := 0; j < n; j++ {
		if j >= from {
			sub := full.trailing(&sb.sub, j)
			if sub.finish() {
				dst[1+j-from] = value(sub)
			} else {
				dst[1+j-from] = fallback(j)
			}
		}
		if !full.step() {
			for k := max(j+1, from); k < n; k++ {
				dst[1+k-from] = fallback(k)
			}
			dst[0] = fallback(-1)
			return dst, firstErr
		}
	}
	dst[0] = value(full)
	return dst, firstErr
}

// step eliminates the sweep's next row k: it turns a's pivot into L's
// and row k of y into that of L⁻¹Y, adds y[k]² to ss, and subtracts row
// k's share from every later row of a and y. It reports false, changing
// nothing, on a pivot CholeskyInto rejects.
func (sw *sweep) step() bool {
	k, n, r, a := sw.done, sw.n, sw.r, sw.a
	d := a[k*n+k]
	if d <= 0 || math.IsNaN(d) {
		return false
	}
	lkk := math.Sqrt(d)
	a[k*n+k] = lkk
	yk := sw.y[k*r : (k+1)*r]
	for t, v := range yk {
		v /= lkk
		yk[t] = v
		sw.ss[t] += v * v
	}
	for i := k + 1; i < n; i++ {
		a[i*n+k] /= lkk
		lik := a[i*n+k]
		for c := k + 1; c <= i; c++ {
			a[i*n+c] -= lik * a[c*n+k]
		}
		yi := sw.y[i*r : (i+1)*r]
		for t, v := range yk {
			yi[t] -= lik * v
		}
	}
	sw.done++
	return true
}

// finish eliminates every row the sweep has left, reporting false on a
// rejected pivot.
func (sw *sweep) finish() bool {
	for sw.done < sw.n {
		if !sw.step() {
			return false
		}
	}
	return true
}

// trailing writes into dst, reusing its buffers, the sweep of the set
// without row j, taken before step j eliminates it: rows < j are this
// sweep's (eliminated, summed in ss), and rows > j are copies of this
// sweep's, with column j left out.
func (sw *sweep) trailing(dst *sweep, j int) *sweep {
	n, r, m := sw.n, sw.r, sw.n-1-j
	dst.n, dst.r, dst.done = m, r, 0
	dst.a = growFloats(dst.a, m*m)
	for i := 0; i < m; i++ {
		copy(dst.a[i*m:i*m+i+1], sw.a[(j+1+i)*n+j+1:])
	}
	dst.y = growFloats(dst.y, m*r)
	copy(dst.y, sw.y[(j+1)*r:])
	dst.ss = growFloats(dst.ss, r)
	copy(dst.ss, sw.ss)
	return dst
}

// PosteriorVariances returns the predictive variance at each target
// location after observing (noisy) measurements at obs. With no
// observations it returns the prior variances. The slice is the caller's.
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
