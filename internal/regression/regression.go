// Package regression implements the model machinery behind the
// location-monitoring valuation (Eqs. 16-17): ordinary-least-squares linear
// models over time, residual computation against a historical trace, and
// OptiMoS-style selection of the best sampling times ([19] Yan et al.,
// "OptiMoS: Optimal Sensing for Mobile Sensors", MDM 2012).
//
// The valuation of a set T' of sampled times is
//
//	G(T') = sum_i r_i^2|T  /  sum_i r_i^2|T'
//
// where r_i|T is the residual of the i-th historical data item under the
// model trained using only the items with timestamps in T. A larger G means
// the taken samples explain the history at least as well as the desired
// sampling times would have.
package regression

import (
	"fmt"
	"math"
)

// Series is a historical univariate trace: Values[i] observed at Times[i].
type Series struct {
	Times  []float64
	Values []float64
}

// NewSeries validates and wraps a trace.
func NewSeries(times, values []float64) (*Series, error) {
	if len(times) != len(values) {
		return nil, fmt.Errorf("regression: %d times vs %d values", len(times), len(values))
	}
	return &Series{Times: times, Values: values}, nil
}

// Len returns the number of historical items.
func (s *Series) Len() int { return len(s.Times) }

// LinearModel is y = Alpha + Beta*t, the model class the evaluation uses
// ("a linear regression model is used to model the data", §4.5).
type LinearModel struct {
	Alpha, Beta float64
	// Trained reports whether the model was fit on at least one point.
	Trained bool
}

// fitRidge is FitLinear's ridge: it keeps duplicate timestamps from making
// the normal equations singular.
const fitRidge = 1e-9

// FitLinear fits a linear model on the subset of s whose indices are given,
// by least squares over the ridge-regularized normal equations. With zero
// indices the model is untrained; with one index the model is the constant
// through that point.
func FitLinear(s *Series, idx []int) LinearModel {
	if len(idx) == 0 {
		return LinearModel{}
	}
	var f prefixFit
	last := idx[len(idx)-1]
	for _, i := range idx[:len(idx)-1] {
		f.add(s.Times[i], s.Values[i])
	}
	return f.with(s.Times[last], s.Values[last])
}

// Predict evaluates the model at time t.
func (m LinearModel) Predict(t float64) float64 { return m.Alpha + m.Beta*t }

// ResidualSumSquares returns sum_i (y_i - model(t_i))^2 over the whole
// series. For an untrained model the residual of every item is its value
// (prediction 0), matching the "no information" limit of Eq. 17.
func ResidualSumSquares(s *Series, m LinearModel) float64 {
	var sum float64
	for i := range s.Times {
		var pred float64
		if m.Trained {
			pred = m.Predict(s.Times[i])
		}
		d := s.Values[i] - pred
		sum += d * d
	}
	return sum
}

// RSSForTimes trains on the items whose timestamps appear in the given time
// set and returns the residual sum of squares over the full series.
// Timestamps not present in the series are ignored (a sample taken at an
// opportunistic time t' still informs the model through its nearest series
// item if the caller maps it; here we only honor exact matches, which is
// how desired sampling times are defined).
func RSSForTimes(s *Series, times []float64) float64 {
	idx := indicesOf(s, times)
	return ResidualSumSquares(s, FitLinear(s, idx))
}

// indicesOf returns, ascending, the indices of the series items whose
// timestamp is one of times. Series and requested times are ascending at
// every call site, which a merge answers without building a set; any
// other input takes the set.
func indicesOf(s *Series, times []float64) []int {
	var idx []int
	if ascending(s.Times) && ascending(times) {
		j := 0
		for i, t := range s.Times {
			for j < len(times) && times[j] < t {
				j++
			}
			if j < len(times) && times[j] == t {
				idx = append(idx, i)
			}
		}
		return idx
	}
	set := make(map[float64]bool, len(times))
	for _, t := range times {
		set[t] = true
	}
	for i, t := range s.Times {
		if set[t] {
			idx = append(idx, i)
		}
	}
	return idx
}

// ascending reports whether xs never decreases (and holds no NaN).
func ascending(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if !(xs[i-1] <= xs[i]) {
			return false
		}
	}
	return true
}

// Quality computes G(T') of Eq. 17 for the given desired times T and
// sampled times T'. An empty T' yields 0 (infinite residual limit); if the
// sampled residual is zero the quality is capped at a large finite value to
// keep valuations bounded.
func Quality(s *Series, desired, sampled []float64) float64 {
	if len(sampled) == 0 {
		return 0
	}
	rssDesired := RSSForTimes(s, desired)
	rssSampled := RSSForTimes(s, sampled)
	if rssSampled <= 1e-12 {
		if rssDesired <= 1e-12 {
			return 1
		}
		return 1e6
	}
	return rssDesired / rssSampled
}

// SelectSamplingTimes greedily chooses k timestamps from the series that
// minimize the residual sum of squares of the model trained on the chosen
// subset, evaluated over the full history. This reproduces the technique of
// [19]: "selects the sampling times such that the residuals of the model
// based on the values at the sampling times and the model given all the
// historical data is minimized"; the number of sampling times is fixed and
// given.
//
// Each round picks the first candidate i (in index order) whose
// ResidualSumSquares(s, FitLinear(s, chosen+[i])) is strictly smallest.
// Computing that for every candidate is O(n) per candidate and O(k n^2)
// in all, so a round instead fits every candidate in O(1) from running
// normal-equation sums (prefixFit), brackets its RSS in O(1) from
// whole-series sums (rssBounds), and runs the exact O(n) sum only for the
// candidates the brackets cannot rule out. The indices, and so the times,
// are the exhaustive loop's bit for bit.
func SelectSamplingTimes(s *Series, k int) []float64 {
	n := s.Len()
	if k >= n {
		out := append([]float64(nil), s.Times...)
		return out
	}
	if k <= 0 || n == 0 {
		return nil
	}
	bounds := newRSSBounds(s)
	var fit prefixFit
	chosen := make([]int, 0, k)
	used := make([]bool, n)
	models := make([]LinearModel, n)
	lo := make([]float64, n)
	for len(chosen) < k {
		// Bracket every candidate's RSS; upper is the least upper end, so
		// the minimum RSS is at most upper.
		upper := math.Inf(1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			models[i] = fit.with(s.Times[i], s.Values[i])
			var hi float64
			lo[i], hi = bounds.bracket(models[i])
			upper = min(upper, hi)
		}
		// The exhaustive loop's scan over the candidates the brackets keep:
		// one whose RSS is at least lo[i] cannot beat upper or bestRSS.
		bestIdx, bestRSS := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if used[i] || lo[i] > upper || lo[i] >= bestRSS {
				continue
			}
			if rss := ResidualSumSquares(s, models[i]); rss < bestRSS {
				bestRSS, bestIdx = rss, i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
		fit.add(s.Times[bestIdx], s.Values[bestIdx])
	}
	out := make([]float64, len(chosen))
	for i, idx := range chosen {
		out[i] = s.Times[idx]
	}
	return out
}

// prefixFit holds the normal-equation sums of the rows added so far, in
// their order, so that the fit of those rows plus one more costs O(1):
// FitLinear is one prefixFit, and SelectSamplingTimes keeps one for the
// chosen rows and asks it for every candidate.
type prefixFit struct {
	rows             int
	st, stt, sy, sty float64
}

// add appends row (t, y).
func (f *prefixFit) add(t, y float64) {
	f.rows++
	f.st += t
	f.stt += t * t
	f.sy += y
	f.sty += t * y
}

// with returns the fit of the added rows followed by row (t, y): the
// constant through (t, y) if no row was added, else the solution of
//
//	[n+ridge  St       ] [Alpha]   [Sy ]
//	[St       Stt+ridge] [Beta ] = [Sty]
//
// by Cholesky, or the mean of y if the system is not positive definite.
func (f *prefixFit) with(t, y float64) LinearModel {
	if f.rows == 0 {
		return LinearModel{Alpha: y, Beta: 0, Trained: true}
	}
	rows := float64(f.rows + 1)
	st := f.st + t
	stt := f.stt
	stt += t * t
	sy := f.sy + y
	sty := f.sty
	sty += t * y
	// L = [l00 0; l10 l11] with L L^T the matrix above, then L z = b and
	// L^T x = z.
	l00 := math.Sqrt(rows + fitRidge)
	l10 := st / l00
	d := stt + fitRidge
	d -= l10 * l10
	if !(d > 0) {
		return LinearModel{Alpha: sy / rows, Beta: 0, Trained: true}
	}
	l11 := math.Sqrt(d)
	z0 := sy / l00
	z1 := sty
	z1 -= l10 * z0
	beta := z1 / l11 / l11
	alpha := z0
	alpha -= l10 * beta
	return LinearModel{Alpha: alpha / l00, Beta: beta, Trained: true}
}

// rssBounds brackets ResidualSumSquares(s, m) for any trained model m in
// O(1) from sums over the whole series, taken in coordinates moved to its
// first item (t' = t - t0, y' = y - y0) so that their rounding follows the
// spread of the data, not their distance from the origin: window times are
// absolute slot numbers. There model m is y' = a' + b t' with
// a' = a + b t0 - y0, and
//
//	R' = sum (y' - a' - b t')^2 = Syy - 2a' Sy - 2b Sty + n a'^2 + 2a'b St + b^2 Stt.
//
// With u = 2^-53, mag(a, b) = sum (|y'| + |a| + |b t'|)^2 and the usual
// a-priori bounds for rounded sums and products:
//
//   - the closed form in floats is within wA = (n+12)u mag(a', b) of R';
//   - rounding t', y' and a' (the last by at most d) moves residual i by
//     e_i with sum e_i^2 <= E = 4(u^2 (Syy + b^2 Stt) + n d^2), so the real
//     sum of squares R of m is within wC = 2 sqrt(R' E) + E of R';
//   - ResidualSumSquares rounds residual i by at most 4u (|y|+|a|+|b t|),
//     whose squares sum to at most M = mag(|y0|+|a|+|b t0|, b) up to a
//     factor 1+u, so its float loop is within
//     wB = (n+2)u R + 8u sqrt(R M) + 16u^2 M of R.
//
// The bracket is R' ± 2(wA + wB + wC), the factor 2 covering the rounding
// of the bound itself, plus an absolute term for underflow.
type rssBounds struct {
	n, t0, y0             float64
	sy, syy, st, stt, sty float64
	ay, at, aty           float64 // sums of |y'|, |t'|, |t' y'|
}

func newRSSBounds(s *Series) rssBounds {
	b := rssBounds{n: float64(len(s.Times))}
	if len(s.Times) > 0 {
		b.t0, b.y0 = s.Times[0], s.Values[0]
	}
	for i, t := range s.Times {
		dt, dy := t-b.t0, s.Values[i]-b.y0
		b.sy += dy
		b.syy += dy * dy
		b.st += dt
		b.stt += dt * dt
		b.sty += dt * dy
		b.ay += math.Abs(dy)
		b.at += math.Abs(dt)
		b.aty += math.Abs(dt * dy)
	}
	return b
}

// mag is sum (|y'| + |a| + |c t'|)^2.
func (b *rssBounds) mag(a, c float64) float64 {
	return b.syy + 2*math.Abs(a)*b.ay + 2*math.Abs(c)*b.aty + b.n*(a*a) + 2*math.Abs(a*c)*b.at + c*c*b.stt
}

// bracket returns lo <= ResidualSumSquares(s, m) <= hi. A model or series
// whose sums are not finite, or too large to square safely, gets the
// trivial bracket [0, +Inf].
func (b *rssBounds) bracket(m LinearModel) (lo, hi float64) {
	const u = 0x1p-53
	a, c := m.Alpha, m.Beta
	ct0 := c * b.t0
	ap := a + ct0 - b.y0
	est := b.syy - 2*ap*b.sy - 2*c*b.sty + b.n*(ap*ap) + 2*ap*c*b.st + c*c*b.stt
	magA, magM := b.mag(ap, c), b.mag(math.Abs(b.y0)+math.Abs(a)+math.Abs(ct0), c)
	if !(max(magA, magM) < 0x1p1000) || math.IsNaN(est) {
		return 0, math.Inf(1)
	}
	d := 2 * u * (math.Abs(ap) + math.Abs(a) + 2*math.Abs(ct0))
	e := 4 * (u*u*(b.syy+c*c*b.stt) + b.n*d*d)
	wA := (b.n + 12) * u * magA
	rp := max(est, 0) + wA // >= R'
	wC := 2*math.Sqrt(rp)*math.Sqrt(e) + e
	r := rp + wC // >= R
	wB := (b.n+2)*u*r + 8*u*math.Sqrt(r)*math.Sqrt(magM) + 16*u*u*magM
	width := 2*(wA+wB+wC) + (4*b.n+64)*0x1p-1022
	return max(0, est-width), est + width
}
