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

	"repro/internal/linalg"
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

// FitLinear fits a linear model on the subset of s whose indices are given.
// With zero indices the model is untrained; with one index the model is the
// constant through that point. A tiny ridge keeps duplicate timestamps from
// making the normal equations singular.
func FitLinear(s *Series, idx []int) LinearModel {
	switch len(idx) {
	case 0:
		return LinearModel{}
	case 1:
		return LinearModel{Alpha: s.Values[idx[0]], Beta: 0, Trained: true}
	}
	x := linalg.NewMatrix(len(idx), 2)
	y := make([]float64, len(idx))
	for r, i := range idx {
		x.Set(r, 0, 1)
		x.Set(r, 1, s.Times[i])
		y[r] = s.Values[i]
	}
	beta, err := linalg.LeastSquares(x, y, 1e-9)
	if err != nil {
		// Fall back to the mean: still a valid (constant) linear model.
		var mean float64
		for _, v := range y {
			mean += v
		}
		return LinearModel{Alpha: mean / float64(len(y)), Beta: 0, Trained: true}
	}
	return LinearModel{Alpha: beta[0], Beta: beta[1], Trained: true}
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
func SelectSamplingTimes(s *Series, k int) []float64 {
	n := s.Len()
	if k >= n {
		out := append([]float64(nil), s.Times...)
		return out
	}
	if k <= 0 || n == 0 {
		return nil
	}
	chosen := make([]int, 0, k)
	used := make([]bool, n)
	for len(chosen) < k {
		bestIdx, bestRSS := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			cand := append(chosen, i)
			rss := ResidualSumSquares(s, FitLinear(s, cand))
			if rss < bestRSS {
				bestRSS, bestIdx = rss, i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
	}
	out := make([]float64, len(chosen))
	for i, idx := range chosen {
		out[i] = s.Times[idx]
	}
	return out
}
