package regression

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func linearSeries(n int, a, b float64) *Series {
	s := &Series{}
	for i := 0; i < n; i++ {
		t := float64(i)
		s.Times = append(s.Times, t)
		s.Values = append(s.Values, a+b*t)
	}
	return s
}

func noisySeries(n int, a, b float64) *Series {
	s := &Series{}
	for i := 0; i < n; i++ {
		t := float64(i)
		noise := math.Sin(float64(i)*1.7) * 0.5 // deterministic pseudo-noise
		s.Times = append(s.Times, t)
		s.Values = append(s.Values, a+b*t+noise)
	}
	return s
}

func TestNewSeriesValidates(t *testing.T) {
	if _, err := NewSeries([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	s, err := NewSeries([]float64{1, 2}, []float64{3, 4})
	if err != nil || s.Len() != 2 {
		t.Errorf("NewSeries failed: %v %v", s, err)
	}
}

func TestFitLinearExact(t *testing.T) {
	s := linearSeries(10, 2, 3)
	m := FitLinear(s, []int{0, 3, 7, 9})
	if !m.Trained {
		t.Fatal("model should be trained")
	}
	if math.Abs(m.Alpha-2) > 1e-6 || math.Abs(m.Beta-3) > 1e-6 {
		t.Errorf("fit = %+v want alpha 2 beta 3", m)
	}
	if got := m.Predict(100); math.Abs(got-302) > 1e-4 {
		t.Errorf("Predict(100)=%v", got)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	s := linearSeries(5, 1, 1)
	empty := FitLinear(s, nil)
	if empty.Trained {
		t.Error("empty fit should be untrained")
	}
	single := FitLinear(s, []int{2})
	if !single.Trained || single.Predict(0) != s.Values[2] || single.Beta != 0 {
		t.Errorf("single-point fit = %+v", single)
	}
	// Duplicate timestamps: ridge fallback keeps the fit finite.
	dup := &Series{Times: []float64{1, 1, 1}, Values: []float64{2, 4, 6}}
	m := FitLinear(dup, []int{0, 1, 2})
	if math.IsNaN(m.Alpha) || math.IsNaN(m.Beta) {
		t.Errorf("duplicate timestamp fit produced NaN: %+v", m)
	}
	if pred := m.Predict(1); math.Abs(pred-4) > 0.5 {
		t.Errorf("duplicate fit prediction at t=1 is %v, want ~4 (mean)", pred)
	}
}

func TestResidualSumSquares(t *testing.T) {
	s := linearSeries(10, 2, 3)
	m := FitLinear(s, []int{0, 9})
	if rss := ResidualSumSquares(s, m); rss > 1e-9 {
		t.Errorf("exact model RSS = %v want 0", rss)
	}
	untrained := LinearModel{}
	rss := ResidualSumSquares(s, untrained)
	var want float64
	for _, v := range s.Values {
		want += v * v
	}
	if math.Abs(rss-want) > 1e-9 {
		t.Errorf("untrained RSS = %v want %v", rss, want)
	}
}

func TestRSSForTimesIgnoresUnknownTimes(t *testing.T) {
	s := noisySeries(20, 1, 0.5)
	rssAll := RSSForTimes(s, s.Times)
	rssWithBogus := RSSForTimes(s, append(append([]float64(nil), s.Times...), 999, -5))
	if rssAll != rssWithBogus {
		t.Errorf("unknown timestamps changed RSS: %v vs %v", rssAll, rssWithBogus)
	}
}

func TestQualityBasics(t *testing.T) {
	s := noisySeries(30, 2, 1)
	desired := SelectSamplingTimes(s, 10)
	// Sampling exactly the desired times gives quality 1.
	if q := Quality(s, desired, desired); math.Abs(q-1) > 1e-9 {
		t.Errorf("Quality(T,T)=%v want 1", q)
	}
	// No samples gives 0.
	if q := Quality(s, desired, nil); q != 0 {
		t.Errorf("Quality(T,{})=%v want 0", q)
	}
	// Sampling everything is at least as good as the desired subset.
	if q := Quality(s, desired, s.Times); q < 1-1e-9 {
		t.Errorf("Quality(T,all)=%v want >= 1", q)
	}
}

func TestQualityZeroResidualCap(t *testing.T) {
	s := linearSeries(10, 0, 2) // perfectly linear: any 2+ samples give 0 RSS
	desired := []float64{0, 5}
	q := Quality(s, desired, []float64{1, 2, 3})
	if math.IsInf(q, 1) || math.IsNaN(q) {
		t.Fatalf("quality must stay finite, got %v", q)
	}
	if q != 1 {
		// Both RSS are ~0, so the convention is quality 1.
		t.Errorf("both-zero quality = %v want 1", q)
	}
}

func TestSelectSamplingTimesCount(t *testing.T) {
	s := noisySeries(25, 1, 0.3)
	for _, k := range []int{0, 1, 5, 24, 25, 40} {
		got := SelectSamplingTimes(s, k)
		wantLen := k
		if k > s.Len() {
			wantLen = s.Len()
		}
		if k <= 0 {
			wantLen = 0
		}
		if len(got) != wantLen {
			t.Errorf("k=%d: got %d times, want %d", k, len(got), wantLen)
		}
		// No duplicates.
		seen := map[float64]bool{}
		for _, tm := range got {
			if seen[tm] {
				t.Errorf("k=%d: duplicate time %v", k, tm)
			}
			seen[tm] = true
		}
	}
}

func TestSelectSamplingTimesReducesRSS(t *testing.T) {
	s := noisySeries(30, 5, -0.2)
	rssPrev := math.Inf(1)
	for _, k := range []int{1, 3, 6, 10} {
		times := SelectSamplingTimes(s, k)
		rss := RSSForTimes(s, times)
		if rss > rssPrev+1e-9 {
			t.Errorf("greedy RSS increased at k=%d: %v -> %v", k, rssPrev, rss)
		}
		rssPrev = rss
	}
}

func TestSelectSamplingTimesBeatsWorstSubset(t *testing.T) {
	// The greedy selection should beat picking the k first timestamps of a
	// series with a changing trend.
	s := &Series{}
	for i := 0; i < 30; i++ {
		tm := float64(i)
		v := math.Sin(tm/5) * 10
		s.Times = append(s.Times, tm)
		s.Values = append(s.Values, v)
	}
	k := 5
	greedy := RSSForTimes(s, SelectSamplingTimes(s, k))
	first := RSSForTimes(s, s.Times[:k])
	if greedy > first {
		t.Errorf("greedy RSS %v worse than naive prefix RSS %v", greedy, first)
	}
}

func TestQualityMonotonicityProperty(t *testing.T) {
	// Adding a sampled time never lowers quality (RSS of a superset fit can
	// rise slightly in theory for misspecified models, so allow epsilon —
	// but with linear models on near-linear data it must not collapse).
	s := noisySeries(20, 3, 0.7)
	desired := SelectSamplingTimes(s, 6)
	f := func(pick uint8) bool {
		base := []float64{s.Times[2], s.Times[9]}
		extra := s.Times[int(pick)%s.Len()]
		q1 := Quality(s, desired, base)
		q2 := Quality(s, desired, append(base, extra))
		return q2 >= q1*0.5 // quality never collapses when sampling more
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSelectedTimesAreFromSeries(t *testing.T) {
	s := noisySeries(15, 0, 1)
	times := SelectSamplingTimes(s, 7)
	valid := map[float64]bool{}
	for _, tm := range s.Times {
		valid[tm] = true
	}
	for _, tm := range times {
		if !valid[tm] {
			t.Errorf("selected time %v not in series", tm)
		}
	}
	sort.Float64s(times)
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			t.Errorf("duplicate selected time %v", times[i])
		}
	}
}

// TestIndicesOf: the merge over ascending inputs and the set over any
// other input name the same series items, in series order.
func TestIndicesOf(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name          string
		series, times []float64
		want          []int
	}{
		{"sorted", []float64{0, 1, 2, 3, 4, 5}, []float64{1, 3, 4}, []int{1, 3, 4}},
		{"sorted, unknown times ignored", []float64{0, 1, 2, 3}, []float64{-1, 0.5, 2, 9}, []int{2}},
		{"nothing requested", []float64{0, 1, 2}, nil, nil},
		{"empty series", nil, []float64{1, 2}, nil},
		{"duplicate requested times", []float64{0, 1, 2, 3}, []float64{1, 1, 3, 3}, []int{1, 3}},
		{"duplicate series times", []float64{0, 1, 1, 2, 2, 3}, []float64{1, 2}, []int{1, 2, 3, 4}},
		{"duplicates on both sides", []float64{1, 1, 2}, []float64{1, 1, 2, 2}, []int{0, 1, 2}},
		{"unsorted requested times", []float64{0, 1, 2, 3, 4}, []float64{4, 0, 2}, []int{0, 2, 4}},
		{"unsorted series", []float64{3, 0, 2, 1}, []float64{0, 3}, []int{0, 1}},
		{"both unsorted, with duplicates", []float64{2, 0, 2, 1}, []float64{2, 1, 2}, []int{0, 2, 3}},
		{"NaN matches nothing", []float64{0, 1, nan, 2}, []float64{1, nan}, []int{1}},
	}
	for _, c := range cases {
		got := indicesOf(&Series{Times: c.series}, c.times)
		if len(got) != len(c.want) {
			t.Errorf("%s: indices %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: indices %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// fitLinearReference is FitLinear on the general n x 2 design matrix
// X = [1 t]: the normal equations (X^T X + ridge I) beta = X^T y, each
// sum taken in index order, solved by a 2x2 Cholesky factor with a
// forward and a backward substitution; the mean if they are not positive
// definite. FitLinear must return its model bit for bit.
func fitLinearReference(s *Series, idx []int) LinearModel {
	switch len(idx) {
	case 0:
		return LinearModel{}
	case 1:
		return LinearModel{Alpha: s.Values[idx[0]], Beta: 0, Trained: true}
	}
	var a00, a10, a11, b0, b1, mean float64
	for _, i := range idx {
		t, y := s.Times[i], s.Values[i]
		a00 += 1 * 1
		a10 += t * 1
		a11 += t * t
		b0 += 1 * y
		b1 += t * y
		mean += y
	}
	a00 += fitRidge
	a11 += fitRidge
	if a00 <= 0 || math.IsNaN(a00) {
		return LinearModel{Alpha: mean / float64(len(idx)), Beta: 0, Trained: true}
	}
	l00 := math.Sqrt(a00)
	l10 := a10 / l00
	d := a11 - l10*l10
	if d <= 0 || math.IsNaN(d) {
		return LinearModel{Alpha: mean / float64(len(idx)), Beta: 0, Trained: true}
	}
	l11 := math.Sqrt(d)
	y0 := b0 / l00
	y1 := (b1 - l10*y0) / l11
	beta := y1 / l11
	alpha := (y0 - l10*beta) / l00
	return LinearModel{Alpha: alpha, Beta: beta, Trained: true}
}

// TestFitLinearMatchesReference: on seeded index lists over every
// differential shape, window start and a few degenerate series, FitLinear
// returns the design-matrix fit's coefficients bit for bit.
func TestFitLinearMatchesReference(t *testing.T) {
	series := []*Series{
		{Times: []float64{1, 1, 1}, Values: []float64{2, 4, 6}},
		{Times: []float64{0, 0}, Values: []float64{1, 3}},
		{Times: []float64{1e300, -1e300, 2}, Values: []float64{1, 2, 3}},
		{Times: []float64{math.NaN(), 1, 2}, Values: []float64{1, 2, 3}},
		{Times: []float64{math.Inf(1), 1, 2}, Values: []float64{1, 2, 3}},
	}
	for _, shape := range []string{"random", "quantized", "mirrored", "constant", "duplicate-times"} {
		for _, start := range []float64{0, 1e6, 1e8} {
			series = append(series, differentialSeries(shape, 1, start, 200))
		}
	}
	r := rng.New(1, "fit-linear-reference")
	for si, s := range series {
		for trial := 0; trial < 40; trial++ {
			idx := make([]int, r.Intn(min(s.Len(), 12)+1))
			for j := range idx {
				idx[j] = r.Intn(s.Len())
			}
			got, want := FitLinear(s, idx), fitLinearReference(s, idx)
			if math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) ||
				math.Float64bits(got.Beta) != math.Float64bits(want.Beta) || got.Trained != want.Trained {
				t.Fatalf("series %d idx %v: FitLinear %+v, reference %+v", si, idx, got, want)
			}
		}
	}
}

// selectSamplingTimesReference is SelectSamplingTimes' exhaustive loop:
// each round fits every unused candidate on the design matrix and sums its
// residuals over the whole series, O(k n^2) in all. SelectSamplingTimes
// must choose its indices exactly.
func selectSamplingTimesReference(s *Series, k int) []float64 {
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
			rss := ResidualSumSquares(s, fitLinearReference(s, cand))
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

// differentialSeries builds the series shapes the differential test runs,
// over a window of n slots from start (a location-monitoring window keeps
// absolute slot numbers): a noisy diurnal trace like the worlds'
// histories, the same with values rounded to one decimal (exact ties
// between candidates), the same with its second half the first half
// mirrored about the base (candidates whose sums of squares agree up to
// rounding, so the bracket decides), a constant, and a trace whose
// timestamps repeat in threes.
func differentialSeries(shape string, seed int64, start float64, n int) *Series {
	r := rng.New(seed, "sampling-times-"+shape)
	base, amp := r.Uniform(40, 80), r.Uniform(15, 35)
	s := &Series{Times: make([]float64, n), Values: make([]float64, n)}
	for i := range n {
		t := float64(i)
		if shape == "duplicate-times" {
			t = float64(i / 3)
		}
		y := base + amp*math.Sin(2*math.Pi*t/float64(max(n, 1))) + r.Norm(0, 3)
		switch shape {
		case "quantized":
			y = math.Round(y*10) / 10
		case "constant":
			y = base
		case "mirrored":
			if h := (n + 1) / 2; i >= h {
				y = 2*base - s.Values[i-h]
			}
		}
		s.Times[i], s.Values[i] = start+t, y
	}
	return s
}

// TestSelectSamplingTimesMatchesReference: on seeded random, tied,
// mirrored, constant and duplicate-time series of up to 10 001 items, in windows
// starting at slot 0, 10^6 and 10^8, and for k up to 10, the bound-screened
// selection returns the exhaustive loop's times, bit for bit and in its
// order.
func TestSelectSamplingTimesMatchesReference(t *testing.T) {
	type tc struct {
		shape string
		start float64
		n     int
		ks    []int
	}
	cases := []tc{
		{"random", 0, 0, []int{0, 1, 3}},
		{"random", 0, 1, []int{0, 1, 2}},
		{"random", 0, 2, []int{1, 2}},
		{"random", 0, 3, []int{1, 2, 3}},
		{"random", 0, 17, []int{1, 5, 10}},
		{"random", 0, 400, []int{1, 2, 10}},
		{"random", 0, 2000, []int{10}},
		{"quantized", 0, 17, []int{10}},
		{"quantized", 0, 600, []int{10}},
		{"mirrored", 0, 16, []int{1, 4}},
		{"mirrored", 0, 600, []int{1, 2, 10}},
		{"constant", 0, 1, []int{1}},
		{"constant", 0, 5, []int{2, 4}},
		{"constant", 0, 300, []int{10}},
		{"duplicate-times", 0, 9, []int{3, 8}},
		{"duplicate-times", 0, 601, []int{10}},
	}
	for _, start := range []float64{1e6, 1e8} {
		cases = append(cases,
			tc{"random", start, 17, []int{1, 5, 10}},
			tc{"random", start, 400, []int{1, 2, 10}},
			tc{"quantized", start, 600, []int{10}},
			tc{"mirrored", start, 600, []int{1, 2, 10}},
			tc{"constant", start, 300, []int{10}},
			tc{"duplicate-times", start, 601, []int{10}},
		)
	}
	if !testing.Short() {
		for _, start := range []float64{0, 1e6, 1e8} {
			cases = append(cases, tc{"random", start, 10_001, []int{10}})
		}
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			s := differentialSeries(c.shape, seed, c.start, c.n)
			for _, k := range c.ks {
				want := selectSamplingTimesReference(s, k)
				got := SelectSamplingTimes(s, k)
				if len(got) != len(want) {
					t.Fatalf("%s start %g n=%d seed %d k=%d: %d times, want %d", c.shape, c.start, c.n, seed, k, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s start %g n=%d seed %d k=%d: time %d = %v, want %v (got %v, want %v)",
							c.shape, c.start, c.n, seed, k, i, got[i], want[i], got, want)
					}
				}
			}
			if c.n == 10_001 {
				break // one seed: the reference alone takes seconds
			}
		}
	}
}

// TestRSSBracketHolds: for fits of random index lists, and for models far
// from any fit (slopes up to 10^3, intercepts up to 10^12), over every
// differential shape and window start, the bracket holds the exact loop's
// sum of squares.
func TestRSSBracketHolds(t *testing.T) {
	r := rng.New(1, "rss-bracket")
	for _, shape := range []string{"random", "quantized", "mirrored", "constant", "duplicate-times"} {
		for _, start := range []float64{0, 1e6, 1e8} {
			s := differentialSeries(shape, 2, start, 300)
			b := newRSSBounds(s)
			for trial := 0; trial < 200; trial++ {
				idx := make([]int, r.Intn(10)+1)
				for j := range idx {
					idx[j] = r.Intn(s.Len())
				}
				m := FitLinear(s, idx)
				if trial%2 == 1 {
					m.Beta = r.Uniform(-1, 1) * math.Pow(10, r.Uniform(-9, 3))
					m.Alpha = r.Uniform(-1, 1) * math.Pow(10, r.Uniform(-3, 12))
				}
				lo, hi := b.bracket(m)
				if rss := ResidualSumSquares(s, m); !(lo <= rss && rss <= hi) {
					t.Fatalf("%s start %g model %+v: RSS %v outside [%v, %v]", shape, start, m, rss, lo, hi)
				}
			}
		}
	}
}

// BenchmarkSelectSamplingTimes times a 10 001-slot window with k = 10, the
// shape of a long location-monitoring submit, at window starts 0, 10^6 and
// 10^8: the bracket's width, and so the number of exact O(n) sums, must
// not grow with the slot number.
func BenchmarkSelectSamplingTimes(b *testing.B) {
	for _, start := range []float64{0, 1e6, 1e8} {
		s := differentialSeries("random", 1, start, 10_001)
		b.Run(fmt.Sprintf("start=%g", start), func(b *testing.B) {
			for range b.N {
				SelectSamplingTimes(s, 10)
			}
		})
	}
}
