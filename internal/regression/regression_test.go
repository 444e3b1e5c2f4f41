package regression

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
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
