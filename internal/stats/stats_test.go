package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanSumEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Sum(nil) != 0 {
		t.Error("Sum(nil) != 0")
	}
}

func TestMeanKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean=%v", got)
	}
	if got := Sum(xs); got != 10 {
		t.Errorf("Sum=%v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v)=%v want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("median of {0,10} = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile != 0")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "Fig X", XLabel: "budget", XS: []float64{7, 10}}
	tab.AddSeries("Optimal", []float64{1.5, 2.5})
	tab.AddSeries("Baseline", []float64{0, 1})
	out := tab.Render()
	if !strings.Contains(out, "# Fig X") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "Optimal") || !strings.Contains(out, "Baseline") {
		t.Errorf("missing series names:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "1.5000") {
		t.Errorf("row missing value:\n%s", out)
	}
}

func TestTableRenderShortSeries(t *testing.T) {
	// A series shorter than XS renders NaN rather than panicking.
	tab := Table{XLabel: "x", XS: []float64{1, 2}}
	tab.AddSeries("s", []float64{5})
	out := tab.Render()
	if !strings.Contains(out, "NaN") {
		t.Errorf("expected NaN for missing value:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Title: "Fig", XLabel: "budget,x", XS: []float64{7}}
	tab.AddSeries(`Opt"imal`, []float64{1.5})
	out := tab.CSV()
	if !strings.Contains(out, `"budget,x"`) {
		t.Errorf("comma in header not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"Opt""imal"`) {
		t.Errorf("quote in header not escaped:\n%s", out)
	}
	if !strings.Contains(out, "7,1.5") {
		t.Errorf("data row missing:\n%s", out)
	}
	if !strings.Contains(out, "# Fig") {
		t.Errorf("title comment missing:\n%s", out)
	}
	// Short series produce NaN, not a panic.
	tab2 := Table{XLabel: "x", XS: []float64{1, 2}}
	tab2.AddSeries("s", []float64{5})
	if !strings.Contains(tab2.CSV(), "NaN") {
		t.Error("expected NaN for missing CSV value")
	}
}
