// Package stats provides the small statistical and reporting helpers used by
// the simulation engine and the benchmark harness: summary statistics over
// per-slot metric samples and fixed-width table rendering of figure series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0<=q<=1) of xs using linear
// interpolation between order statistics. Returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Series is one named line on a figure: a y value per x value.
type Series struct {
	Name   string
	Values []float64
}

// Table renders figure data the way the paper's plots tabulate: one row per
// x value, one column per series. It is the output format of cmd/psbench.
type Table struct {
	Title  string
	XLabel string
	XS     []float64
	Series []Series
}

// AddSeries appends a named series; its length must match XS.
func (t *Table) AddSeries(name string, values []float64) {
	t.Series = append(t.Series, Series{Name: name, Values: values})
}

// CSV returns the table as comma-separated values with a header row; the
// title travels as a leading comment line so files stay self-describing.
func (t *Table) CSV() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for i, x := range t.XS {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range t.Series {
			v := math.NaN()
			if i < len(s.Values) {
				v = s.Values[i]
			}
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for i, x := range t.XS {
		fmt.Fprintf(&b, "%-14.6g", x)
		for _, s := range t.Series {
			v := math.NaN()
			if i < len(s.Values) {
				v = s.Values[i]
			}
			fmt.Fprintf(&b, " %14.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
