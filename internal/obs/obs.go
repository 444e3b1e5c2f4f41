// Package obs is the repo's dependency-free observability core:
// counters, gauges and fixed-bucket histograms with atomic hot paths, a
// registry that renders the Prometheus text exposition format, and a
// span-style tracer for attributing slot latency to pipeline stages.
//
// Hot-path cost is deliberately tiny — an Observe or Add is a binary
// search over a small bucket slice plus two or three atomic ops, with no
// allocation and no locking — so the engine can instrument every slot
// and every HTTP request without perturbing the latencies it measures.
//
// The registry is get-or-create: asking twice for the same family name
// (with the same kind and label names) returns the same family, so the
// engine, hub and serve layers can all register against one registry
// without coordinating initialization order. A name collision with a
// different kind or label set panics — that is a programming error, not
// a runtime condition.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64. The value is stored as
// IEEE-754 bits in a uint64 so Add is a CAS loop and Inc never locks.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v. Negative v panics: a counter that
// goes down is a gauge.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decremented")
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments (or, with negative v, decrements) the gauge.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeFunc is a gauge read from a function at each read: live state
// another component owns (a queue's depth, the live query count) is
// reported as it is, with no copy to keep current.
type GaugeFunc struct{ fn func() float64 }

// Value calls the gauge's function.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (exclusive of +Inf, which is implicit); counts are stored
// per-bucket and cumulated only at exposition time.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the owning bucket — the same estimate a
// Prometheus histogram_quantile() would compute. It is a test and
// reporting convenience, not part of the hot path.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var seen float64
	lower := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		upper := math.Inf(1)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		if seen+n >= rank {
			if math.IsInf(upper, 1) {
				return lower
			}
			if n == 0 {
				return upper
			}
			return lower + (upper-lower)*((rank-seen)/n)
		}
		seen += n
		lower = upper
	}
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return math.NaN()
}

// DurationBuckets are the default bounds (in seconds) for latency
// histograms: 0.5ms up to 10s.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are power-of-two bounds for count-valued histograms such
// as eviction-run sizes.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Kind is a metric family's type.
type Kind int

// The three family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family is one named metric family: a kind, a help string, fixed label
// names, and one child metric per label-value combination (a single
// child under the empty key when the family has no labels).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]any // Counter / Gauge / Histogram keyed by joined label values
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the family, creating it on first use and panicking on
// a kind or label-set collision.
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
		}
		if strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]any{},
	}
	if kind == KindHistogram {
		if len(f.buckets) == 0 {
			f.buckets = append([]float64(nil), DurationBuckets...)
		}
		if !sort.Float64sAreSorted(f.buckets) {
			panic(fmt.Sprintf("obs: metric %q has unsorted buckets", name))
		}
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

const labelSep = "\x1f"

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q called with %d label values, declared %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.kind {
	case KindCounter:
		c = &Counter{}
	case KindGauge:
		c = &Gauge{}
	case KindHistogram:
		c = &Histogram{
			bounds: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.children[key] = c
	return c
}

// Counter returns (creating on first use) the named label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, nil, nil).child(nil).(*Counter)
}

// Gauge returns (creating on first use) the named label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, KindGauge, nil, nil).child(nil).(*Gauge)
}

// Histogram returns (creating on first use) the named label-less
// histogram. Nil buckets default to DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, buckets, nil).child(nil).(*Histogram)
}

// GaugeFunc registers the named label-less gauge read from fn. Asking
// again for the same name returns the first registration's gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	f := r.lookup(name, help, KindGauge, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[""]; ok {
		return c.(*GaugeFunc)
	}
	g := &GaugeFunc{fn: fn}
	f.children[""] = g
	return g
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns (creating on first use) the named labeled counter
// family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, KindCounter, nil, labels)}
}

// With returns the child counter for the given label values (positional,
// matching the declared label names).
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns (creating on first use) the named labeled gauge
// family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, KindGauge, nil, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns (creating on first use) the named labeled
// histogram family. Nil buckets default to DurationBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, KindHistogram, buckets, labels)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, cumulative
// _bucket{le=...} series plus _sum and _count for histograms. Families
// appear in registration order; children are sorted by label values so
// the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for i, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, labelSep)
		}
		switch c := children[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelSet(f.labels, values, "", ""), formatFloat(c.Value()))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelSet(f.labels, values, "", ""), formatFloat(c.Value()))
		case *GaugeFunc:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelSet(f.labels, values, "", ""), formatFloat(c.Value()))
		case *Histogram:
			var cum uint64
			for bi := 0; bi <= len(c.bounds); bi++ {
				cum += c.counts[bi].Load()
				le := "+Inf"
				if bi < len(c.bounds) {
					le = formatFloat(c.bounds[bi])
				}
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelSet(f.labels, values, "le", le), cum)
			}
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelSet(f.labels, values, "", ""), formatFloat(c.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelSet(f.labels, values, "", ""), c.count.Load())
		}
	}
}

// labelSet renders {k="v",...}, appending the extra pair (used for a
// histogram's le) when extraName is non-empty. Returns "" for a
// label-less series.
func labelSet(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Naming conventions, enforced by Validate (and by the CI lint test):
// every metric is ps_-prefixed snake_case; counters end in _total;
// histograms carry a unit suffix (_seconds for durations, _bytes or
// _size otherwise); gauges never end in _total.
var (
	nameRE  = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	labelRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// histogramUnitSuffixes are the unit suffixes a histogram may end with.
var histogramUnitSuffixes = []string{"_seconds", "_bytes", "_size"}

// nameViolations lists every convention a family name breaks for its
// kind (empty when clean). Shared by the runtime Validate sweep and the
// package-level ValidateName entry point the pslint obsnames analyzer
// calls at analysis time.
func nameViolations(name string, kind Kind) []string {
	var violations []string
	if !nameRE.MatchString(name) {
		violations = append(violations, "not a valid Prometheus metric name")
	}
	if !strings.HasPrefix(name, "ps_") {
		violations = append(violations, "missing ps_ prefix")
	}
	switch kind {
	case KindCounter:
		if !strings.HasSuffix(name, "_total") {
			violations = append(violations, "counter without _total suffix")
		}
	case KindGauge:
		if strings.HasSuffix(name, "_total") {
			violations = append(violations, "gauge with _total suffix")
		}
	case KindHistogram:
		ok := false
		for _, suf := range histogramUnitSuffixes {
			if strings.HasSuffix(name, suf) {
				ok = true
				break
			}
		}
		if !ok {
			violations = append(violations, fmt.Sprintf("histogram without a unit suffix (%s)", strings.Join(histogramUnitSuffixes, ", ")))
		}
	}
	return violations
}

// ValidateName checks one metric family name against the Prometheus
// naming grammar and the repo's conventions for the given kind. The
// pslint obsnames analyzer applies it to string literals at analysis
// time, so a bad name breaks the build instead of panicking the process
// at registration.
func ValidateName(name string, kind Kind) error {
	if v := nameViolations(name, kind); len(v) > 0 {
		return fmt.Errorf("obs: metric %s: %s", name, strings.Join(v, "; "))
	}
	return nil
}

// ValidateLabel checks one label name against the Prometheus label
// grammar (reserved __ prefix included).
func ValidateLabel(label string) error {
	if !labelRE.MatchString(label) || strings.HasPrefix(label, "__") {
		return fmt.Errorf("obs: invalid label name %q", label)
	}
	return nil
}

// Validate checks every registered family against the Prometheus naming
// grammar and the repo's conventions, returning one error listing every
// violation (nil when clean).
func (r *Registry) Validate() error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var violations []string
	for _, f := range fams {
		for _, v := range nameViolations(f.name, f.kind) {
			violations = append(violations, fmt.Sprintf("%s: %s", f.name, v))
		}
		for _, l := range f.labels {
			if err := ValidateLabel(l); err != nil {
				violations = append(violations, fmt.Sprintf("%s: invalid label name %q", f.name, l))
			}
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("obs: %d naming violations:\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}
