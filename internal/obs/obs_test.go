package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAtomicAdds(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ps_test_seconds", "t", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); got != 18 {
		t.Fatalf("sum = %v, want 18", got)
	}
	// le-inclusive bucketing: 1 lands in le=1, 2 in le=2, 10 in +Inf.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ps_q_seconds", "t", []float64{1, 2, 4})
	for range 100 {
		h.Observe(0.5)
	}
	q := h.Quantile(0.5)
	if q <= 0 || q > 1 {
		t.Fatalf("p50 = %v, want in (0, 1]", q)
	}
	var empty Histogram
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ps_x_total", "x")
	b := r.Counter("ps_x_total", "x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Gauge("ps_x_total", "x")
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ps_req_total", "reqs", "route", "code")
	v.With("GET /a", "200").Add(2)
	v.With("GET /a", "200").Inc()
	v.With("GET /b", "500").Inc()
	if got := v.With("GET /a", "200").Value(); got != 3 {
		t.Fatalf("child = %v, want 3", got)
	}
	out := expose(t, r)
	if !strings.Contains(out, `ps_req_total{route="GET /a",code="200"} 3`) {
		t.Fatalf("missing labeled sample:\n%s", out)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ps_events_total", "events").Add(7)
	r.Gauge("ps_active", "active").Set(2)
	h := r.Histogram("ps_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	out := expose(t, r)

	for _, want := range []string{
		"# HELP ps_events_total events\n# TYPE ps_events_total counter\nps_events_total 7\n",
		"# TYPE ps_active gauge\nps_active 2\n",
		"# TYPE ps_lat_seconds histogram\n",
		`ps_lat_seconds_bucket{le="0.1"} 1`,
		`ps_lat_seconds_bucket{le="1"} 2`,
		`ps_lat_seconds_bucket{le="+Inf"} 3`,
		"ps_lat_seconds_sum 5.55",
		"ps_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("ps_esc_total", "e", "v").With("a\"b\\c\nd").Inc()
	out := expose(t, r)
	if !strings.Contains(out, `v="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestValidateNaming(t *testing.T) {
	good := NewRegistry()
	good.Counter("ps_events_total", "e")
	good.Gauge("ps_active_queries", "a")
	good.Histogram("ps_slot_duration_seconds", "d", nil)
	good.Histogram("ps_run_size", "s", SizeBuckets)
	if err := good.Validate(); err != nil {
		t.Fatalf("clean registry flagged: %v", err)
	}

	bad := NewRegistry()
	bad.Counter("events_total", "no prefix")
	bad.Counter("ps_events", "counter without _total")
	bad.Gauge("ps_depth_total", "gauge with _total")
	bad.Histogram("ps_lat", "no unit", nil)
	bad.CounterVec("ps_ok_total", "bad label", "__reserved")
	err := bad.Validate()
	if err == nil {
		t.Fatal("violations not reported")
	}
	for _, want := range []string{
		"events_total: missing ps_ prefix",
		"ps_events: counter without _total",
		"ps_depth_total: gauge with _total",
		"ps_lat: histogram without a unit suffix",
		`ps_ok_total: invalid label name "__reserved"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("missing violation %q in:\n%v", want, err)
		}
	}
}

func TestTrace(t *testing.T) {
	tr := StartTrace()
	time.Sleep(time.Millisecond)
	tr.Mark("a")
	tr.Mark("b")
	tr.Add("external", 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Stage != "a" || spans[0].Duration <= 0 {
		t.Fatalf("span a = %+v", spans[0])
	}
	if spans[2].Stage != "external" || spans[2].Duration != 5*time.Millisecond {
		t.Fatalf("span external = %+v", spans[2])
	}
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}
