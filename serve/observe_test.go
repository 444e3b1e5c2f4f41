package serve

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	ps "repro"
)

// promSample is one parsed exposition sample: a metric name, its label
// set minus "le" (the bucket key is kept separately), and the value.
type promSample struct {
	name   string
	labels string // canonical non-le label block, "" when unlabeled
	le     string // bucket boundary, "" for non-bucket samples
	value  float64
}

// parseProm is a strict-enough parser for the Prometheus text format
// 0.0.4: it returns the TYPE of every family and all samples, failing
// the test on any malformed line. It is the round-trip check that what
// WritePrometheus emits is what a scraper would ingest.
func parseProm(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		metric := line[:sp]
		s := promSample{name: metric, value: val}
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			if !strings.HasSuffix(metric, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			s.name = metric[:i]
			var rest []string
			for _, kv := range strings.Split(metric[i+1:len(metric)-1], ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("malformed label %q in %q", kv, line)
				}
				if k == "le" {
					s.le = v[1 : len(v)-1]
					continue
				}
				rest = append(rest, kv)
			}
			sort.Strings(rest)
			s.labels = strings.Join(rest, ",")
		}
		samples = append(samples, s)
	}
	return types, samples
}

// checkHistograms asserts every exposed histogram is internally
// consistent: cumulative buckets are monotone, the +Inf bucket equals
// _count, and _sum/_count exist for each child.
func checkHistograms(t *testing.T, types map[string]string, samples []promSample) {
	t.Helper()
	type child struct {
		buckets []promSample
		count   float64
		hasSum  bool
		hasCnt  bool
	}
	children := make(map[string]*child) // family \x00 labels
	get := func(fam, labels string) *child {
		k := fam + "\x00" + labels
		if children[k] == nil {
			children[k] = &child{}
		}
		return children[k]
	}
	for _, s := range samples {
		for fam, typ := range types {
			if typ != "histogram" {
				continue
			}
			switch s.name {
			case fam + "_bucket":
				c := get(fam, s.labels)
				c.buckets = append(c.buckets, s)
			case fam + "_sum":
				get(fam, s.labels).hasSum = true
			case fam + "_count":
				c := get(fam, s.labels)
				c.hasCnt, c.count = true, s.value
			}
		}
	}
	if len(children) == 0 {
		t.Fatal("no histogram children found in exposition")
	}
	for key, c := range children {
		if !c.hasSum || !c.hasCnt {
			t.Errorf("histogram child %q missing _sum or _count", key)
		}
		prev, prevLe := -1.0, -1.0
		sawInf := false
		for _, b := range c.buckets {
			le := b.le
			var bound float64
			if le == "+Inf" {
				sawInf, bound = true, 1e308
			} else {
				var err error
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("bad le %q in %q", le, key)
				}
			}
			if bound <= prevLe {
				t.Errorf("histogram %q buckets out of order at le=%s", key, le)
			}
			if b.value < prev {
				t.Errorf("histogram %q not cumulative at le=%s: %v < %v", key, le, b.value, prev)
			}
			prev, prevLe = b.value, bound
		}
		if !sawInf {
			t.Errorf("histogram %q has no +Inf bucket", key)
		} else if prev != c.count {
			t.Errorf("histogram %q +Inf bucket %v != count %v", key, prev, c.count)
		}
	}
}

// observedStack runs slots and HTTP traffic through a server so the
// registry has live samples in every layer's families.
func observedStack(t *testing.T, opts Options) (*ps.Engine, *Server, *httptest.Server) {
	t.Helper()
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	api := New(eng, world, opts)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "id": "obs1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	if err := eng.RunSlots(2); err != nil {
		t.Fatal(err)
	}
	return eng, api, ts
}

func getBody(t *testing.T, url string, accept string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// GET /metrics with Accept: text/plain serves a parseable Prometheus
// exposition carrying the slot-stage latency histograms and the hub
// subscriber-lag gauge; every histogram round-trips consistently.
func TestMetricsPrometheusRoundTrip(t *testing.T) {
	_, _, ts := observedStack(t, Options{})

	// One scrape to populate the HTTP families, then the scrape under test.
	getBody(t, ts.URL+"/metrics", "text/plain")
	status, body, hdr := getBody(t, ts.URL+"/metrics", "text/plain")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}

	types, samples := parseProm(t, body)
	checkHistograms(t, types, samples)

	wantTypes := map[string]string{
		"ps_slot_stage_duration_seconds":   "histogram",
		"ps_slot_duration_seconds":         "histogram",
		"ps_hub_subscriber_lag_events":     "gauge",
		"ps_http_request_duration_seconds": "histogram",
		"ps_http_requests_total":           "counter",
		"ps_build_info":                    "gauge",
		"ps_slots_total":                   "counter",
	}
	for name, typ := range wantTypes {
		if got := types[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}

	find := func(name, labelSub string) *promSample {
		for i, s := range samples {
			if s.name == name && strings.Contains(s.labels, labelSub) {
				return &samples[i]
			}
		}
		return nil
	}
	if s := find("ps_slot_stage_duration_seconds_count", `stage="selection"`); s == nil || s.value != 2 {
		t.Errorf("selection stage count sample = %+v, want 2", s)
	}
	if s := find("ps_hub_subscriber_lag_events", ""); s == nil {
		t.Error("no hub subscriber-lag gauge sample")
	}
	if s := find("ps_http_requests_total", `route="GET /metrics"`); s == nil || s.value < 1 {
		t.Errorf("GET /metrics request counter = %+v, want >= 1", s)
	}
	if s := find("ps_build_info", "goversion"); s == nil || s.value != 1 {
		t.Errorf("ps_build_info = %+v, want 1", s)
	}
}

// The default /metrics representation stays the JSON document, and the
// explicit format override works both ways.
func TestMetricsContentNegotiation(t *testing.T) {
	_, _, ts := observedStack(t, Options{})

	status, m := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK || m["slots"].(float64) != 2 {
		t.Fatalf("JSON metrics: status %d m %v", status, m)
	}
	if _, ok := m["slot_stages"].([]any); !ok {
		t.Errorf("JSON metrics missing slot_stages: %v", m["slot_stages"])
	}

	status, body, _ := getBody(t, ts.URL+"/metrics?format=prometheus", "")
	if status != http.StatusOK || !strings.Contains(body, "# TYPE ps_slots_total counter") {
		t.Errorf("format=prometheus: status %d body %.120q", status, body)
	}
	status, body, _ = getBody(t, ts.URL+"/metrics?format=json", "text/plain")
	if status != http.StatusOK || !strings.HasPrefix(body, "{") {
		t.Errorf("format=json override: status %d body %.60q", status, body)
	}
}

// Every metric in a fully wired server (engine + hub + HTTP layers)
// passes the naming lint: prefix, suffix and charset conventions.
func TestMetricNamingLint(t *testing.T) {
	eng, _, ts := observedStack(t, Options{})
	getBody(t, ts.URL+"/metrics", "text/plain") // populate HTTP families
	if err := eng.Observability().Validate(); err != nil {
		t.Fatalf("metric naming violations:\n%v", err)
	}
}

// /healthz reports build identity and uptime alongside liveness.
func TestHealthzBuildInfo(t *testing.T) {
	_, _, ts := observedStack(t, Options{})
	status, h := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || h["ok"] != true {
		t.Fatalf("healthz: status %d body %v", status, h)
	}
	if gv, _ := h["go_version"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %v", h["go_version"])
	}
	up, ok := h["uptime_seconds"].(float64)
	if !ok || up < 0 {
		t.Errorf("uptime_seconds = %v", h["uptime_seconds"])
	}
}

// The pprof and expvar surfaces are mounted only when Options.Debug is
// set.
func TestDebugEndpointsGated(t *testing.T) {
	_, _, off := observedStack(t, Options{})
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		if status, _, _ := getBody(t, off.URL+path, ""); status != http.StatusNotFound {
			t.Errorf("debug off: GET %s status %d, want 404", path, status)
		}
	}

	_, _, on := observedStack(t, Options{Debug: true})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/vars"} {
		status, body, _ := getBody(t, on.URL+path, "")
		if status != http.StatusOK {
			t.Errorf("debug on: GET %s status %d", path, status)
		}
		if path == "/debug/vars" && !strings.Contains(body, "memstats") {
			t.Errorf("expvar body missing memstats: %.80q", body)
		}
	}
}

// TestDefaultLoggerIsSilent: with no Options.Logger the query-lifecycle
// records cost nothing — the default handler enables no level, and the
// call sites ask before they build a record — while a caller-supplied
// logger still gets both records.
func TestDefaultLoggerIsSilent(t *testing.T) {
	world := ps.NewRWMWorld(1, 50, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	defer eng.Stop()
	h, err := eng.Submit(ps.PointSpec{ID: "quiet", Loc: ps.Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlots(1); err != nil {
		t.Fatal(err)
	}
	rec := &queryRecord{id: "quiet", typ: "point", handle: h}

	s := New(eng, world, Options{})
	if allocs := testing.AllocsPerRun(100, func() {
		s.logAccepted(rec)
		s.logFinished(rec)
	}); allocs != 0 {
		t.Errorf("lifecycle log calls on the default logger allocate %.0f times, want 0", allocs)
	}

	var buf bytes.Buffer
	s = New(eng, world, Options{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	s.logAccepted(rec)
	s.logFinished(rec)
	for _, want := range []string{`msg="query accepted" query_id=quiet type=point`, `msg="query finished" query_id=quiet`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("caller-supplied logger got %q, want it to contain %q", buf.String(), want)
		}
	}
}
