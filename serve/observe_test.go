package serve

import (
	"bytes"
	"fmt"
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

// renderings reads one server's metrics three ways — EngineMetrics, the
// GET /metrics JSON body and its Prometheus text — and fails unless the
// facts the three share read the same in each. The Prometheus samples
// are keyed by name plus label block, histogram buckets left out.
func renderings(t *testing.T, eng *ps.Engine, url string) (ps.EngineMetrics, map[string]any, map[string]float64) {
	t.Helper()
	m := eng.Metrics()
	status, js := getJSON(t, url+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	_, body, _ := getBody(t, url+"/metrics", "text/plain")
	_, samples := parseProm(t, body)
	prom := make(map[string]float64)
	for _, s := range samples {
		if s.le != "" {
			continue
		}
		key := s.name
		if s.labels != "" {
			key += "{" + s.labels + "}"
		}
		prom[key] = s.value
	}
	for _, f := range []struct {
		json, prom string
		engine     float64
	}{
		{"slots", "ps_slots_total", float64(m.Slots)},
		{"active_queries", "ps_queries_active", float64(m.ActiveQueries)},
		{"queue_depth", "ps_ingest_queue_depth", float64(m.QueueDepth)},
		{"queue_cap", "ps_ingest_queue_capacity", float64(m.QueueCap)},
		{"total_welfare", "ps_welfare", m.TotalWelfare},
		{"answered", "ps_results_answered_total", float64(m.Answered)},
		{"valuation_calls", "ps_valuation_calls_total", float64(m.ValuationCalls)},
		{"conservation_violations", "ps_conservation_violations_total", float64(m.ConservationViolations)},
	} {
		j, jok := js[f.json].(float64)
		p, pok := prom[f.prom]
		if !jok || !pok || j != f.engine || p != f.engine {
			t.Errorf("EngineMetrics reads %v; JSON %s reads %v (present %v); Prometheus %s reads %v (present %v)",
				f.engine, f.json, js[f.json], jok, f.prom, p, pok)
		}
	}
	return m, js, prom
}

// TestMetricsRenderingsAgreeAfterDrain: Stop drains one slot and closes
// the three location-monitoring queries still live, and every rendering
// then reads no active query.
func TestMetricsRenderingsAgreeAfterDrain(t *testing.T) {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithDrainSlots(1))
	eng.Start()
	ts := httptest.NewServer(New(eng, world, Options{}).Handler())
	defer ts.Close()
	defer eng.Stop()
	for i := 0; i < 3; i++ {
		if _, err := eng.Submit(ps.LocationMonitoringSpec{
			ID: fmt.Sprintf("lm%d", i), Loc: ps.Pt(25+10*float64(i), 30), Duration: 50, Budget: 100, Samples: 5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunSlots(2); err != nil {
		t.Fatal(err)
	}
	if m, _, _ := renderings(t, eng, ts.URL); m.ActiveQueries != 3 {
		t.Fatalf("%d active queries before Stop, want 3", m.ActiveQueries)
	}
	eng.Stop()
	if m, _, _ := renderings(t, eng, ts.URL); m.ActiveQueries != 0 || m.Slots != 3 {
		t.Fatalf("after Stop: %d active queries over %d slots, want 0 over 3 (one drain slot)", m.ActiveQueries, m.Slots)
	}
}

// TestMetricsRenderingsAgreeOnQueuedSubmits: five submissions wait in
// the ingest queue of an engine that has run no slot, and every
// rendering reads the queue as it is: depth 5 of capacity 1024.
func TestMetricsRenderingsAgreeOnQueuedSubmits(t *testing.T) {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	ts := httptest.NewServer(New(eng, world, Options{}).Handler())
	defer ts.Close()
	defer eng.Stop()
	for i := 0; i < 5; i++ {
		if _, err := eng.Submit(ps.PointSpec{ID: fmt.Sprintf("q%d", i), Loc: ps.Pt(30, 30), Budget: 15}); err != nil {
			t.Fatal(err)
		}
	}
	if m, _, _ := renderings(t, eng, ts.URL); m.QueueDepth != 5 || m.QueueCap != 1024 {
		t.Fatalf("queue depth %d, capacity %d, want 5 and 1024", m.QueueDepth, m.QueueCap)
	}
}

// TestMetricsConservationReadsZero: a mixed run — points, aggregates, a
// trajectory and location monitoring — on an unsharded and on a
// 4-shard engine pays every committed sensor its cost, and the three
// renderings say so: Eq. 11's violation count reads 0 engine-wide and,
// sharded, for every lane and the spanning pass.
func TestMetricsConservationReadsZero(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			world := ps.NewRWMWorld(2, 300, ps.SensorConfig{})
			eng := ps.NewEngine(ps.NewAggregator(world))
			if shards > 0 {
				eng = ps.NewShardedEngine(ps.NewShardedAggregator(world, shards))
			}
			eng.Start()
			ts := httptest.NewServer(New(eng, world, Options{}).Handler())
			defer ts.Close()
			defer eng.Stop()
			submit := func(spec ps.Spec) {
				t.Helper()
				if _, err := eng.Submit(spec); err != nil {
					t.Fatal(err)
				}
			}
			submit(ps.LocationMonitoringSpec{ID: "lm", Loc: ps.Pt(30, 50), Duration: 4, Budget: 120, Samples: 2})
			for slot := 0; slot < 4; slot++ {
				for i := 0; i < 12; i++ {
					submit(ps.PointSpec{
						ID:     fmt.Sprintf("p-%d-%d", slot, i),
						Loc:    ps.Pt(17+float64((i*31+slot*7)%46), 17+float64((i*17+slot*11)%46)),
						Budget: 12 + float64(i%5),
					})
				}
				submit(ps.AggregateSpec{ID: fmt.Sprintf("a-%d", slot), Region: ps.NewRect(20, 20, 35, 35), Budget: 250})
				submit(ps.TrajectorySpec{
					ID:     fmt.Sprintf("t-%d", slot),
					Path:   ps.Trajectory{Waypoints: []ps.Point{ps.Pt(25, 40), ps.Pt(55, 40)}},
					Budget: 120,
				})
				if err := eng.RunSlots(1); err != nil {
					t.Fatal(err)
				}
			}
			m, js, prom := renderings(t, eng, ts.URL)
			if m.ConservationViolations != 0 || m.ValuationCalls == 0 || m.Answered == 0 {
				t.Fatalf("%d conservation violations over %d valuation calls and %d answers, want 0 over a working run",
					m.ConservationViolations, m.ValuationCalls, m.Answered)
			}
			if shards == 0 {
				if _, ok := js["shards"]; ok {
					t.Errorf("unsharded JSON carries shards: %v", js["shards"])
				}
				return
			}
			jsShards, _ := js["shards"].([]any)
			if len(m.Shards) != shards+1 || len(jsShards) != shards+1 {
				t.Fatalf("%d shard entries in EngineMetrics and %d in JSON, want %d", len(m.Shards), len(jsShards), shards+1)
			}
			for i, sh := range m.Shards {
				label := strconv.Itoa(sh.Shard)
				if sh.Spanning {
					label = "spanning"
				}
				sel, _ := jsShards[i].(map[string]any)["selection"].(map[string]any)
				for _, f := range []struct {
					json, prom string
					engine     int64
				}{
					{"conservation_violations", "ps_shard_conservation_violations_total", sh.Selection.ConservationViolations},
					{"valuation_calls", "ps_shard_valuation_calls_total", sh.Selection.ValuationCalls},
				} {
					p, ok := prom[f.prom+`{shard="`+label+`"}`]
					if j, _ := sel[f.json].(float64); !ok || j != float64(f.engine) || p != float64(f.engine) {
						t.Errorf("shard %s %s: EngineMetrics %d, JSON %v, Prometheus %v (present %v)",
							label, f.json, f.engine, sel[f.json], p, ok)
					}
				}
				if sh.Selection.ConservationViolations != 0 {
					t.Errorf("shard %s: %d conservation violations", label, sh.Selection.ConservationViolations)
				}
			}
		})
	}
}
