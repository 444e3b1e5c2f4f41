package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ps "repro"
	"repro/wire"
)

// newTestStack builds a virtual-clock engine behind the HTTP handler so
// the test controls slot execution deterministically.
func newTestStack(t *testing.T, opts ...ps.Option) (*ps.Engine, *httptest.Server) {
	t.Helper()
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world, opts...))
	eng.Start()
	ts := httptest.NewServer(New(eng, world, Options{Strategy: ps.StrategyAuto}).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})
	return eng, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func TestServePointQueryEndToEnd(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "id": "p1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted || resp["id"] != "p1" {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}

	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	// The consumer goroutine moves the result into the registry; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, resp = getJSON(t, ts.URL+"/query/p1")
		if status != http.StatusOK {
			t.Fatalf("get: status %d resp %v", status, resp)
		}
		if resp["done"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never completed: %v", resp)
		}
		time.Sleep(time.Millisecond)
	}
	results, ok := resp["results"].([]any)
	if !ok || len(results) != 1 {
		t.Fatalf("results = %v, want exactly 1", resp["results"])
	}
	r0 := results[0].(map[string]any)
	if r0["final"] != true {
		t.Errorf("result not final: %v", r0)
	}
	if r0["answered"] == true {
		if v, p := r0["value"].(float64), r0["payment"].(float64); p >= v {
			t.Errorf("payment %v >= value %v", p, v)
		}
	}

	// Engine metrics reflect the slot.
	status, m := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK || m["slots"].(float64) != 1 || m["queries_submitted"].(float64) != 1 {
		t.Fatalf("metrics = %v", m)
	}
	status, h := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}

	// Canceling an already-finished query is not "canceling": 410.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query/p1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusGone {
		t.Errorf("DELETE finished query: status %d, want 410", dresp.StatusCode)
	}
}

// TestServeAcceptsLegacyAndV1Envelopes: the same submission works as a
// legacy (unversioned) body and as a v1 envelope; future versions are
// refused.
func TestServeAcceptsLegacyAndV1Envelopes(t *testing.T) {
	eng, ts := newTestStack(t)

	legacy := map[string]any{
		"type": "point", "id": "legacy", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	}
	if status, resp := postJSON(t, ts.URL+"/query", legacy); status != http.StatusAccepted {
		t.Fatalf("legacy body: status %d resp %v", status, resp)
	}
	v1 := map[string]any{
		"v": 1, "type": "point", "id": "v1", "loc": map[string]float64{"x": 31, "y": 31}, "budget": 20,
	}
	if status, resp := postJSON(t, ts.URL+"/query", v1); status != http.StatusAccepted {
		t.Fatalf("v1 envelope: status %d resp %v", status, resp)
	}
	future := map[string]any{
		"v": 99, "type": "point", "id": "future", "loc": map[string]float64{"x": 31, "y": 31}, "budget": 20,
	}
	if status, _ := postJSON(t, ts.URL+"/query", future); status != http.StatusBadRequest {
		t.Errorf("future envelope version: status %d, want 400", status)
	}

	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	for _, id := range []string{"legacy", "v1"} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, resp := getJSON(t, ts.URL+"/query/"+id)
			if resp["done"] == true {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %s never completed: %v", id, resp)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestServeContinuousCancel(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "locmon", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 120, "duration": 20, "samples": 5,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}
	id := resp["id"].(string)
	if err := eng.RunSlots(2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/query/%s", ts.URL, id), nil)
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", cresp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, resp = getJSON(t, ts.URL+"/query/"+id)
		if resp["done"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never completed: %v", resp)
		}
		time.Sleep(time.Millisecond)
	}
	if resp["error"] != ps.ErrCanceled.Error() {
		t.Fatalf("error = %v, want %q", resp["error"], ps.ErrCanceled.Error())
	}
	if results := resp["results"].([]any); len(results) != 2 {
		t.Fatalf("got %d results before cancel, want 2", len(results))
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := newTestStack(t)

	status, _ := postJSON(t, ts.URL+"/query", map[string]any{"type": "nonsense"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown type: status %d, want 400", status)
	}
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{"type": "point", "budget": 10})
	if status != http.StatusBadRequest {
		t.Errorf("missing loc: status %d, want 400", status)
	}
	status, _ = getJSON(t, ts.URL+"/query/absent")
	if status != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", status)
	}
	// Spec validation runs before the engine sees the submission: a
	// negative budget or a zero-duration window is a synchronous 400.
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "loc": map[string]float64{"x": 30, "y": 30}, "budget": -5,
	})
	if status != http.StatusBadRequest {
		t.Errorf("negative budget: status %d, want 400", status)
	}
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"type": "locmon", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 100,
	})
	if status != http.StatusBadRequest {
		t.Errorf("zero duration: status %d, want 400", status)
	}
	// regmon needs a GP world; the RWM test world must be rejected up
	// front with 400, not accepted into a subscription that cannot work.
	status, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"type": "regmon", "region": map[string]float64{"x0": 20, "y0": 20, "x1": 40, "y1": 40},
		"budget": 100, "duration": 5,
	})
	if status != http.StatusBadRequest {
		t.Errorf("regmon without GP model: status %d, want 400", status)
	}

	// A live query ID cannot be reused: the registry rejects it without
	// touching the engine, so the original record stays reachable.
	body := map[string]any{"type": "locmon", "id": "taken",
		"loc": map[string]float64{"x": 30, "y": 30}, "budget": 120, "duration": 20, "samples": 5}
	if status, _ := postJSON(t, ts.URL+"/query", body); status != http.StatusAccepted {
		t.Fatalf("first submit: status %d", status)
	}
	if status, _ := postJSON(t, ts.URL+"/query", body); status != http.StatusConflict {
		t.Errorf("duplicate live id: status %d, want 409", status)
	}
}

// TestServeListQueries: GET /queries pages through the registry in ID
// order with done/result-count summaries.
func TestServeListQueries(t *testing.T) {
	eng, ts := newTestStack(t)

	for i := 0; i < 5; i++ {
		status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"v": 1, "type": "point", "id": fmt.Sprintf("list-%d", i),
			"loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	status, list := getJSON(t, ts.URL+"/queries")
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	if list["total"].(float64) != 5 || list["count"].(float64) != 5 {
		t.Fatalf("list = %v, want total 5 count 5", list)
	}
	rows := list["queries"].([]any)
	for i, row := range rows {
		r := row.(map[string]any)
		if want := fmt.Sprintf("list-%d", i); r["id"] != want {
			t.Errorf("row %d id = %v, want %s (ID-ordered)", i, r["id"], want)
		}
		if r["type"] != "point" {
			t.Errorf("row %d type = %v", i, r["type"])
		}
	}

	// Pagination: offset 3, limit 10 -> the last two.
	_, page := getJSON(t, ts.URL+"/queries?offset=3&limit=10")
	if page["count"].(float64) != 2 || page["offset"].(float64) != 3 {
		t.Fatalf("page = %v, want count 2 offset 3", page)
	}
	// Limit 2 from the start.
	_, page = getJSON(t, ts.URL+"/queries?limit=2")
	if page["count"].(float64) != 2 || page["total"].(float64) != 5 {
		t.Fatalf("page = %v, want count 2 total 5", page)
	}
	// Offset past the end: empty page, not an error.
	_, page = getJSON(t, ts.URL+"/queries?offset=99")
	if page["count"].(float64) != 0 {
		t.Fatalf("page past end = %v, want count 0", page)
	}
	// Bad parameters are 400s.
	if st, _ := getJSON(t, ts.URL+"/queries?offset=-1"); st != http.StatusBadRequest {
		t.Errorf("negative offset: status %d, want 400", st)
	}
	if st, _ := getJSON(t, ts.URL+"/queries?limit=zero"); st != http.StatusBadRequest {
		t.Errorf("non-numeric limit: status %d, want 400", st)
	}

	// After a slot, the records finish and report their result counts.
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, list = getJSON(t, ts.URL+"/queries")
		done := 0
		for _, row := range list["queries"].([]any) {
			r := row.(map[string]any)
			if r["done"] == true && r["results"].(float64) == 1 {
				done++
			}
		}
		if done == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records never finished: %v", list)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeStrategyAndSelectionMetrics drives a mixed slot through the
// lazy strategy and checks that /metrics exposes the valuation-call and
// lazy-heap counters next to the configured and the last-run strategy,
// and that the removed /strategy endpoint is gone.
func TestServeStrategyAndSelectionMetrics(t *testing.T) {
	eng, ts := newTestStack(t, ps.WithGreedyStrategy(ps.StrategyLazy))

	// An aggregate query routes the slot through the greedy mix pipeline.
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"type": "aggregate", "id": "a1",
		"region": map[string]float64{"x0": 20, "y0": 20, "x1": 45, "y1": 45}, "budget": 300,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit aggregate: status %d", status)
	}
	postJSON(t, ts.URL+"/query", map[string]any{
		"type": "point", "id": "p1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	status, m := getJSON(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if m["valuation_calls"].(float64) <= 0 {
		t.Errorf("valuation_calls = %v, want > 0", m["valuation_calls"])
	}
	if m["strategy_last_slot"] != "lazy" {
		t.Errorf("strategy_last_slot = %v, want lazy", m["strategy_last_slot"])
	}
	for _, key := range []string{"valuation_calls_saved", "lazy_reevaluations", "submodularity_violations", "fallback_rescans"} {
		if _, ok := m[key].(float64); !ok {
			t.Errorf("metrics missing %s: %v", key, m[key])
		}
	}

	// The configured strategy is a construction-time display value.
	if m["strategy"] != "auto" {
		t.Errorf("strategy = %v, want the auto the server was built with", m["strategy"])
	}

	// The runtime switch is gone: /strategy answers 404 to both methods.
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, ts.URL+"/strategy", strings.NewReader(`{"strategy":"lazy"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s /strategy: %v", method, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s /strategy: status %d, want 404", method, resp.StatusCode)
		}
	}
}

// TestServeAutoIDSkipsLiveClientIDs: a server-assigned ID never
// collides with a live client-chosen one.
func TestServeAutoIDSkipsLiveClientIDs(t *testing.T) {
	_, ts := newTestStack(t)

	// A client explicitly claims "q1" with a long-lived query.
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "q1",
		"loc": map[string]float64{"x": 30, "y": 30}, "budget": 120, "duration": 100, "samples": 5,
	})
	if status != http.StatusAccepted {
		t.Fatalf("explicit submit: status %d", status)
	}
	// An ID-less submission must get a fresh ID, not a 409 on "q1".
	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("auto-ID submit: status %d resp %v", status, resp)
	}
	if resp["id"] == "q1" || resp["id"] == "" {
		t.Fatalf("auto-assigned id = %v, want a fresh non-conflicting id", resp["id"])
	}
}

func TestRegistrySweepEvictsFinishedRecords(t *testing.T) {
	world := ps.NewRWMWorld(2, 50, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	defer eng.Stop()
	s := New(eng, world, Options{NoRetention: true}) // done records evict immediately

	s.queries["old-done"] = &queryRecord{id: "old-done", done: true, doneAt: time.Now().Add(-time.Minute)}
	s.finished = append(s.finished, s.queries["old-done"]) // what finish does when a stream ends
	s.queries["live"] = &queryRecord{id: "live"}
	s.mu.Lock()
	s.sweepLocked()
	s.mu.Unlock()
	if _, ok := s.queries["old-done"]; ok {
		t.Error("finished record survived the sweep")
	}
	if _, ok := s.queries["live"]; !ok {
		t.Error("live record was evicted")
	}
}

// TestRegistrySweepVisitsOnlyExpired: the sweep's cost is the expired
// prefix of the finished queue, not the registry. N live records and a
// finished one still inside its retention window make it visit nothing; a
// finished ID reused by a newer record evicts only the queue entry.
func TestRegistrySweepVisitsOnlyExpired(t *testing.T) {
	world := ps.NewRWMWorld(2, 50, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	defer eng.Stop()
	s := New(eng, world, Options{Retain: time.Hour})

	const live = 5000
	for i := 0; i < live; i++ {
		id := fmt.Sprintf("live-%d", i)
		s.queries[id] = &queryRecord{id: id}
	}
	fresh := &queryRecord{id: "fresh"}
	s.queries["fresh"] = fresh
	s.finish(fresh)
	s.mu.Lock()
	visited := s.sweepLocked()
	s.mu.Unlock()
	if visited != 0 || len(s.queries) != live+1 {
		t.Fatalf("sweep over %d live and 0 expired records visited %d and left %d, want 0 and %d",
			live, visited, len(s.queries), live+1)
	}

	// Two expired entries ahead of the fresh one; the first one's ID has
	// been taken over by a live record since.
	reused := &queryRecord{id: "live-0", done: true, doneAt: time.Now().Add(-2 * time.Hour)}
	expired := &queryRecord{id: "expired", done: true, doneAt: time.Now().Add(-2 * time.Hour)}
	s.queries["expired"] = expired
	s.finished = append([]*queryRecord{reused, expired}, s.finished...)
	s.mu.Lock()
	visited = s.sweepLocked()
	s.mu.Unlock()
	if visited != 2 {
		t.Errorf("sweep visited %d queue entries, want the 2 expired ones", visited)
	}
	if _, ok := s.queries["expired"]; ok {
		t.Error("expired record survived the sweep")
	}
	if rec := s.queries["live-0"]; rec == nil || rec == reused {
		t.Error("the sweep evicted the newer record that reused an expired ID")
	}
	if len(s.finished) != 1 || s.finished[0] != fresh {
		t.Errorf("finished queue = %d entries, want just the unexpired one", len(s.finished))
	}
}

// --- push delivery (wire v2) ---

// watchFrames opens GET /watch and decodes frames until the stream ends
// or a terminal/server_closing frame arrives.
func watchFrames(t *testing.T, url string, sse bool) []wire.EventFrame {
	t.Helper()
	return watchFramesEach(t, url, sse, func(wire.EventFrame) {})
}

// watchFramesEach is watchFrames calling each with every frame as it
// arrives.
func watchFramesEach(t *testing.T, url string, sse bool, each func(wire.EventFrame)) []wire.EventFrame {
	t.Helper()
	frames, err := readWatch(url, sse, each)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// readWatch is watchFramesEach returning its failure instead of ending
// the test, for goroutines other than the test's own.
func readWatch(url string, sse bool, each func(wire.EventFrame)) ([]wire.EventFrame, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	wantCT := "application/x-ndjson"
	if sse {
		wantCT = "text/event-stream"
	}
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		return nil, fmt.Errorf("GET %s: Content-Type = %q, want %q", url, ct, wantCT)
	}
	var frames []wire.EventFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if sse {
			if !strings.HasPrefix(line, "data: ") {
				continue // blank separator lines
			}
			line = strings.TrimPrefix(line, "data: ")
		}
		if line == "" {
			continue
		}
		f, err := wire.DecodeEventFrame([]byte(line))
		if err != nil {
			return nil, fmt.Errorf("bad frame %q: %w", line, err)
		}
		frames = append(frames, f)
		each(f)
		if f.Terminal() || f.Event == wire.FrameServerClosing {
			return frames, nil
		}
	}
	return frames, nil
}

// TestServeWatchEndToEnd: a watcher opened before the slot runs receives
// accepted → slot_update → final as pushed NDJSON, with no polling.
func TestServeWatchEndToEnd(t *testing.T) {
	eng, ts := newTestStack(t)

	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "w1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=w1", false) }()
	// Give the watcher a moment to attach, then run the slot.
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	frames := <-framesCh
	if len(frames) != 3 {
		t.Fatalf("frames = %+v, want accepted, slot_update, final", frames)
	}
	if frames[0].Event != wire.FrameAccepted || frames[0].Start != 0 || frames[0].End != 0 || frames[0].Slot != -1 {
		t.Errorf("accepted = %+v", frames[0])
	}
	if frames[1].Event != wire.FrameSlotUpdate || frames[1].Slot != 0 || frames[1].Result == nil || !frames[1].Result.Final {
		t.Errorf("slot_update = %+v", frames[1])
	}
	if frames[1].TS == 0 {
		t.Error("slot_update missing publish timestamp")
	}
	if frames[2].Event != wire.FrameFinal || frames[2].Slot != 0 {
		t.Errorf("final = %+v", frames[2])
	}
	for _, f := range frames {
		if f.ID != "w1" || f.V != wire.Version2 {
			t.Errorf("frame misrouted: %+v", f)
		}
	}
}

// TestServeWatchFinalThenGetIsDone: a client that reads a query's final
// frame off /watch and then asks GET /query/{id} is told done:true. The
// registry's own done mark lands only after the frame is out, so the
// status endpoint derives done from the event log it reads. Eight
// hundred one-shots finish in one slot, each watcher issuing its GET the
// moment its final frame arrives: the hub publishes every final before
// it runs the first completion callback, so in a slot this large the
// GETs that follow the first finals land inside that window.
func TestServeWatchFinalThenGetIsDone(t *testing.T) {
	eng, ts := newTestStack(t)
	const n = 800
	for i := 0; i < n; i++ {
		status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"type": "point", "id": fmt.Sprintf("d%d", i), "loc": map[string]float64{"x": 20 + float64(i%40), "y": 30}, "budget": 20,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	var attached, finished sync.WaitGroup
	attached.Add(n)
	finished.Add(n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%d", i)
		go func() {
			defer finished.Done()
			once := sync.OnceFunc(attached.Done)
			defer once() // a stream that fails before its first frame
			frames, err := readWatch(ts.URL+"/watch?id="+id, false, func(f wire.EventFrame) {
				if f.Event != wire.FrameFinal {
					once()
					return
				}
				resp, err := http.Get(ts.URL + "/query/" + id)
				if err != nil {
					t.Errorf("GET %s: %v", id, err)
					return
				}
				defer resp.Body.Close()
				var st wire.QueryStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Errorf("GET %s: decode: %v", id, err)
					return
				}
				if !st.Done || len(st.Results) != 1 || st.Error != "" {
					t.Errorf("GET %s right after its final frame: done=%v, %d results, error %q; want done, 1 result, no error",
						id, st.Done, len(st.Results), st.Error)
				}
			})
			if err != nil {
				t.Errorf("watch %s: %v", id, err)
				return
			}
			if len(frames) == 0 || frames[len(frames)-1].Event != wire.FrameFinal {
				t.Errorf("watch %s ended without a final frame: %+v", id, frames)
			}
		}()
	}
	attached.Wait()
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	finished.Wait()
}

// TestServeWatchReplayAndCursorResume: a watcher attaching after slots
// ran gets the history replayed; resuming with ?cursor= skips what it
// already has; a finished query's stream replays and terminates without
// a live engine subscription.
func TestServeWatchReplayAndCursorResume(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "wl", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 200, "duration": 5, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}
	if err := eng.RunSlots(3); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	// Wait for the record to have consumed the three slots.
	waitForResults(t, ts.URL, "wl", 3)

	// Late watcher: replayed history + live tail to final.
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=wl", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(2); err != nil {
		t.Fatalf("RunSlots tail: %v", err)
	}
	frames := <-framesCh
	var slots []int
	for _, f := range frames {
		if f.Event == wire.FrameSlotUpdate {
			slots = append(slots, f.Slot)
		}
	}
	if want := []int{0, 1, 2, 3, 4}; !intsEqual(slots, want) {
		t.Fatalf("slots = %v, want %v (frames %+v)", slots, want, frames)
	}
	if frames[0].Event != wire.FrameAccepted || frames[len(frames)-1].Event != wire.FrameFinal {
		t.Fatalf("frames = %+v, want accepted first, final last", frames)
	}

	// Finished query, resume from cursor 2: only slots 3,4 + final, no
	// accepted (its cursor -1 <= 2).
	resumed := watchFrames(t, ts.URL+"/watch?id=wl&cursor=2", false)
	slots = nil
	for _, f := range resumed {
		if f.Event == wire.FrameAccepted {
			t.Errorf("resume replayed accepted: %+v", f)
		}
		if f.Event == wire.FrameSlotUpdate {
			slots = append(slots, f.Slot)
		}
	}
	if want := []int{3, 4}; !intsEqual(slots, want) {
		t.Fatalf("resumed slots = %v, want %v", slots, want)
	}
	if resumed[len(resumed)-1].Event != wire.FrameFinal {
		t.Fatalf("resumed frames = %+v, want final last", resumed)
	}

	// Cursor at the end: terminal frame only.
	tail := watchFrames(t, ts.URL+"/watch?id=wl&cursor=99", false)
	if len(tail) != 1 || tail[0].Event != wire.FrameFinal {
		t.Fatalf("tail frames = %+v, want just the final", tail)
	}

	// Unknown id is a 404 with the stable code.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/watch?id=absent", nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb wire.ErrorBody
	json.NewDecoder(r2.Body).Decode(&eb)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound || eb.Code != wire.CodeUnknownQuery {
		t.Errorf("watch unknown: status %d code %q", r2.StatusCode, eb.Code)
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func waitForResults(t *testing.T, base, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, resp := getJSON(t, base+"/query/"+id)
		if rs, ok := resp["results"].([]any); ok && len(rs) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never reached %d results: %v", n, resp)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeWatchSSE: the same stream in Server-Sent-Events framing.
func TestServeWatchSSE(t *testing.T) {
	eng, ts := newTestStack(t)
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "sse1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=sse1", true) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	frames := <-framesCh
	if len(frames) != 3 || frames[len(frames)-1].Event != wire.FrameFinal {
		t.Fatalf("SSE frames = %+v", frames)
	}
}

// TestServeWatchCanceledQuery: watchers of a canceled query receive the
// canceled terminal with the stable code.
func TestServeWatchCanceledQuery(t *testing.T) {
	eng, ts := newTestStack(t)
	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "wc", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 200, "duration": 50, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=wc", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query/wc", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	frames := <-framesCh
	last := frames[len(frames)-1]
	if last.Event != wire.FrameCanceled || last.Code != wire.CodeCanceled {
		t.Fatalf("terminal = %+v, want canceled with code %q", last, wire.CodeCanceled)
	}
}

// TestServeBatchSubmit: one request, many specs, per-spec verdicts with
// stable codes; valid specs go live even when neighbors are rejected.
func TestServeBatchSubmit(t *testing.T) {
	eng, ts := newTestStack(t)

	status, resp := postJSON(t, ts.URL+"/queries:batch", map[string]any{
		"v": 2,
		"queries": []map[string]any{
			{"v": 1, "type": "point", "id": "b1", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20},
			{"v": 1, "type": "point", "id": "b2", "loc": map[string]float64{"x": 31, "y": 31}, "budget": -5},
			{"v": 1, "type": "locmon", "id": "b3", "loc": map[string]float64{"x": 32, "y": 32}, "budget": 100},
			{"v": 1, "type": "point", "loc": map[string]float64{"x": 33, "y": 33}, "budget": 10},
			{"v": 1, "type": "point", "id": "b1", "loc": map[string]float64{"x": 34, "y": 34}, "budget": 10},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d resp %v", status, resp)
	}
	if resp["accepted"].(float64) != 2 || resp["rejected"].(float64) != 3 {
		t.Fatalf("batch verdicts = %v, want 2 accepted / 3 rejected", resp)
	}
	results := resp["results"].([]any)
	wantCodes := []string{"", wire.CodeNegativeBudget, wire.CodeBadDuration, "", wire.CodeDuplicateQueryID}
	for i, raw := range results {
		r := raw.(map[string]any)
		code, _ := r["code"].(string)
		if code != wantCodes[i] {
			t.Errorf("result %d code = %q, want %q (%v)", i, code, wantCodes[i], r)
		}
		wantStatus := "accepted"
		if wantCodes[i] != "" {
			wantStatus = "rejected"
		}
		if r["status"] != wantStatus {
			t.Errorf("result %d status = %v, want %s", i, r["status"], wantStatus)
		}
	}
	// The auto-ID entry got a server-assigned ID.
	if id, _ := results[3].(map[string]any)["id"].(string); id == "" || id == "b1" {
		t.Errorf("auto-ID batch entry got id %q", id)
	}

	// The accepted ones run to completion.
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	waitForResults(t, ts.URL, "b1", 1)

	// Malformed batches are rejected whole.
	if status, _ := postJSON(t, ts.URL+"/queries:batch", map[string]any{"v": 2, "queries": []any{}}); status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/queries:batch", map[string]any{"v": 3, "queries": []map[string]any{{"type": "point"}}}); status != http.StatusBadRequest {
		t.Errorf("future batch version: status %d, want 400", status)
	}
}

// TestServeGracefulShutdown: Shutdown ends watch streams with a
// server_closing frame and refuses new submissions with 503.
func TestServeGracefulShutdown(t *testing.T) {
	world := ps.NewRWMWorld(8, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	srv := New(eng, world, Options{Strategy: ps.StrategyAuto})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})

	status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "gs", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 200, "duration": 50, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	framesCh := make(chan []wire.EventFrame, 1)
	go func() { framesCh <- watchFrames(t, ts.URL+"/watch?id=gs", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	srv.Shutdown()
	srv.Shutdown() // idempotent

	frames := <-framesCh
	if len(frames) == 0 || frames[len(frames)-1].Event != wire.FrameServerClosing {
		t.Fatalf("frames = %+v, want a terminal server_closing", frames)
	}

	// New submissions are refused with the stable code.
	buf, _ := json.Marshal(map[string]any{
		"v": 1, "type": "point", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
	})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var eb wire.ErrorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != wire.CodeServerClosing {
		t.Fatalf("submit while closing: status %d code %q, want 503 %q", resp.StatusCode, eb.Code, wire.CodeServerClosing)
	}
	if status, _ := postJSON(t, ts.URL+"/queries:batch", map[string]any{"v": 2, "queries": []map[string]any{{"type": "point"}}}); status != http.StatusServiceUnavailable {
		t.Errorf("batch while closing: status %d, want 503", status)
	}
	// Healthz reports not-OK while draining.
	_, h := getJSON(t, ts.URL+"/healthz")
	if h["ok"] != false {
		t.Errorf("healthz while closing = %v, want ok=false", h)
	}
}

// TestServeListPaginationEdgeCases: offset past the end, limit 0
// (count-only), exact boundaries, and negative values.
func TestServeListPaginationEdgeCases(t *testing.T) {
	_, ts := newTestStack(t)
	for i := 0; i < 4; i++ {
		status, _ := postJSON(t, ts.URL+"/query", map[string]any{
			"v": 1, "type": "point", "id": fmt.Sprintf("pg-%d", i),
			"loc": map[string]float64{"x": 30, "y": 30}, "budget": 20,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
	}
	cases := []struct {
		query               string
		wantStatus          int
		wantCount, wantOffs int
	}{
		{"", http.StatusOK, 4, 0},
		{"?offset=4", http.StatusOK, 0, 4},         // offset == len: empty, not an error
		{"?offset=99", http.StatusOK, 0, 99},       // offset past the end
		{"?limit=0", http.StatusOK, 0, 0},          // count-only page
		{"?offset=3&limit=5", http.StatusOK, 1, 3}, // last partial page
		{"?offset=0&limit=4", http.StatusOK, 4, 0}, // exact fit
		{"?offset=-1", http.StatusBadRequest, 0, 0},
		{"?limit=-5", http.StatusBadRequest, 0, 0},
		{"?offset=x", http.StatusBadRequest, 0, 0},
		{"?limit=x", http.StatusBadRequest, 0, 0},
	}
	for _, tc := range cases {
		status, page := getJSON(t, ts.URL+"/queries"+tc.query)
		if status != tc.wantStatus {
			t.Errorf("GET /queries%s: status %d, want %d", tc.query, status, tc.wantStatus)
			continue
		}
		if status != http.StatusOK {
			continue
		}
		if page["count"].(float64) != float64(tc.wantCount) || page["total"].(float64) != 4 {
			t.Errorf("GET /queries%s: page %v, want count %d total 4", tc.query, page, tc.wantCount)
		}
		if page["offset"].(float64) != float64(tc.wantOffs) {
			t.Errorf("GET /queries%s: offset %v, want %d", tc.query, page["offset"], tc.wantOffs)
		}
	}
}

// watchInvariants checks what every watch stream promises whatever its
// attach point: exactly one terminal frame, last; strictly increasing
// cursors over the accepted and slot_update frames; a gap only in front
// of the frame it reports the cursor of, covering older slots only.
func watchInvariants(t *testing.T, name string, frames []wire.EventFrame) {
	t.Helper()
	if len(frames) == 0 || !frames[len(frames)-1].Terminal() {
		t.Fatalf("%s: stream %+v does not end with a terminal frame", name, frames)
	}
	cursor := -1 << 40
	for i, f := range frames {
		switch {
		case f.Terminal():
			if i != len(frames)-1 {
				t.Fatalf("%s: terminal frame at %d of %d: %+v", name, i, len(frames), frames)
			}
			if f.Slot < cursor {
				t.Fatalf("%s: terminal cursor %d behind %d", name, f.Slot, cursor)
			}
		case f.Event == wire.FrameGap:
			if f.From <= cursor || f.From > f.To || f.To >= f.Slot || f.Dropped <= 0 || frames[i+1].Slot != f.Slot {
				t.Fatalf("%s: malformed gap %+v after cursor %d, before %+v", name, f, cursor, frames[i+1])
			}
			cursor = f.To
		default:
			if f.Slot <= cursor {
				t.Fatalf("%s: cursor did not advance at frame %d: %+v", name, i, frames)
			}
			cursor = f.Slot
		}
	}
}

func slotsOf(frames []wire.EventFrame) []int {
	var out []int
	for _, f := range frames {
		if f.Event == wire.FrameSlotUpdate {
			out = append(out, f.Slot)
		}
	}
	return out
}

// TestServeWatchDeliveryInvariants: one log serves replay and live
// follow, so a watcher gets the same stream wherever it attaches — before
// the first slot, between a slot_update and the final, after the query
// finished — and one that resumes from behind the log's oldest retained
// event gets exactly one gap whose range and count are what the log
// evicted.
func TestServeWatchDeliveryInvariants(t *testing.T) {
	// A 4-event log bound keeps the eviction arithmetic small: the 8-slot
	// query publishes accepted + 8 updates + final = 10 events.
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithEventBuffer(4))
	eng.Start()
	ts := httptest.NewServer(New(eng, world, Options{}).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})
	const duration = 8
	status, resp := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "locmon", "id": "inv", "loc": map[string]float64{"x": 30, "y": 30},
		"budget": 300, "duration": duration, "samples": 3,
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d resp %v", status, resp)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	// watch opens a stream; each lets the test wait for a frame to have
	// reached the client, all carries the whole stream once it ended.
	type stream struct {
		each chan wire.EventFrame
		all  chan []wire.EventFrame
	}
	watch := func(url string) stream {
		st := stream{each: make(chan wire.EventFrame, 32), all: make(chan []wire.EventFrame, 1)}
		go func() { st.all <- watchFramesEach(t, url, false, func(f wire.EventFrame) { st.each <- f }) }()
		return st
	}
	// step runs one slot and waits until every open stream has its
	// update: a reader that keeps up never sees a gap, however small the
	// log.
	step := func(slot int, open ...stream) {
		t.Helper()
		if err := eng.RunSlots(1); err != nil {
			t.Fatal(err)
		}
		for _, st := range open {
			for timeout := time.After(10 * time.Second); ; {
				select {
				case f := <-st.each:
					if f.Event == wire.FrameSlotUpdate && f.Slot == slot {
						goto next
					}
				case <-timeout:
					t.Fatalf("slot %d never reached a watcher", slot)
				}
			}
		next:
		}
	}

	// (a) before the first slot.
	before := watch(ts.URL + "/watch?id=inv")
	if f := <-before.each; f.Event != wire.FrameAccepted {
		t.Fatalf("stream opened with %+v, want accepted", f)
	}
	for slot := 0; slot < 5; slot++ {
		step(slot, before)
	}
	// (b) mid-stream: slots 0..4 ran, the final has not. The log retains
	// updates 1..4 by now; this watcher resumes from cursor 2.
	middle := watch(ts.URL + "/watch?id=inv&cursor=2")
	for slot := 5; slot < duration; slot++ {
		step(slot, before, middle)
	}
	a, b := <-before.all, <-middle.all
	watchInvariants(t, "before the slot", a)
	watchInvariants(t, "mid-stream", b)
	if a[0].Event != wire.FrameAccepted || !intsEqual(slotsOf(a), []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Errorf("early watcher frames = %+v, want accepted + slots 0..7", a)
	}
	if !intsEqual(slotsOf(b), []int{3, 4, 5, 6, 7}) || b[0].Event != wire.FrameSlotUpdate {
		t.Errorf("mid-stream watcher frames = %+v, want slots 3..7 and no accepted, no gap", b)
	}

	// (c) after the query finished, from the beginning: the log retains
	// updates 5, 6, 7 and the final; accepted and updates 0..4 are gone.
	c := <-watch(ts.URL + "/watch?id=inv").all
	watchInvariants(t, "after the finish", c)
	if len(c) != 5 || c[0].Event != wire.FrameGap || c[0].From != -1 || c[0].To != 4 || c[0].Dropped != 6 || !intsEqual(slotsOf(c), []int{5, 6, 7}) {
		t.Errorf("finished-query replay = %+v, want gap{-1..4, 6 dropped} + slots 5..7 + final", c)
	}
	// (d) resuming from cursor 1: updates 2, 3, 4 are what this client lost.
	d := <-watch(ts.URL + "/watch?id=inv&cursor=1").all
	watchInvariants(t, "resume behind the log", d)
	if len(d) != 5 || d[0].Event != wire.FrameGap || d[0].From != 2 || d[0].To != 4 || d[0].Dropped != 3 || !intsEqual(slotsOf(d), []int{5, 6, 7}) {
		t.Errorf("resume behind the log = %+v, want gap{2..4, 3 dropped} + slots 5..7 + final", d)
	}
	// A resume cursor at the last update gets the final alone.
	if tail := <-watch(ts.URL + "/watch?id=inv&cursor=7").all; len(tail) != 1 || tail[0].Event != wire.FrameFinal {
		t.Errorf("resume at the end = %+v, want just the final", tail)
	}

	// Polling and listing read the same log.
	_, got := getJSON(t, ts.URL+"/query/inv")
	if rs, _ := got["results"].([]any); len(rs) != 3 || got["results_truncated"] != float64(5) || got["done"] != true {
		t.Errorf("GET /query/inv = %v, want done with 3 results and 5 truncated", got)
	}
	_, list := getJSON(t, ts.URL+"/queries")
	if qs, _ := list["queries"].([]any); len(qs) != 1 || qs[0].(map[string]any)["results"] != float64(3) {
		t.Errorf("GET /queries = %v, want one query with 3 results", list)
	}
}

// TestServeNoGoroutinePerQuery: an accepted query with no watcher costs
// the server no goroutine — nothing follows its stream until somebody
// asks. Requests go straight to the handler so no transport goroutine
// blurs the count.
func TestServeNoGoroutinePerQuery(t *testing.T) {
	world := ps.NewRWMWorld(5, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	defer eng.Stop()
	handler := New(eng, world, Options{}).Handler()
	batch := func(round, n int) {
		t.Helper()
		queries := make([]map[string]any, n)
		for i := range queries {
			queries[i] = map[string]any{
				"type": "locmon", "id": fmt.Sprintf("g%d-%d", round, i),
				"loc": map[string]float64{"x": 30, "y": 30}, "budget": 100, "duration": 50, "samples": 3,
			}
		}
		body, err := json.Marshal(map[string]any{"v": 2, "queries": queries})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/queries:batch", bytes.NewReader(body)))
		var resp wire.BatchResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || resp.Accepted != n {
			t.Fatalf("batch %d: %v, response %s", round, err, rr.Body)
		}
		if err := eng.RunSlots(2); err != nil {
			t.Fatal(err)
		}
	}
	batch(0, 10) // warm-up: whatever the first request starts for good
	before := runtime.NumGoroutine()
	for round := 1; round <= 4; round++ {
		batch(round, 100)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after 400 live queries with no watcher, %d before", after, before)
	}
}

// TestServeWatchOfRolledBackSubmission: a watcher that grabs a record
// whose engine submission then fails must receive a terminal frame, not
// hang on a stream no consumer will ever feed.
func TestServeWatchOfRolledBackSubmission(t *testing.T) {
	world := ps.NewRWMWorld(9, 100, ps.SensorConfig{})
	// Queue size 1 and no started loop: the first submission occupies the
	// queue, the second fails with ErrQueueFull after its registry
	// reservation.
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithQueueSize(1))
	srv := New(eng, world, Options{Strategy: ps.StrategyAuto})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Start()
		eng.Stop()
	})

	if status, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "fill", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 5,
	}); status != http.StatusAccepted {
		t.Fatalf("filler submit: status %d", status)
	}
	status, body := postJSON(t, ts.URL+"/query", map[string]any{
		"v": 1, "type": "point", "id": "rb", "loc": map[string]float64{"x": 30, "y": 30}, "budget": 5,
	})
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d body %v", status, body)
	}
	if body["code"] != wire.CodeQueueFull {
		t.Errorf("overflow code = %v, want %q", body["code"], wire.CodeQueueFull)
	}
	// The rolled-back record is gone from the registry: 404, not a hang.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/watch?id=rb", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("watch rolled-back id: status %d, want 404", resp.StatusCode)
	}
}

// TestServeWatchOverloadLadder walks every rung of the overload ladder
// over HTTP. The engine stays unstarted while the batches arrive, so its
// 4-deep shed-oldest queue fills on the first batch however fast the
// machine is: client a's batch of six sheds its two oldest specs, a's
// next batch is over its rate limit, and client b's batch meets the
// queue past high-water. Each shed query's watch ends in one canceled
// frame with the shed code; once the engine runs, every other accepted
// query ends in one final; and the sheds the watchers saw are the
// engine's count and ps_shed_total.
func TestServeWatchOverloadLadder(t *testing.T) {
	world := ps.NewRWMWorld(23, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithQueueSize(4), ps.WithShedOldest())
	ts := httptest.NewServer(New(eng, world, Options{
		Strategy: ps.StrategyAuto,
		// One burst of six per client, refilled at one token a minute: a
		// client's second batch is over the limit however slow the run.
		RateLimit: 1.0 / 60, RateBurst: 6,
		HighWater: 0.75,
	}).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})

	// batch posts one point query per ID as client and returns the status
	// and the decoded body: a BatchResponse on 200, an ErrorBody on 429.
	batch := func(client string, ids ...string) (int, map[string]any) {
		t.Helper()
		queries := make([]map[string]any, len(ids))
		for i, id := range ids {
			queries[i] = map[string]any{
				"v": 1, "type": "point", "id": id,
				"loc": map[string]float64{"x": 25 + float64(3*i), "y": 30}, "budget": 15,
			}
		}
		body, err := json.Marshal(map[string]any{"v": 2, "queries": queries})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/queries:batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp.StatusCode, out
	}

	// Rung 1: the batch is admitted whole, and its last two specs shed the
	// first two from the full queue.
	loadA := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	if status, resp := batch("a", loadA...); status != http.StatusOK || resp["accepted"] != float64(len(loadA)) {
		t.Fatalf("a's batch: status %d body %v, want all %d accepted", status, resp, len(loadA))
	}
	// Rung 2: a has spent its burst.
	if status, resp := batch("a", "a6"); status != http.StatusTooManyRequests || resp["code"] != wire.CodeRateLimited {
		t.Fatalf("a's second batch: status %d body %v, want 429 %s", status, resp, wire.CodeRateLimited)
	}
	// Rung 3: b is inside its rate, but the queue is past high-water.
	if status, resp := batch("b", "b0", "b1"); status != http.StatusTooManyRequests || resp["code"] != wire.CodeQueueFull {
		t.Fatalf("b's batch: status %d body %v, want 429 %s", status, resp, wire.CodeQueueFull)
	}

	// Watch every accepted query, the queued ones before the engine runs.
	// A query's accepted frame is published when the loop takes its
	// submission off the queue; the channel holds one per watch.
	frames := make(map[string][]wire.EventFrame)
	accepted := make(chan struct{}, len(loadA)+2)
	var mu sync.Mutex
	var wg sync.WaitGroup
	watch := func(ids ...string) {
		for _, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fs, err := readWatch(ts.URL+"/watch?id="+id, false, func(f wire.EventFrame) {
					if f.Event == wire.FrameAccepted {
						accepted <- struct{}{}
					}
				})
				if err != nil {
					t.Errorf("watch %s: %v", id, err)
					return
				}
				mu.Lock()
				frames[id] = fs
				mu.Unlock()
			}()
		}
	}
	watch(loadA...)

	// RunSlots goes through the same queue, where it would shed a queued
	// submission: let the started loop drain the queue first — it is
	// empty once every survivor's accepted frame is out. b's retry then
	// finds room, and its two specs and the RunSlots command fit.
	survivors := len(loadA) - int(eng.Metrics().QueriesShed)
	eng.Start()
	for range survivors {
		select {
		case <-accepted:
		case <-time.After(10 * time.Second):
			t.Fatal("the started loop never took the queued submissions")
		}
	}
	if depth, _ := eng.QueueStats(); depth != 0 {
		t.Fatalf("queue depth %d after every survivor was accepted, want 0", depth)
	}
	if status, resp := batch("b", "b0", "b1"); status != http.StatusOK || resp["accepted"] != float64(2) {
		t.Fatalf("b's retry: status %d body %v, want both accepted", status, resp)
	}
	watch("b0", "b1")
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	wg.Wait()

	var sheds, finals int64
	for id, fs := range frames {
		watchInvariants(t, id, fs)
		terminals := 0
		for _, f := range fs {
			if f.Terminal() {
				terminals++
			}
		}
		last := fs[len(fs)-1]
		switch {
		case terminals != 1:
			t.Errorf("%s: %d terminal frames in %+v, want exactly one", id, terminals, fs)
		case last.Event == wire.FrameCanceled && last.Code == wire.CodeShed:
			sheds++
		case last.Event == wire.FrameFinal:
			finals++
		default:
			t.Errorf("%s: stream ended with %+v, want final or a shed cancel", id, last)
		}
	}
	if sheds == 0 {
		t.Fatal("no submission was shed: the queue never overflowed")
	}
	if sheds+finals != int64(len(loadA)+2) {
		t.Errorf("%d sheds + %d finals, want one terminal for each of the %d accepted queries", sheds, finals, len(loadA)+2)
	}
	if m := eng.Metrics(); m.QueriesShed != sheds {
		t.Errorf("watchers saw %d sheds, engine QueriesShed = %d", sheds, m.QueriesShed)
	}

	status, body, _ := getBody(t, ts.URL+"/metrics?format=prometheus", "")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	_, samples := parseProm(t, body)
	sample := func(name, labels string) float64 {
		for _, s := range samples {
			if s.name == name && s.labels == labels {
				return s.value
			}
		}
		t.Errorf("no %s{%s} sample", name, labels)
		return 0
	}
	if got := sample("ps_shed_total", ""); got != float64(sheds) {
		t.Errorf("ps_shed_total = %v, watchers saw %d sheds", got, sheds)
	}
	if got := sample("ps_admission_rejects_total", `reason="rate_limit"`); got <= 0 {
		t.Errorf(`ps_admission_rejects_total{reason="rate_limit"} = %v, want > 0`, got)
	}
	if got := sample("ps_admission_rejects_total", `reason="queue_pressure"`); got <= 0 {
		t.Errorf(`ps_admission_rejects_total{reason="queue_pressure"} = %v, want > 0`, got)
	}
}
