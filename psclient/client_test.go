package psclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	ps "repro"
	"repro/serve"
	"repro/wire"
)

// newLiveStack runs the real serve handler over a real-clock engine, so
// the e2e tests exercise exactly what a remote psclient user hits.
func newLiveStack(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(newLiveServer(t, serve.Options{}))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c
}

// newLiveServer is newLiveStack's server with the given options; it
// returns the base URL.
func newLiveServer(t *testing.T, opts serve.Options) string {
	t.Helper()
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithSlotInterval(2*time.Millisecond))
	eng.Start()
	ts := httptest.NewServer(serve.New(eng, world, opts).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})
	return ts.URL
}

// finalStatus follows the query's stream to its terminal frame and
// returns the status GET /query/{id} reports afterwards.
func finalStatus(ctx context.Context, t *testing.T, q *Query) *wire.QueryStatus {
	t.Helper()
	st := q.Stream()
	defer st.Close()
	for _, err := range st.All(ctx) {
		if err != nil {
			t.Fatalf("stream %s: %v", q.ID, err)
		}
	}
	status, err := q.Status(ctx)
	if err != nil {
		t.Fatalf("status %s: %v", q.ID, err)
	}
	return status
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestClientSubmitPollCancelEndToEnd drives four one-shot kinds to their
// final result and cancels two continuous kinds mid-flight, all through
// the real HTTP handler.
func TestClientSubmitPollCancelEndToEnd(t *testing.T) {
	c := newLiveStack(t)
	ctx := testCtx(t)

	oneShots := []ps.Spec{
		ps.PointSpec{ID: "e2e-pt", Loc: ps.Pt(30, 30), Budget: 20},
		ps.MultiPointSpec{ID: "e2e-mp", Loc: ps.Pt(32, 28), Budget: 80, K: 3},
		ps.AggregateSpec{ID: "e2e-agg", Region: ps.NewRect(20, 20, 45, 45), Budget: 300},
		ps.TrajectorySpec{
			ID:     "e2e-tr",
			Path:   ps.Trajectory{Waypoints: []ps.Point{ps.Pt(20, 20), ps.Pt(40, 40)}},
			Budget: 150,
		},
	}
	for _, spec := range oneShots {
		q, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Kind(), err)
		}
		if q.ID != spec.QueryID() {
			t.Errorf("%s: server echoed id %q, want %q", spec.Kind(), q.ID, spec.QueryID())
		}
		st := finalStatus(ctx, t, q)
		if !st.Done || st.Error != "" {
			t.Fatalf("%s: status = %+v, want clean done", spec.Kind(), st)
		}
		if len(st.Results) != 1 || !st.Results[0].Final {
			t.Fatalf("%s: results = %+v, want one final result", spec.Kind(), st.Results)
		}
		if st.Type != spec.Kind().String() {
			t.Errorf("%s: status type = %q", spec.Kind(), st.Type)
		}
	}

	// Continuous kinds: submit with long windows, watch results
	// accumulate, then cancel and confirm the server reports it.
	continuous := []ps.Spec{
		ps.LocationMonitoringSpec{ID: "e2e-lm", Loc: ps.Pt(30, 30), Duration: 10_000, Budget: 500, Samples: 10},
		ps.EventDetectionSpec{ID: "e2e-ev", Loc: ps.Pt(30, 30), Duration: 10_000, Threshold: -1e9, Confidence: 0.1, BudgetPerSlot: 30},
	}
	var handles []*Query
	for _, spec := range continuous {
		q, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Kind(), err)
		}
		handles = append(handles, q)
	}
	// Wait until each has produced at least one result.
	for i, q := range handles {
		for {
			st, err := q.Status(ctx)
			if err != nil {
				t.Fatalf("status %s: %v", continuous[i].Kind(), err)
			}
			if len(st.Results) > 0 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := q.Cancel(ctx); err != nil {
			t.Fatalf("cancel %s: %v", continuous[i].Kind(), err)
		}
		st := finalStatus(ctx, t, q)
		if st.Error != ps.ErrCanceled.Error() {
			t.Errorf("%s: error = %q, want %q", continuous[i].Kind(), st.Error, ps.ErrCanceled)
		}
	}

	// The registry lists everything we touched; metrics saw the traffic.
	list, err := c.Queries(ctx, 0, 100)
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	if list.Total != len(oneShots)+len(continuous) {
		t.Errorf("registry total = %d, want %d", list.Total, len(oneShots)+len(continuous))
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.QueriesSubmitted != int64(len(oneShots)+len(continuous)) {
		t.Errorf("QueriesSubmitted = %d, want %d", m.QueriesSubmitted, len(oneShots)+len(continuous))
	}
	if m.QueriesCanceled != int64(len(continuous)) {
		t.Errorf("QueriesCanceled = %d, want %d", m.QueriesCanceled, len(continuous))
	}
	h, err := c.Healthz(ctx)
	if err != nil || !h.OK {
		t.Fatalf("Healthz = %+v, %v", h, err)
	}
}

// TestClientServerAssignedID: an empty spec ID is assigned by the server
// and carried back on the handle.
func TestClientServerAssignedID(t *testing.T) {
	c := newLiveStack(t)
	ctx := testCtx(t)
	q, err := c.Submit(ctx, ps.PointSpec{Loc: ps.Pt(30, 30), Budget: 15})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if q.ID == "" {
		t.Fatal("server did not assign an ID")
	}
	if st := finalStatus(ctx, t, q); !st.Done {
		t.Fatalf("status after the terminal frame = %+v, want done", st)
	}
}

// TestClientValidationErrors: the server's synchronous 400s surface as
// *APIError with the validation message.
func TestClientValidationErrors(t *testing.T) {
	c := newLiveStack(t)
	ctx := testCtx(t)

	_, err := c.Submit(ctx, ps.PointSpec{ID: "bad", Loc: ps.Pt(30, 30), Budget: -1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative budget: err = %v, want 400 APIError", err)
	}
	_, err = c.Submit(ctx, ps.RegionMonitoringSpec{ID: "rm", Region: ps.NewRect(20, 20, 40, 40), Duration: 5, Budget: 100})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("regmon without GP: err = %v, want 400 APIError", err)
	}
	if _, err := c.Get(ctx, "absent"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("absent query: err = %v, want 404 APIError", err)
	}
}

// TestClientRetriesOn429: submissions retry through the server's
// backpressure responses and succeed once the queue frees up.
func TestClientRetriesOn429(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"engine: ingest queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"p1","status":"accepted"}`))
	}))
	defer ts.Close()

	c, err := Dial(ts.URL, WithRetry(4, time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	q, err := c.Submit(context.Background(), ps.PointSpec{ID: "p1", Loc: ps.Pt(1, 1), Budget: 5})
	if err != nil {
		t.Fatalf("Submit through 429s: %v", err)
	}
	if q.ID != "p1" || attempts != 3 {
		t.Errorf("q.ID = %q after %d attempts, want p1 after 3", q.ID, attempts)
	}

	// With retries disabled the 429 surfaces immediately.
	attempts = 0
	c2, _ := Dial(ts.URL, WithRetry(0, time.Millisecond))
	_, err = c2.Submit(context.Background(), ps.PointSpec{ID: "p1", Loc: ps.Pt(1, 1), Budget: 5})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests || attempts != 1 {
		t.Fatalf("no-retry submit: err = %v after %d attempts, want one 429", err, attempts)
	}
}

// TestDialRejectsBadURLs keeps configuration mistakes synchronous.
func TestDialRejectsBadURLs(t *testing.T) {
	if _, err := Dial("localhost:8080"); err == nil {
		t.Error("Dial without scheme succeeded")
	}
	if _, err := Dial("ftp://host"); err == nil {
		t.Error("Dial with ftp scheme succeeded")
	}
	for _, raw := range []string{"http://h:8080/", "http://h:8080//"} {
		c, err := Dial(raw)
		if err != nil {
			t.Errorf("Dial(%q): %v", raw, err)
			continue
		}
		if got := c.base.String(); got != "http://h:8080" {
			t.Errorf("Dial(%q) base = %q, want trailing slashes stripped", raw, got)
		}
	}
}

// --- push delivery (wire v2) ---

// TestClientStreamEndToEnd: a one-shot query streamed to its final
// frame via the All iterator, and a continuous query streamed through a
// mid-flight cancel, all over the real HTTP handler with a ticking
// clock and zero polling.
func TestClientStreamEndToEnd(t *testing.T) {
	c := newLiveStack(t)
	ctx := testCtx(t)

	q, err := c.Submit(ctx, ps.PointSpec{ID: "st-pt", Loc: ps.Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := q.Stream()
	defer st.Close()
	var events []wire.EventFrame
	for ev, err := range st.All(ctx) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		events = append(events, ev)
	}
	if len(events) < 3 {
		t.Fatalf("events = %+v, want at least accepted, slot_update, final", events)
	}
	if events[0].Event != wire.FrameAccepted {
		t.Errorf("first frame = %+v, want accepted", events[0])
	}
	last := events[len(events)-1]
	if last.Event != wire.FrameFinal {
		t.Errorf("last frame = %+v, want final", last)
	}
	sawFinalResult := false
	for _, ev := range events {
		if ev.Event == wire.FrameSlotUpdate && ev.Result != nil && ev.Result.Final {
			sawFinalResult = true
		}
	}
	if !sawFinalResult {
		t.Error("no slot_update carried the final result")
	}
	// After the terminal, the stream is over.
	if _, err := st.Next(ctx); !errors.Is(err, ErrStreamEnded) {
		t.Errorf("Next after terminal = %v, want ErrStreamEnded", err)
	}

	// Continuous + cancel: the watcher sees the canceled terminal with
	// the stable code.
	lm, err := c.Submit(ctx, ps.LocationMonitoringSpec{ID: "st-lm", Loc: ps.Pt(30, 30), Duration: 10_000, Budget: 500, Samples: 5})
	if err != nil {
		t.Fatalf("submit lm: %v", err)
	}
	lst := lm.Stream()
	defer lst.Close()
	updates := 0
	for {
		ev, err := lst.Next(ctx)
		if err != nil {
			t.Fatalf("lm stream: %v", err)
		}
		if ev.Event == wire.FrameSlotUpdate {
			updates++
			if updates == 3 {
				if err := lm.Cancel(ctx); err != nil {
					t.Fatalf("cancel: %v", err)
				}
			}
		}
		if ev.Terminal() {
			if ev.Event != wire.FrameCanceled || ev.Code != wire.CodeCanceled {
				t.Fatalf("terminal = %+v, want canceled/%s", ev, wire.CodeCanceled)
			}
			break
		}
	}
	if updates < 3 {
		t.Fatalf("saw %d updates before terminal, want >= 3", updates)
	}
}

// TestClientStreamReconnectResume: a stream cut mid-flight re-dials
// with its last cursor and the caller sees every slot exactly once.
func TestClientStreamReconnectResume(t *testing.T) {
	var requests []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests = append(requests, r.URL.RawQuery)
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/x-ndjson")
		cursor := r.URL.Query().Get("cursor")
		switch len(requests) {
		case 1:
			if cursor != "" {
				t.Errorf("first dial carried cursor %q", cursor)
			}
			// accepted + slots 0,1, then drop the connection mid-stream.
			fmt.Fprintln(w, `{"v":2,"event":"accepted","id":"rq","slot":-1,"start":0,"end":3}`)
			fmt.Fprintln(w, `{"v":2,"event":"slot_update","id":"rq","slot":0,"result":{"slot":0,"answered":true,"value":2,"payment":1,"final":false}}`)
			fmt.Fprintln(w, `{"v":2,"event":"slot_update","id":"rq","slot":1,"result":{"slot":1,"answered":true,"value":2,"payment":1,"final":false}}`)
			fl.Flush()
		default:
			if cursor != "1" {
				t.Errorf("re-dial carried cursor %q, want 1", cursor)
			}
			fmt.Fprintln(w, `{"v":2,"event":"slot_update","id":"rq","slot":2,"result":{"slot":2,"answered":true,"value":2,"payment":1,"final":false}}`)
			fmt.Fprintln(w, `{"v":2,"event":"slot_update","id":"rq","slot":3,"result":{"slot":3,"answered":true,"value":2,"payment":1,"final":true}}`)
			fmt.Fprintln(w, `{"v":2,"event":"final","id":"rq","slot":3}`)
			fl.Flush()
		}
	}))
	defer ts.Close()

	c, err := Dial(ts.URL, WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream("rq")
	defer st.Close()
	var slots []int
	var sawFinal bool
	for ev, err := range st.All(context.Background()) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		switch ev.Event {
		case wire.FrameSlotUpdate:
			slots = append(slots, ev.Slot)
		case wire.FrameFinal:
			sawFinal = true
		}
	}
	want := []int{0, 1, 2, 3}
	if len(slots) != len(want) {
		t.Fatalf("slots = %v, want %v (requests %v)", slots, want, requests)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slots = %v, want %v", slots, want)
		}
	}
	if !sawFinal || len(requests) != 2 {
		t.Fatalf("final %v after %d requests, want true after 2", sawFinal, len(requests))
	}
	if cur, ok := st.Cursor(); !ok || cur != 3 {
		t.Errorf("Cursor() = %d, %v; want 3, true", cur, ok)
	}
}

// TestClientStreamServerGone: when the server stays down, the reconnect
// budget is finite and Next surfaces the failure instead of spinning.
func TestClientStreamServerGone(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"v":2,"event":"accepted","id":"g","slot":-1,"start":0,"end":9}`)
	}))
	c, err := Dial(ts.URL, WithRetry(2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream("g")
	defer st.Close()
	ctx := testCtx(t)
	if ev, err := st.Next(ctx); err != nil || ev.Event != wire.FrameAccepted {
		t.Fatalf("first frame = %+v, %v", ev, err)
	}
	ts.Close() // server vanishes for good
	if _, err := st.Next(ctx); err == nil {
		t.Fatal("Next kept succeeding against a dead server")
	}
	// The failure is sticky.
	if _, err := st.Next(ctx); err == nil {
		t.Fatal("error did not stick")
	}
}

// TestClientSubmitBatch: one request, per-spec verdicts, rejected
// entries reconstructable as sentinel errors.
func TestClientSubmitBatch(t *testing.T) {
	c := newLiveStack(t)
	ctx := testCtx(t)

	verdicts, err := c.SubmitBatch(ctx, []ps.Spec{
		ps.PointSpec{ID: "bt-1", Loc: ps.Pt(30, 30), Budget: 20},
		ps.PointSpec{ID: "bt-2", Loc: ps.Pt(31, 31), Budget: -1},
		ps.MultiPointSpec{ID: "bt-3", Loc: ps.Pt(32, 32), Budget: 50, K: -2},
		ps.PointSpec{Loc: ps.Pt(33, 33), Budget: 10},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(verdicts) != 4 {
		t.Fatalf("got %d verdicts, want 4", len(verdicts))
	}
	if verdicts[0].Status != "accepted" || verdicts[0].ID != "bt-1" {
		t.Errorf("verdict 0 = %+v", verdicts[0])
	}
	if !errors.Is(wire.SentinelError(verdicts[1].Code), ps.ErrNegativeBudget) {
		t.Errorf("verdict 1 code %q does not name ErrNegativeBudget", verdicts[1].Code)
	}
	if !errors.Is(wire.SentinelError(verdicts[2].Code), ps.ErrNegativeRedundancy) {
		t.Errorf("verdict 2 code %q does not name ErrNegativeRedundancy", verdicts[2].Code)
	}
	if verdicts[3].Status != "accepted" || verdicts[3].ID == "" {
		t.Errorf("auto-ID verdict = %+v", verdicts[3])
	}

	// The accepted specs stream to completion.
	st := c.Stream(verdicts[3].ID)
	defer st.Close()
	for ev, err := range st.All(ctx) {
		if err != nil {
			t.Fatalf("stream %s: %v", verdicts[3].ID, err)
		}
		if ev.Terminal() && ev.Event != wire.FrameFinal {
			t.Fatalf("terminal = %+v, want final", ev)
		}
	}

	if _, err := c.SubmitBatch(ctx, nil); err == nil {
		t.Error("empty SubmitBatch succeeded")
	}
}

// TestClientSentinelReconstruction is the errors.Is contract across the
// network: for every coded rejection the server can produce, the
// client-side error satisfies errors.Is against the same ps sentinel a
// local caller would see.
func TestClientSentinelReconstruction(t *testing.T) {
	// Table part: a fake server returning each code; the APIError must
	// unwrap to exactly that sentinel. This covers sentinels that are
	// hard to trigger through a live stack (e.g. empty_query_id, which
	// the server normally papers over with an auto-ID).
	codes := map[string]error{
		wire.CodeEmptyQueryID:       ps.ErrEmptyQueryID,
		wire.CodeNegativeBudget:     ps.ErrNegativeBudget,
		wire.CodeBadDuration:        ps.ErrBadDuration,
		wire.CodeBadTrajectory:      ps.ErrBadTrajectory,
		wire.CodeNegativeRedundancy: ps.ErrNegativeRedundancy,
		wire.CodeNegativeSamples:    ps.ErrNegativeSamples,
		wire.CodeNoGPModel:          ps.ErrNoGPModel,
		wire.CodeQueueFull:          ps.ErrQueueFull,
		wire.CodeEngineStopped:      ps.ErrEngineStopped,
		wire.CodeDuplicateQueryID:   ps.ErrDuplicateQueryID,
		wire.CodeCanceled:           ps.ErrCanceled,
		wire.CodeUnknownQuery:       ps.ErrUnknownQuery,
	}
	var code string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(wire.ErrorBody{Error: "synthetic " + code, Code: code})
	}))
	defer ts.Close()
	c, err := Dial(ts.URL, WithRetry(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for code_, sentinel := range codes {
		code = code_
		_, err := c.Get(context.Background(), "x")
		if !errors.Is(err, sentinel) {
			t.Errorf("code %q: errors.Is(%v, %v) = false", code, err, sentinel)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != code {
			t.Errorf("code %q: lost on the APIError: %+v", code, apiErr)
		}
		// Reconstruction is exact, not a catch-all: no foreign sentinel
		// matches.
		for otherCode, other := range codes {
			if otherCode != code && errors.Is(err, other) {
				t.Errorf("code %q also matches %v", code, other)
			}
		}
	}

	// Live part: real validation rejections produced by the serve stack.
	live := newLiveStack(t)
	ctx := testCtx(t)
	for _, tc := range []struct {
		spec ps.Spec
		want error
	}{
		{ps.PointSpec{ID: "neg", Loc: ps.Pt(30, 30), Budget: -1}, ps.ErrNegativeBudget},
		{ps.LocationMonitoringSpec{ID: "dur", Loc: ps.Pt(30, 30), Duration: 0, Budget: 10}, ps.ErrBadDuration},
		{ps.TrajectorySpec{ID: "tr", Budget: 10}, ps.ErrBadTrajectory},
		{ps.MultiPointSpec{ID: "mp", Loc: ps.Pt(30, 30), Budget: 10, K: -1}, ps.ErrNegativeRedundancy},
		{ps.LocationMonitoringSpec{ID: "smp", Loc: ps.Pt(30, 30), Duration: 5, Budget: 10, Samples: -1}, ps.ErrNegativeSamples},
		{ps.RegionMonitoringSpec{ID: "rm", Region: ps.NewRect(20, 20, 40, 40), Duration: 5, Budget: 10}, ps.ErrNoGPModel},
	} {
		_, err := live.Submit(ctx, tc.spec)
		if !errors.Is(err, tc.want) {
			t.Errorf("live %T: errors.Is(%v, %v) = false", tc.spec, err, tc.want)
		}
	}
	// Duplicate live ID.
	if _, err := live.Submit(ctx, ps.LocationMonitoringSpec{ID: "dup", Loc: ps.Pt(30, 30), Duration: 10_000, Budget: 100, Samples: 2}); err != nil {
		t.Fatalf("first dup submit: %v", err)
	}
	_, err = live.Submit(ctx, ps.LocationMonitoringSpec{ID: "dup", Loc: ps.Pt(30, 30), Duration: 10_000, Budget: 100, Samples: 2})
	if !errors.Is(err, ps.ErrDuplicateQueryID) {
		t.Errorf("duplicate live id: errors.Is(%v, ErrDuplicateQueryID) = false", err)
	}
}
