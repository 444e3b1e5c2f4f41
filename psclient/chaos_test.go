package psclient

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	ps "repro"
	"repro/serve"
	"repro/wire"
)

// dropAfterFlushes severs every response after n flushes by panicking
// with http.ErrAbortHandler, the one panic value net/http treats as
// "abort this connection quietly". Streaming handlers flush per frame, so
// n is a frame count; handlers that never flush are unaffected.
func dropAfterFlushes(next http.Handler, n int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&droppingWriter{ResponseWriter: w, remaining: n}, r)
	})
}

type droppingWriter struct {
	http.ResponseWriter
	remaining int
}

func (d *droppingWriter) Flush() {
	if d.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	d.remaining--
	d.ResponseWriter.(http.Flusher).Flush()
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (d *droppingWriter) Unwrap() http.ResponseWriter { return d.ResponseWriter }

// TestStreamSurvivesChaosDrops runs a multi-slot continuous query behind
// a middleware that severs every /watch connection after a few frames.
// The Stream must transparently reconnect from its cursor each time and
// the caller must still observe every slot in the accepted window exactly
// once — either as a slot_update or inside a gap range — ending on the
// query's terminal frame. The abort panics pass through serve's metrics
// middleware, whose deferred accounting must still count every severed
// request and return the inflight gauge to rest; run with -race this also
// shakes that path.
func TestStreamSurvivesChaosDrops(t *testing.T) {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithSlotInterval(5*time.Millisecond))
	eng.Start()
	h := serve.New(eng, world, serve.Options{Strategy: ps.StrategyAuto}).Handler()
	ts := httptest.NewServer(dropAfterFlushes(h, 3))
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})

	c, err := Dial(ts.URL, WithRetry(8, time.Millisecond))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	ctx := testCtx(t)
	q, err := c.Submit(ctx, ps.LocationMonitoringSpec{
		ID: "chaos-lm", Loc: ps.Pt(30, 30), Duration: 25, Budget: 400, Samples: 4,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	st := q.Stream()
	defer st.Close()
	var start, end int
	var windowKnown bool
	covered := map[int]int{} // slot -> deliveries (update or gap range)
	var terminal wire.EventFrame
	for ev, err := range st.All(ctx) {
		if err != nil {
			t.Fatalf("stream (stats %+v): %v", st.Stats(), err)
		}
		switch ev.Event {
		case wire.FrameAccepted:
			start, end, windowKnown = ev.Start, ev.End, true
		case wire.FrameSlotUpdate:
			covered[ev.Slot]++
		case wire.FrameGap:
			for s := ev.From; s <= ev.To; s++ {
				covered[s]++
			}
		}
		if ev.Terminal() {
			terminal = ev
		}
	}

	if !windowKnown {
		t.Fatal("never saw the accepted frame")
	}
	if terminal.Event != wire.FrameFinal || terminal.Slot != end {
		t.Fatalf("terminal = %+v, want final at slot %d", terminal, end)
	}
	// Cursor-exact resume: every slot of the window delivered exactly
	// once — a drop must neither lose a slot nor replay one the cursor
	// already vouched for.
	for s := start; s <= end; s++ {
		if covered[s] != 1 {
			t.Errorf("slot %d covered %d times, want exactly once (stats %+v)", s, covered[s], st.Stats())
		}
	}
	for s := range covered {
		if s < start || s > end {
			t.Errorf("slot %d outside the accepted window [%d,%d]", s, start, end)
		}
	}
	stats := st.Stats()
	if stats.Reconnects == 0 {
		t.Fatalf("stats = %+v: severing every stream forced no reconnects", stats)
	}

	// Every severed /watch request is counted, and the inflight gauge
	// settles at 1: the scrape reading it. The last stream's accounting
	// may still be running when its final frame reaches the client.
	if watches := scrape(t, h, "ps_http_requests_total", `route="GET /watch"`); watches < float64(stats.Reconnects+1) {
		t.Errorf("ps_http_requests_total counts %v watch requests, want >= %d", watches, stats.Reconnects+1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for scrape(t, h, "ps_http_requests_inflight", "") != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("ps_http_requests_inflight = %v at rest, want 1 (the scrape)", scrape(t, h, "ps_http_requests_inflight", ""))
		}
		time.Sleep(time.Millisecond)
	}
}

// scrape sums the samples of metric name whose labels contain labelSub
// in the server's Prometheus exposition.
func scrape(t *testing.T, h http.Handler, name, labelSub string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	var sum float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		if metric, _, _ := strings.Cut(series, "{"); metric != name || !strings.Contains(series, labelSub) {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("scrape %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
