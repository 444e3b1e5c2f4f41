package psclient

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	ps "repro"
	"repro/serve"
	"repro/wire"
)

// TestStreamFanoutNoPolls: push delivery at fan-out. A batch of one-shot
// queries goes up and as many concurrent Streams follow them over real
// HTTP while the test steps the slot. A request-counting handler shows
// that no client fell back to polling GET /query/{id}, and every stream
// ends in exactly one final frame.
func TestStreamFanoutNoPolls(t *testing.T) {
	const queries = 256
	world := ps.NewRWMWorld(17, 300, ps.SensorConfig{})
	// The default 1024-deep queue holds the batch and the RunSlots command.
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	api := serve.New(eng, world, serve.Options{}).Handler()
	var polls, watches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/query/"):
			polls.Add(1)
		case r.URL.Path == "/watch":
			watches.Add(1)
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	ctx := testCtx(t)

	specs := make([]ps.Spec, queries)
	for i := range specs {
		specs[i] = ps.PointSpec{
			ID:     fmt.Sprintf("fan-%d", i),
			Loc:    ps.Pt(20+float64(i%40), 20+float64(i/40)*5),
			Budget: 15,
		}
	}
	verdicts, err := c.SubmitBatch(ctx, specs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}

	// Every stream reads its accepted frame before the slot runs, so the
	// slot_update and final after it are pushed live, not replayed.
	type outcome struct {
		frames, finals int
		last           wire.EventFrame
		err            error
	}
	outcomes := make([]outcome, len(verdicts))
	accepted := make(chan struct{}, len(verdicts))
	var wg sync.WaitGroup
	for i, v := range verdicts {
		if v.Status != "accepted" {
			t.Fatalf("verdict %+v, want accepted", v)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := c.Stream(v.ID)
			defer st.Close()
			o := &outcomes[i]
			for ev, err := range st.All(ctx) {
				if err != nil {
					o.err = err
					return
				}
				if ev.Event == wire.FrameAccepted {
					accepted <- struct{}{}
				}
				if ev.Event == wire.FrameFinal {
					o.finals++
				}
				o.frames++
				o.last = ev
			}
		}()
	}
	for range verdicts {
		select {
		case <-accepted:
		case <-ctx.Done():
			t.Fatal("streams never all attached")
		}
	}
	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	wg.Wait()

	for i, o := range outcomes {
		id := verdicts[i].ID
		switch {
		case o.err != nil:
			t.Errorf("%s: stream: %v", id, o.err)
		case o.finals != 1 || o.last.Event != wire.FrameFinal:
			t.Errorf("%s: %d final frames, last %+v; want exactly one, last", id, o.finals, o.last)
		case o.frames != 3:
			t.Errorf("%s: %d frames, want accepted, slot_update, final", id, o.frames)
		}
	}
	if n := polls.Load(); n != 0 {
		t.Errorf("%d GET /query/ requests, want 0: push delivery needs no polling", n)
	}
	if n := watches.Load(); n < queries {
		t.Errorf("%d /watch requests for %d streams", n, queries)
	}
}
