package ps

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestEngine(t *testing.T, opts ...EngineOption) *Engine {
	t.Helper()
	world := NewRWMWorld(1, 200, SensorConfig{})
	e := NewEngine(NewAggregator(world), opts...)
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

// drainEvents consumes a handle's stream until it closes, returning every
// event, and asserts the protocol invariants: a stream that carries any
// event opens with Accepted, cursors never decrease, and nothing follows
// a terminal frame.
func drainEvents(t *testing.T, h *QueryHandle) []QueryEvent {
	t.Helper()
	var out []QueryEvent
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-h.Events():
			if !ok {
				checkEventProtocol(t, h.ID(), out)
				return out
			}
			out = append(out, ev)
		case <-timeout:
			t.Fatalf("query %s: subscription did not close", h.ID())
		}
	}
}

func checkEventProtocol(t *testing.T, id string, evs []QueryEvent) {
	t.Helper()
	cursor := int(-1 << 30)
	for i, ev := range evs {
		if ev.QueryID != id {
			t.Fatalf("%s: event %d routed for %q", id, i, ev.QueryID)
		}
		// A stream opens with Accepted — or with a Gap when the consumer
		// stalled long enough for the Accepted frame itself to be evicted.
		if i == 0 && ev.Type != EventAccepted && ev.Type != EventGap {
			t.Fatalf("%s: stream opened with %v, want accepted (or gap)", id, ev.Type)
		}
		if i > 0 && ev.Type == EventAccepted {
			t.Fatalf("%s: duplicate accepted at %d", id, i)
		}
		if ev.Slot < cursor {
			t.Fatalf("%s: cursor went backwards at %d: %d < %d", id, i, ev.Slot, cursor)
		}
		cursor = ev.Slot
		if terminal := ev.Type == EventFinal || ev.Type == EventCanceled; terminal && i != len(evs)-1 {
			t.Fatalf("%s: %v frame at %d is not last of %d", id, ev.Type, i, len(evs))
		}
	}
}

// collect drains a handle's stream until it closes and returns the
// SlotResults its SlotUpdate events carried.
func collect(t *testing.T, h *QueryHandle) []SlotResult {
	t.Helper()
	var out []SlotResult
	for _, ev := range drainEvents(t, h) {
		if ev.Type == EventSlotUpdate {
			out = append(out, ev.Result)
		}
	}
	return out
}

// terminalType returns the last event's type, or -1 for an empty stream.
func terminalType(evs []QueryEvent) EventType {
	if len(evs) == 0 {
		return EventType(-1)
	}
	return evs[len(evs)-1].Type
}

func TestEngineConcurrentSubmits(t *testing.T) {
	// The default 1024-deep queue holds all 200 submissions and the six
	// RunSlots commands at once, so no submit is ever rejected.
	e := newTestEngine(t)

	const goroutines, perG = 8, 25
	handles := make([][]*QueryHandle, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h, err := e.Submit(PointSpec{ID: fmt.Sprintf("q%d-%d", g, i), Loc: Pt(20+float64(g), 20+float64(i)), Budget: 20})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				handles[g] = append(handles[g], h)
			}
		}(g)
	}
	// Tick slots while submissions are in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := e.RunSlots(1); err != nil {
				t.Errorf("RunSlots: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	// One more slot consumes any queries submitted after the last tick.
	if err := e.RunSlots(1); err != nil {
		t.Fatalf("final RunSlots: %v", err)
	}

	total := 0
	for g := range handles {
		for _, h := range handles[g] {
			evs := drainEvents(t, h)
			var rs []SlotResult
			for _, ev := range evs {
				if ev.Type == EventSlotUpdate {
					rs = append(rs, ev.Result)
				}
			}
			if len(rs) != 1 {
				t.Fatalf("query %s: %d results, want 1", h.ID(), len(rs))
			}
			if terminalType(evs) != EventFinal || !rs[0].Final {
				t.Errorf("query %s: one-shot stream did not end in a Final frame", h.ID())
			}
			if h.Err() != nil {
				t.Errorf("query %s: err = %v", h.ID(), h.Err())
			}
			total++
		}
	}
	if total != goroutines*perG {
		t.Fatalf("collected %d subscriptions, want %d", total, goroutines*perG)
	}
	m := e.Metrics()
	if m.QueriesSubmitted != goroutines*perG {
		t.Errorf("QueriesSubmitted = %d, want %d", m.QueriesSubmitted, goroutines*perG)
	}
	if m.Answered == 0 {
		t.Error("no queries answered in a dense scenario")
	}
	if m.ActiveQueries != 0 {
		t.Errorf("ActiveQueries = %d after all expired", m.ActiveQueries)
	}
}

func TestEngineCancelMidFlight(t *testing.T) {
	e := newTestEngine(t)

	h, err := e.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: 10, Budget: 120, Samples: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := e.RunSlots(2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if err := h.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	evs := drainEvents(t, h)
	var results int
	for _, ev := range evs {
		if ev.Type == EventSlotUpdate {
			results++
		}
	}
	if results != 2 {
		t.Fatalf("got %d results before cancel, want 2", results)
	}
	if last := evs[len(evs)-1]; last.Type != EventCanceled || !errors.Is(last.Err, ErrCanceled) {
		t.Fatalf("terminal = %+v, want a Canceled frame carrying ErrCanceled", last)
	}
	if !errors.Is(h.Err(), ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", h.Err())
	}
	// Canceling twice is a harmless no-op.
	if err := h.Cancel(); err != nil {
		t.Fatalf("second cancel: %v", err)
	}
	// The query is really gone from the aggregator: the next slot is empty.
	if err := e.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if m := e.Metrics(); m.QueriesCanceled != 1 || m.ActiveQueries != 0 {
		t.Fatalf("metrics after cancel = %+v", m)
	}
}

func TestEngineFanOut(t *testing.T) {
	e := newTestEngine(t)

	var handles []*QueryHandle
	for i := 0; i < 10; i++ {
		h, err := e.Submit(PointSpec{ID: fmt.Sprintf("fan%d", i), Loc: Pt(30, 30), Budget: 20})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		handles = append(handles, h)
	}
	if err := e.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	answered := 0
	for _, h := range handles {
		rs := collect(t, h)
		if len(rs) != 1 || rs[0].Slot != 0 {
			t.Fatalf("query %s: results = %+v", h.ID(), rs)
		}
		if rs[0].Answered {
			answered++
			if rs[0].Payment >= rs[0].Value {
				t.Errorf("query %s pays %v >= value %v", h.ID(), rs[0].Payment, rs[0].Value)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no subscriber received an answer")
	}
}

func TestEngineGracefulShutdownDrainsContinuous(t *testing.T) {
	world := NewRWMWorld(3, 200, SensorConfig{})
	e := NewEngine(NewAggregator(world))
	e.Start()

	h, err := e.Submit(LocationMonitoringSpec{ID: "drain-lm", Loc: Pt(30, 30), Duration: 5, Budget: 120, Samples: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	hev, err := e.Submit(EventDetectionSpec{
		ID: "drain-ev", Loc: Pt(30, 30), Duration: 4,
		Threshold: -1e9, Confidence: 0.1, BudgetPerSlot: 30,
	})
	if err != nil {
		t.Fatalf("submit event: %v", err)
	}
	if err := e.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	e.Stop() // must drain the remaining slots of both continuous queries

	rs := collect(t, h)
	if len(rs) != 5 {
		t.Fatalf("locmon got %d results, want 5 (one per active slot)", len(rs))
	}
	if !rs[4].Final || rs[4].Slot != 4 {
		t.Fatalf("last result = %+v, want Final at slot 4", rs[4])
	}
	if h.Err() != nil {
		t.Fatalf("drained query err = %v, want nil", h.Err())
	}
	// Continuous results must carry the parent query's value/payment —
	// the mix pipeline's probes have derived IDs, so this exercises the
	// Continuous projection.
	var lmAnswered, lmValued int
	var lmPaid float64
	for _, r := range rs {
		if r.Answered {
			lmAnswered++
		}
		if r.Value > 0 {
			lmValued++
		}
		lmPaid += r.Payment
	}
	if lmAnswered == 0 {
		t.Error("locmon subscription never saw an answered slot (continuous projection broken)")
	}
	if lmValued == 0 {
		t.Error("locmon subscription never saw positive value")
	}
	if lmPaid <= 0 {
		t.Error("locmon subscription never saw a payment")
	}
	evs := collect(t, hev)
	if len(evs) != 4 {
		t.Fatalf("event query got %d results, want 4", len(evs))
	}
	detections := 0
	for _, r := range evs {
		for _, ev := range r.Events {
			if ev.QueryID != "drain-ev" {
				t.Errorf("foreign event routed: %+v", ev)
			}
			if ev.Detected {
				detections++
			}
		}
	}
	if detections == 0 {
		t.Error("threshold -1e9 never detected: event fan-out broken")
	}

	// After Stop every submission is refused.
	if _, err := e.Submit(PointSpec{ID: "late", Loc: Pt(30, 30), Budget: 10}); !errors.Is(err, ErrEngineStopped) {
		t.Fatalf("submit after stop = %v, want ErrEngineStopped", err)
	}
}

func TestEngineStopForceClosesBeyondDrainCap(t *testing.T) {
	world := NewRWMWorld(4, 200, SensorConfig{})
	e := NewEngine(NewAggregator(world), WithDrainSlots(2))
	e.Start()
	h, err := e.Submit(LocationMonitoringSpec{ID: "long-lm", Loc: Pt(30, 30), Duration: 50, Budget: 600, Samples: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	e.Stop()
	evs := drainEvents(t, h)
	var results int
	for _, ev := range evs {
		if ev.Type == EventSlotUpdate {
			results++
		}
	}
	if results != 2 {
		t.Fatalf("got %d results, want 2 (the drain cap)", results)
	}
	if last := evs[len(evs)-1]; last.Type != EventCanceled || !errors.Is(last.Err, ErrEngineStopped) {
		t.Fatalf("terminal = %+v, want Canceled with ErrEngineStopped", last)
	}
	if !errors.Is(h.Err(), ErrEngineStopped) {
		t.Fatalf("err = %v, want ErrEngineStopped", h.Err())
	}
}

func TestEngineBackpressure(t *testing.T) {
	world := NewRWMWorld(5, 200, SensorConfig{})
	e := NewEngine(NewAggregator(world), WithQueueSize(1))
	// Engine not started: the queue fills up immediately.
	h1, err := e.Submit(PointSpec{ID: "bp1", Loc: Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := e.Submit(PointSpec{ID: "bp2", Loc: Pt(30, 30), Budget: 20}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second submit = %v, want ErrQueueFull", err)
	}
	if m := e.Metrics(); m.QueriesRejected != 1 {
		t.Fatalf("QueriesRejected = %d, want 1", m.QueriesRejected)
	}
	e.Start()
	// With a one-deep queue, RunSlots itself can hit backpressure until the
	// loop drains the pending submit; retry until accepted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := e.RunSlots(1)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) || time.Now().After(deadline) {
			t.Fatalf("RunSlots: %v", err)
		}
	}
	if rs := collect(t, h1); len(rs) != 1 {
		t.Fatalf("accepted query got %d results, want 1", len(rs))
	}
	e.Stop()
}

func TestEngineDuplicateID(t *testing.T) {
	e := newTestEngine(t)
	h1, err := e.Submit(PointSpec{ID: "dup", Loc: Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	h2, err := e.Submit(PointSpec{ID: "dup", Loc: Pt(31, 31), Budget: 20})
	if err != nil {
		t.Fatalf("second submit enqueue: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if evs := drainEvents(t, h2); len(evs) != 0 {
		t.Fatalf("duplicate got %d events, want 0", len(evs))
	}
	if !errors.Is(h2.Err(), ErrDuplicateQueryID) {
		t.Fatalf("duplicate err = %v, want ErrDuplicateQueryID", h2.Err())
	}
	if err := e.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if rs := collect(t, h1); len(rs) != 1 {
		t.Fatalf("original got %d results, want 1", len(rs))
	}
}

func TestEngineRealClock(t *testing.T) {
	world := NewRWMWorld(6, 200, SensorConfig{})
	e := NewEngine(NewAggregator(world), WithSlotInterval(2*time.Millisecond))
	e.Start()
	defer e.Stop()

	h, err := e.Submit(PointSpec{ID: "rt", Loc: Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-h.Events():
			if !ok {
				t.Fatal("stream closed without a result")
			}
			if ev.Type == EventSlotUpdate {
				if !ev.Result.Final {
					t.Errorf("result = %+v, want Final", ev.Result)
				}
				if ev.At.IsZero() {
					t.Error("event missing a publish timestamp")
				}
				if m := e.Metrics(); m.Slots == 0 || m.SlotLatencyMax == 0 {
					t.Errorf("metrics not tracking the ticking clock: %+v", m)
				}
				return
			}
		case <-timeout:
			t.Fatal("real-time clock never delivered a result")
		}
	}
}

// TestEngineSelectionStrategyAndStats: the engine accumulates the greedy
// core's instrumentation across slots.
func TestEngineSelectionStrategyAndStats(t *testing.T) {
	world := NewRWMWorld(1, 300, SensorConfig{})
	e := NewEngine(NewAggregator(world))
	e.Start()
	t.Cleanup(e.Stop)

	submitSlot := func(i int) {
		if _, err := e.Submit(AggregateSpec{ID: fmt.Sprintf("agg%d", i), Region: NewRect(20, 20, 45, 45), Budget: 300}); err != nil {
			t.Fatalf("submit aggregate: %v", err)
		}
		if _, err := e.Submit(PointSpec{ID: fmt.Sprintf("pt%d", i), Loc: Pt(30, 30), Budget: 20}); err != nil {
			t.Fatalf("submit point: %v", err)
		}
		if err := e.RunSlots(1); err != nil {
			t.Fatalf("RunSlots: %v", err)
		}
	}
	submitSlot(0)

	m := e.Metrics()
	if m.ValuationCalls <= 0 {
		t.Errorf("ValuationCalls = %d, want > 0", m.ValuationCalls)
	}

	submitSlot(1)
	m2 := e.Metrics()
	if m2.ValuationCalls <= m.ValuationCalls {
		t.Errorf("ValuationCalls did not accumulate: %d -> %d", m.ValuationCalls, m2.ValuationCalls)
	}
}

// TestEngineContinuousWindowBindsAtMaterialization: a continuous spec
// carries a relative duration, and its start slot is bound only when the
// loop goroutine materializes it — so a window submitted after the clock
// has advanced still delivers its full duration (no start-slot skew).
func TestEngineContinuousWindowBindsAtMaterialization(t *testing.T) {
	e := newTestEngine(t)

	// Advance the clock before submitting: a naive submit-time binding
	// would anchor the window at slot 1 and shorten it.
	if err := e.RunSlots(3); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	const duration = 4
	h, err := e.Submit(LocationMonitoringSpec{ID: "skew-lm", Loc: Pt(30, 30), Duration: duration, Budget: 120, Samples: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := e.RunSlots(duration + 2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	evs := drainEvents(t, h)
	if evs[0].Type != EventAccepted || evs[0].Start != 3 || evs[0].End != 3+duration-1 {
		t.Fatalf("accepted = %+v, want window [3, %d]", evs[0], 3+duration-1)
	}
	var rs []SlotResult
	for _, ev := range evs {
		if ev.Type == EventSlotUpdate {
			rs = append(rs, ev.Result)
		}
	}
	if len(rs) != duration {
		t.Fatalf("got %d results, want the full %d-slot window", len(rs), duration)
	}
	if rs[0].Slot != 3 {
		t.Errorf("window started at slot %d, want 3 (the slot after materialization)", rs[0].Slot)
	}
	if !rs[duration-1].Final || rs[duration-1].Slot != 3+duration-1 {
		t.Errorf("last result = %+v, want Final at slot %d", rs[duration-1], 3+duration-1)
	}
	if h.Err() != nil {
		t.Errorf("err = %v, want clean expiry", h.Err())
	}
}

// TestEngineSubmitSpecValidation: a spec rejected by validation closes
// the subscription with the validation error instead of going live.
func TestEngineSubmitSpecValidation(t *testing.T) {
	e := newTestEngine(t)
	h, err := e.Submit(PointSpec{ID: "bad", Loc: Pt(30, 30), Budget: -4})
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if evs := drainEvents(t, h); len(evs) != 0 {
		t.Fatalf("rejected spec produced %d events", len(evs))
	}
	if h.Err() == nil || !strings.Contains(h.Err().Error(), "negative budget") {
		t.Fatalf("err = %v, want a validation error", h.Err())
	}
	if !errors.Is(h.Err(), ErrNegativeBudget) {
		t.Fatalf("err = %v does not wrap ErrNegativeBudget", h.Err())
	}
	if _, err := e.Submit(nil); err == nil {
		t.Fatal("Submit(nil) succeeded")
	}
	if m := e.Metrics(); m.QueriesRejected == 0 {
		t.Error("rejected submission not counted")
	}
}

func TestEngineRegionMonitoringNeedsGP(t *testing.T) {
	e := newTestEngine(t) // RWM world: no GP model
	h, err := e.Submit(RegionMonitoringSpec{ID: "rm", Region: NewRect(20, 20, 40, 40), Duration: 10, Budget: 100})
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if evs := drainEvents(t, h); len(evs) != 0 {
		t.Fatalf("got %d events from a rejected query", len(evs))
	}
	if !errors.Is(h.Err(), ErrNoGPModel) {
		t.Fatalf("err = %v, want ErrNoGPModel", h.Err())
	}
}
