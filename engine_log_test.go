package ps

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// readAll drains a subscription with Next until it is Done, waiting on
// Ready in between.
func readAll(t *testing.T, s *Subscription) []QueryEvent {
	t.Helper()
	ready := s.Ready()
	var out []QueryEvent
	for {
		ev, ok := s.Next()
		switch {
		case ok:
			out = append(out, ev)
		case s.Done():
			return out
		default:
			select {
			case <-ready:
			case <-time.After(10 * time.Second):
				t.Fatalf("subscription %s stalled after %d events", s.ID(), len(out))
			}
		}
	}
}

// TestQueryLogCursors: every reader of a query is a cursor into the one
// log. A reader stalled for the whole run finds the newest events and the
// terminal one behind a single Gap; a handle reads its finished query's
// log from any slot cursor; and the Gap a reader gets reports exactly the
// events the log evicted ahead of it.
func TestQueryLogCursors(t *testing.T) {
	e := newTestEngine(t, WithEventBuffer(4))
	const duration = 8 // accepted + 8 updates + final = 10 events through a 4-event log
	h, err := e.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: duration, Budget: 200, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	stalled, err := e.Watch("lm") // attached from the start, never read while slots run
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSlots(duration); err != nil {
		t.Fatal(err)
	}

	slots := func(evs []QueryEvent) (out []int) {
		for _, ev := range evs {
			if ev.Type == EventSlotUpdate {
				out = append(out, ev.Slot)
			}
		}
		return out
	}
	wantGap := func(name string, ev QueryEvent, from, to, dropped int) {
		t.Helper()
		if ev.Type != EventGap || ev.From != from || ev.To != to || ev.Dropped != dropped || ev.Slot != to+1 {
			t.Errorf("%s: gap = %+v, want slots %d..%d, %d dropped, in front of slot %d", name, ev, from, to, dropped, to+1)
		}
	}

	// The log retains updates 5, 6, 7 and the final.
	evs := readAll(t, stalled)
	checkEventProtocol(t, "lm", evs)
	if len(evs) != 6 || evs[0].Type != EventAccepted || !equalInts(slots(evs), []int{5, 6, 7}) || terminalType(evs) != EventFinal {
		t.Fatalf("stalled watcher read %+v, want accepted, gap, slots 5..7, final", evs)
	}
	// It joined behind the accepted event, so it lost updates 0..4.
	wantGap("stalled watcher", evs[1], 0, 4, 5)

	for _, c := range []struct {
		name        string
		after       int
		from, to, n int // the expected gap; n == 0 for none
		slots       []int
	}{
		{"from the beginning", -1 << 31, -1, 4, 6, []int{5, 6, 7}},
		{"after accepted", -1, 0, 4, 5, []int{5, 6, 7}},
		{"behind the log", 2, 3, 4, 2, []int{5, 6, 7}},
		{"at the log's edge", 4, 0, 0, 0, []int{5, 6, 7}},
		{"inside the log", 5, 0, 0, 0, []int{6, 7}},
		{"at the end", 7, 0, 0, 0, nil},
		{"past the end", 99, 0, 0, 0, nil},
	} {
		evs := readAll(t, h.Watch(c.after))
		if c.n > 0 {
			if len(evs) == 0 {
				t.Fatalf("%s: empty stream", c.name)
			}
			wantGap(c.name, evs[0], c.from, c.to, c.n)
			evs = evs[1:]
		}
		if !equalInts(slots(evs), c.slots) || len(evs) != len(c.slots)+1 || terminalType(evs) != EventFinal {
			t.Errorf("%s: read %+v, want slots %v then final", c.name, evs, c.slots)
		}
	}

	if got := h.Updates(); got != 3 {
		t.Errorf("Updates = %d, want the 3 the log retains", got)
	}
	// One gap frame per reader that fell behind, each counted with what it
	// reported: 5 + 6 + 5 + 2.
	if m := e.Metrics(); m.GapEvents != 4 || m.EventsDropped != 18 {
		t.Errorf("gap frames/events dropped = %d/%d, want 4/18", m.GapEvents, m.EventsDropped)
	}
	// The handle's own cursor reads the same log, through the channel.
	if evs := drainEvents(t, h); len(evs) != 5 || evs[0].Type != EventGap || terminalType(evs) != EventFinal {
		t.Errorf("handle read %+v, want gap, slots 5..7, final", evs)
	}
}

// TestQueryHandleOnDone: the completion callback runs exactly once — when
// the terminal event is in the log, when the submission fails before
// going live, or at once if registered after either.
func TestQueryHandleOnDone(t *testing.T) {
	e := newTestEngine(t)
	var finished, failed, late atomic.Int32

	h, err := e.Submit(PointSpec{ID: "p", Loc: Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	h.OnDone(func() { finished.Add(1) })
	dup, err := e.Submit(PointSpec{ID: "p", Loc: Pt(31, 31), Budget: 20})
	if err != nil {
		t.Fatal(err)
	}
	dup.OnDone(func() { failed.Add(1) })
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if finished.Load() != 0 || failed.Load() != 1 || !errors.Is(dup.Err(), ErrDuplicateQueryID) {
		t.Fatalf("after ingest: finished %d, failed %d (err %v); want 0, 1, duplicate", finished.Load(), failed.Load(), dup.Err())
	}
	if err := e.RunSlots(2); err != nil {
		t.Fatal(err)
	}
	if finished.Load() != 1 {
		t.Fatalf("callback ran %d times over a finished one-shot, want once", finished.Load())
	}
	// By the time the callback ran, the terminal event was readable.
	if evs := readAll(t, h.Watch(-1<<31)); terminalType(evs) != EventFinal {
		t.Errorf("log after OnDone = %+v, want it to end with final", evs)
	}
	h.OnDone(func() { late.Add(1) })
	if late.Load() != 1 {
		t.Errorf("a callback registered after the end ran %d times, want at once", late.Load())
	}
}

// oneShotRuntime stands in for the aggregator behind an Engine: every
// submission is a one-shot query for the next slot, and a slot does
// nothing and reports nothing. What remains is the engine's own work per
// query — ingest, registration, the event log, the publish.
type oneShotRuntime struct{ slot int }

func (r *oneShotRuntime) NextSlot() int           { return r.slot }
func (r *oneShotRuntime) CancelQuery(string) bool { return false }
func (r *oneShotRuntime) RunSlot() *SlotReport    { r.slot++; return &SlotReport{Slot: r.slot - 1} }
func (r *oneShotRuntime) Submit(s Spec) (SubmittedQuery, error) {
	return SubmittedQuery{ID: s.QueryID(), Kind: s.Kind(), Start: r.slot, End: r.slot}, nil
}

// TestSubmitCostsNoGoroutineAndLittleMemory pins what a one-shot query
// costs the engine and hub from Submit to Final, nobody reading its
// stream meanwhile: no goroutine, and at most 1 KiB of heap — the
// per-subscription channel this replaced was 2.8 KiB on its own. The
// aggregator is stubbed out, so the bytes are the engine's alone and
// repeat exactly.
func TestSubmitCostsNoGoroutineAndLittleMemory(t *testing.T) {
	const perSlot, rounds = 200, 6
	specs := make([]Spec, perSlot*rounds)
	for i := range specs {
		specs[i] = PointSpec{ID: fmt.Sprintf("q%d", i), Loc: Pt(30, 30), Budget: 20}
	}
	e := newEngine(&oneShotRuntime{}, nil)
	e.Start()
	defer e.Stop()
	handles := make([]*QueryHandle, 0, len(specs))
	goroutines := runtime.NumGoroutine()
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		if r == 2 { // two rounds warm the loop's queue and the hub's scratch
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		for _, s := range specs[r*perSlot : (r+1)*perSlot] {
			h, err := e.Submit(s)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		if err := e.RunSlots(1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after %d unread queries, %d before", n, len(specs), goroutines)
	}
	for _, h := range handles {
		if evs := readAll(t, h.Subscription()); len(evs) != 3 || terminalType(evs) != EventFinal {
			t.Fatalf("%s: read %+v, want accepted, update, final", h.ID(), evs)
		}
	}
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64((rounds-2)*perSlot)
	t.Logf("%.0f bytes per one-shot query from Submit to Final", perQuery)
	if perQuery > 1024 {
		t.Errorf("a one-shot query costs the engine %.0f bytes from Submit to Final, want <= 1024", perQuery)
	}
}
