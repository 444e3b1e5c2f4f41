package ps

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestHubMultiSubscriber: any number of watchers can attach to one live
// query; each sees the protocol sequence, and a late watcher sees
// exactly the events published after its JoinCursor (plus the replayed
// Accepted frame).
func TestHubMultiSubscriber(t *testing.T) {
	e := newTestEngine(t)
	const duration = 6
	h, err := e.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: duration, Budget: 120, Samples: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	early, err := e.Watch("lm")
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if c := early.JoinCursor(); c != -1 {
		t.Errorf("early JoinCursor = %d, want -1 (nothing executed)", c)
	}
	if err := e.RunSlots(3); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	late, err := e.Watch("lm")
	if err != nil {
		t.Fatalf("late watch: %v", err)
	}
	if c := late.JoinCursor(); c != 2 {
		t.Errorf("late JoinCursor = %d, want 2 (three slots executed)", c)
	}
	if err := e.RunSlots(duration - 3); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}

	drainSub := func(s *Subscription) []QueryEvent {
		var out []QueryEvent
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev, ok := <-s.Events():
				if !ok {
					return out
				}
				out = append(out, ev)
			case <-timeout:
				t.Fatal("subscription did not close")
			}
		}
	}
	slots := func(evs []QueryEvent) []int {
		var out []int
		for _, ev := range evs {
			if ev.Type == EventSlotUpdate {
				out = append(out, ev.Slot)
			}
		}
		return out
	}

	hEvs, earlyEvs, lateEvs := drainEvents(t, h), drainSub(early), drainSub(late)
	checkEventProtocol(t, "lm", earlyEvs)
	checkEventProtocol(t, "lm", lateEvs)
	want := []int{0, 1, 2, 3, 4, 5}
	if got := slots(hEvs); !equalInts(got, want) {
		t.Errorf("handle slots = %v, want %v", got, want)
	}
	if got := slots(earlyEvs); !equalInts(got, want) {
		t.Errorf("early watcher slots = %v, want %v", got, want)
	}
	if got := slots(lateEvs); !equalInts(got, []int{3, 4, 5}) {
		t.Errorf("late watcher slots = %v, want [3 4 5]", got)
	}
	for name, evs := range map[string][]QueryEvent{"handle": hEvs, "early": earlyEvs, "late": lateEvs} {
		if terminalType(evs) != EventFinal {
			t.Errorf("%s stream terminal = %v, want final", name, terminalType(evs))
		}
		if evs[0].Type != EventAccepted || evs[0].Start != 0 || evs[0].End != duration-1 {
			t.Errorf("%s accepted = %+v, want window [0, %d]", name, evs[0], duration-1)
		}
	}
	if early.Err() != nil || late.Err() != nil {
		t.Errorf("watcher errs = %v, %v; want nil after Final", early.Err(), late.Err())
	}
}

func equalInts(a, b []int) bool {
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

// TestSubscriptionGapOnOverflow: the query's log evicts oldest-first,
// every eviction ahead of an unread subscription is surfaced to it by a
// Gap frame, and the terminal frame always lands. (With one log per
// query the handle finds the newest 4 of the 14 events behind a single
// gap reporting the other 10; the per-subscription ring this replaced
// spent one of its 4 slots on the gap frame. The assertions hold for
// either.)
func TestSubscriptionGapOnOverflow(t *testing.T) {
	e := newTestEngine(t, WithEventBuffer(4))
	const duration = 12
	h, err := e.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: duration, Budget: 120, Samples: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Run the full window plus one without reading a single event.
	if err := e.RunSlots(duration + 1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	evs := drainEvents(t, h)
	var received, droppedTotal, gaps int
	gapSlots := map[int]bool{}
	for _, ev := range evs {
		switch ev.Type {
		case EventGap:
			gaps++
			droppedTotal += ev.Dropped
			for s := ev.From; s <= ev.To; s++ {
				gapSlots[s] = true
			}
			if ev.Dropped <= 0 || ev.From > ev.To || ev.To > ev.Slot {
				t.Errorf("malformed gap frame %+v", ev)
			}
		default:
			received++
		}
	}
	// Published: 1 accepted + 12 updates + 1 final = 14 frames; every one
	// was either read or accounted by a Gap.
	if received+droppedTotal != duration+2 {
		t.Fatalf("received %d + dropped %d != %d published frames (events %+v)",
			received, droppedTotal, duration+2, evs)
	}
	if gaps == 0 {
		t.Fatal("a 4-event log over 14 frames produced no Gap frame")
	}
	if terminalType(evs) != EventFinal {
		t.Fatalf("terminal = %v, want final (the newest frames always land)", terminalType(evs))
	}
	if m := e.Metrics(); m.EventsDropped != int64(droppedTotal) || m.GapEvents < int64(gaps) {
		t.Errorf("metrics dropped/gaps = %d/%d, want %d/>=%d", m.EventsDropped, m.GapEvents, droppedTotal, gaps)
	}
	// Dropped and received slots interleave consistently: no slot is both.
	for _, ev := range evs {
		if ev.Type == EventSlotUpdate && gapSlots[ev.Slot] {
			t.Errorf("slot %d both delivered and inside a gap", ev.Slot)
		}
	}
}

// TestWatchLifecycleErrors: watching an unknown or finished query fails
// with ErrUnknownQuery; a watcher's Close detaches without touching the
// query; watchers of a canceled query see the Canceled terminal.
func TestWatchLifecycleErrors(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Watch("nope"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("Watch(unknown) = %v, want ErrUnknownQuery", err)
	}

	h, err := e.Submit(PointSpec{ID: "p", Loc: Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := e.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	collect(t, h)
	if _, err := e.Watch("p"); !errors.Is(err, ErrUnknownQuery) {
		t.Fatalf("Watch(finished) = %v, want ErrUnknownQuery", err)
	}

	// A detaching watcher does not disturb the query or other streams.
	lm, err := e.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: 8, Budget: 120, Samples: 3})
	if err != nil {
		t.Fatalf("submit lm: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	w1, err := e.Watch("lm")
	if err != nil {
		t.Fatalf("watch lm: %v", err)
	}
	w1.Close()
	w1.Close() // idempotent
	if err := e.RunSlots(2); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	if _, ok := <-w1.Events(); ok {
		// The replayed Accepted frame may still be buffered; the channel
		// must be closed right behind it.
		if _, ok := <-w1.Events(); ok {
			t.Fatal("closed watcher kept receiving events")
		}
	}

	// Cancel: a live watcher observes the Canceled terminal with the cause.
	w2, err := e.Watch("lm")
	if err != nil {
		t.Fatalf("re-watch lm: %v", err)
	}
	if err := lm.Cancel(); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var last QueryEvent
	for ev := range w2.Events() {
		last = ev
	}
	if last.Type != EventCanceled || !errors.Is(last.Err, ErrCanceled) {
		t.Fatalf("watcher terminal = %+v, want Canceled(ErrCanceled)", last)
	}
	if !errors.Is(w2.Err(), ErrCanceled) {
		t.Fatalf("watcher Err = %v, want ErrCanceled", w2.Err())
	}
}

// TestStalledSubscriberDoesNotDelaySlots is the push-delivery latency
// guarantee: subscribers that never read — watchers far behind the log —
// must not add to slot execution time, because a publish is one append
// whoever reads it. Compares the slot p50 of a run with 64 deliberately
// stalled watchers against a no-watcher run.
func TestStalledSubscriberDoesNotDelaySlots(t *testing.T) {
	const slots = 40
	run := func(stalledWatchers int) (p50 time.Duration, subs []*Subscription) {
		world := NewRWMWorld(21, 200, SensorConfig{})
		e := NewEngine(NewAggregator(world), WithEventBuffer(2))
		e.Start()
		t.Cleanup(e.Stop)
		if _, err := e.Submit(LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: slots, Budget: 400, Samples: 8}); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		for i := 0; i < stalledWatchers; i++ {
			s, err := e.Watch("lm")
			if err != nil {
				t.Fatalf("watch %d: %v", i, err)
			}
			subs = append(subs, s) // never read: deliberately stalled
		}
		lat := make([]time.Duration, 0, slots)
		for s := 0; s < slots; s++ {
			// A fresh point query keeps every slot non-trivial.
			if _, err := e.Submit(PointSpec{ID: fmt.Sprintf("p%d", s), Loc: Pt(30, 30), Budget: 15}); err != nil {
				t.Fatalf("submit point: %v", err)
			}
			start := time.Now()
			if err := e.RunSlots(1); err != nil {
				t.Fatalf("RunSlots: %v", err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], subs
	}

	base, _ := run(0)
	stalled, subs := run(64)

	// "Within noise": generous slack absorbs scheduler jitter (and the
	// race detector); a blocking publish would stall a slot for as long
	// as the subscriber sleeps, i.e. far beyond any of this.
	limit := 4*base + 5*time.Millisecond
	if stalled > limit {
		t.Errorf("slot p50 with 64 stalled watchers = %v, no-watcher baseline %v (limit %v): a stalled subscriber is delaying the slot loop", stalled, base, limit)
	}

	// The stalled watchers were served under the drop-oldest policy: each
	// finds the log's newest frames and a Gap accounting for the rest.
	sawGap := false
	for _, s := range subs {
		for {
			ev, ok := <-s.Events()
			if !ok {
				break
			}
			if ev.Type == EventGap {
				sawGap = true
			}
		}
	}
	if !sawGap {
		t.Error("no stalled watcher received a Gap frame despite a 2-event log over 40 slots")
	}
}
