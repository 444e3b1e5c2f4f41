package ps

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineStress hammers one engine from many goroutines — submits of
// every lifetime class, cancellations racing the slot clock, and metric
// reads — across 500 fast virtual-clock slots, then asserts that Stop
// does not deadlock and that every handle resolved to exactly one
// terminal state (normal expiry with a Final result, cancellation,
// duplicate rejection, or engine shutdown).
func TestEngineStress(t *testing.T) {
	const workers = 8
	slots := 500
	if testing.Short() {
		slots = 120
	}
	world := NewRWMWorld(41, 120, SensorConfig{})
	eng := NewEngine(
		NewAggregator(world, WithScheduling(SchedulingGreedy)),
		WithQueueSize(256),
		// A tiny event log forces the slow-subscriber eviction path
		// under load.
		WithEventBuffer(2),
	)
	eng.Start()

	// The workers keep the 256-deep queue full, so submits, cancels and
	// RunSlots all meet the default reject policy; each retries until the
	// queue takes its command — ErrQueueFull is backpressure, not an error.
	retryFull := func(f func() error) error {
		for {
			if err := f(); !errors.Is(err, ErrQueueFull) {
				return err
			}
			runtime.Gosched()
		}
	}

	var (
		mu      sync.Mutex
		handles []*QueryHandle
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	record := func(h *QueryHandle) {
		mu.Lock()
		handles = append(handles, h)
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				loc := Pt(20+float64((w*13+i*7)%40), 20+float64((w*17+i*11)%40))
				var spec Spec
				switch i % 5 {
				case 0, 1:
					spec = PointSpec{ID: fmt.Sprintf("pt-%d-%d", w, i), Loc: loc, Budget: 15}
				case 2:
					spec = LocationMonitoringSpec{
						ID: fmt.Sprintf("lm-%d-%d", w, i), Loc: loc, Duration: 3, Budget: 60, Samples: 2,
					}
				case 3:
					spec = EventDetectionSpec{
						ID: fmt.Sprintf("ev-%d-%d", w, i), Loc: loc, Duration: 2,
						Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 20,
					}
				case 4:
					// Deliberate duplicate: this ID collides with case 0 of
					// the same worker iteration block.
					spec = PointSpec{ID: fmt.Sprintf("pt-%d-%d", w, i-4), Loc: loc, Budget: 15}
				}
				var h *QueryHandle
				err := retryFull(func() (err error) {
					h, err = eng.Submit(spec)
					return err
				})
				if err != nil {
					if errors.Is(err, ErrEngineStopped) {
						return
					}
					t.Errorf("worker %d: submit: %v", w, err)
					return
				}
				record(h)
				if i%7 == 3 {
					// Cancel a recent handle; racing an already-final query
					// is fine — Cancel must stay a no-op then.
					if err := retryFull(h.Cancel); err != nil && !errors.Is(err, ErrEngineStopped) {
						t.Errorf("worker %d: cancel: %v", w, err)
					}
				}
				if i%11 == 5 {
					m := eng.Metrics()
					if m.QueriesSubmitted < 0 || m.ActiveQueries < 0 {
						t.Errorf("worker %d: nonsensical metrics %+v", w, m)
					}
				}
			}
		}(w)
	}

	for s := 0; s < slots; s++ {
		if err := retryFull(func() error { return eng.RunSlots(1) }); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Stop must terminate even with live continuous queries in flight.
	done := make(chan struct{})
	go func() {
		eng.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine Stop deadlocked")
	}

	// Every handle's subscription is now closed; classify terminal states.
	var finals, canceled, stopped, duplicates int
	var gaps int64
	for _, h := range handles {
		var last QueryEvent
		for ev := range h.Events() {
			if ev.Type == EventGap {
				gaps += int64(ev.Dropped)
			}
			last = ev
		}
		switch err := h.Err(); {
		case err == nil:
			if last.Type != EventFinal {
				t.Fatalf("%s: expired without a Final frame (last %+v)", h.ID(), last)
			}
			finals++
		case errors.Is(err, ErrCanceled):
			canceled++
		case errors.Is(err, ErrEngineStopped):
			stopped++
		case errors.Is(err, ErrDuplicateQueryID):
			duplicates++
		default:
			t.Fatalf("%s: unexpected terminal error %v", h.ID(), err)
		}
	}
	t.Logf("handles: %d total, %d final, %d canceled, %d stopped, %d duplicate",
		len(handles), finals, canceled, stopped, duplicates)
	if len(handles) == 0 || finals == 0 {
		t.Fatal("stress run produced no completed queries")
	}
	if finals+canceled+stopped+duplicates != len(handles) {
		t.Fatalf("terminal states %d do not cover the %d handles",
			finals+canceled+stopped+duplicates, len(handles))
	}

	m := eng.Metrics()
	if m.ActiveQueries != 0 {
		t.Errorf("ActiveQueries = %d after Stop, want 0", m.ActiveQueries)
	}
	if m.QueriesSubmitted == 0 || m.EventsDelivered == 0 {
		t.Errorf("metrics show no traffic: %+v", m)
	}
	// The tiny log plus unread handles must have exercised the
	// drop-oldest path, and every eviction must be visible in a Gap frame.
	if m.EventsDropped > 0 && gaps == 0 {
		t.Errorf("%d events dropped but no Gap frame surfaced them", m.EventsDropped)
	}
}
