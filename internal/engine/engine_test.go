package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countRunner counts slots and returns the slot number.
type countRunner struct{ slots int }

func (r *countRunner) RunSlot() int { r.slots++; return r.slots }

func TestLoopStepSlots(t *testing.T) {
	r := &countRunner{}
	var got []int
	l := New[int](r, Config{}, func(res int, _ time.Duration) { got = append(got, res) }, nil)
	l.Start()
	defer l.Stop()

	if err := l.StepSlots(3); err != nil {
		t.Fatalf("StepSlots: %v", err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("onSlot results = %v, want [1 2 3]", got)
	}
}

func TestLoopVirtualClock(t *testing.T) {
	r := &countRunner{}
	clk := NewVirtualClock()
	var slots atomic.Int64
	l := New[int](r, Config{Clock: clk}, func(int, time.Duration) { slots.Add(1) }, nil)
	l.Start()

	if n := clk.Advance(5); n != 5 {
		t.Fatalf("Advance delivered %d ticks, want 5", n)
	}
	l.Stop()
	if slots.Load() != 5 {
		t.Fatalf("slots = %d, want 5", slots.Load())
	}
	// After Stop the clock is stopped: Advance must not block forever.
	if n := clk.Advance(3); n != 0 {
		t.Fatalf("Advance after stop delivered %d ticks, want 0", n)
	}
}

func TestLoopRealClock(t *testing.T) {
	r := &countRunner{}
	var slots atomic.Int64
	l := New[int](r, Config{Clock: NewRealClock(2 * time.Millisecond)}, func(int, time.Duration) { slots.Add(1) }, nil)
	l.Start()
	deadline := time.Now().Add(2 * time.Second)
	for slots.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	if slots.Load() < 2 {
		t.Fatalf("real clock ran %d slots in 2s, want >= 2", slots.Load())
	}
}

func TestLoopOverflowReject(t *testing.T) {
	r := &countRunner{}
	l := New[int](r, Config{QueueSize: 1}, nil, nil)
	// Not started: the queue fills and rejects.
	if err := l.Do(func() {}); err != nil {
		t.Fatalf("first Do: %v", err)
	}
	if err := l.Do(func() {}); err != ErrQueueFull {
		t.Fatalf("second Do = %v, want ErrQueueFull", err)
	}
	if d, c := l.QueueDepth(), l.QueueCap(); d != 1 || c != 1 {
		t.Fatalf("queue depth %d, capacity %d, want 1 and 1", d, c)
	}
	l.Stop() // drains the queued command
}

func TestLoopStopDrainsAndFinalizes(t *testing.T) {
	r := &countRunner{}
	var ran atomic.Int64
	var finalSlots int
	l := New[int](r, Config{}, nil, func(step func()) {
		step() // drain one extra slot during shutdown
		finalSlots = r.slots
	})
	l.Start()
	for i := 0; i < 10; i++ {
		if err := l.Do(func() { ran.Add(1) }); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	l.Stop()
	if ran.Load() != 10 {
		t.Fatalf("drained %d queued commands, want 10", ran.Load())
	}
	if finalSlots != 1 {
		t.Fatalf("finalize step ran %d slots, want 1", finalSlots)
	}
	if err := l.Do(func() {}); err != ErrStopped {
		t.Fatalf("Do after Stop = %v, want ErrStopped", err)
	}
	if err := l.StepSlots(1); err != ErrStopped {
		t.Fatalf("StepSlots after Stop = %v, want ErrStopped", err)
	}
}

func TestLoopConcurrentDo(t *testing.T) {
	r := &countRunner{}
	// The queue holds every command the test enqueues (800 plus 10
	// StepSlots), so the default reject policy never fires.
	l := New[int](r, Config{QueueSize: 4096}, nil, nil)
	l.Start()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := l.Do(func() { ran.Add(1) }); err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}()
	}
	// Interleave slot execution with the submitters.
	for i := 0; i < 10; i++ {
		if err := l.StepSlots(1); err != nil {
			t.Fatalf("StepSlots: %v", err)
		}
	}
	wg.Wait()
	l.Stop()
	if ran.Load() != 800 {
		t.Fatalf("ran %d commands, want 800", ran.Load())
	}
	if r.slots != 10 {
		t.Fatalf("slots = %d, want 10", r.slots)
	}
}
