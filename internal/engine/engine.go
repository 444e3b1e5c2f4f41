// Package engine provides the concurrency machinery of the streaming
// serving layer: a single-goroutine event loop that owns a synchronous
// slot runner (the aggregator), fed by a bounded command queue and driven
// by a pluggable slot clock.
//
// The shape follows production metric pipelines (buffered ingest channels,
// one owner goroutine, a flush ticker): all state the runner touches is
// confined to the loop goroutine, so the paper's single-threaded
// scheduling core needs no locks to serve concurrent clients. Callers
// interact through three primitives:
//
//   - Do(f) enqueues a closure executed on the loop goroutine (ingest);
//   - the Clock delivers ticks, each running one time slot (slot clock);
//   - an onSlot callback fans the slot's result out to subscribers.
//
// The package is generic over the slot result type so it stays free of an
// import cycle with the public ps package that wraps it.
package engine

import (
	"errors"
	"sync"
	"time"
)

var (
	// ErrQueueFull is returned by Do under OverflowReject when the ingest
	// queue is at capacity.
	ErrQueueFull = errors.New("engine: ingest queue full")
	// ErrStopped is returned by Do and StepSlots after Stop.
	ErrStopped = errors.New("engine: stopped")
)

// Runner executes one time slot synchronously. It is only ever called
// from the loop goroutine.
type Runner[R any] interface {
	RunSlot() R
}

// OverflowPolicy decides what Do does when the ingest queue is full.
type OverflowPolicy int

const (
	// OverflowReject makes Do fail fast with ErrQueueFull (default):
	// callers get explicit backpressure they can surface upstream.
	OverflowReject OverflowPolicy = iota
	// OverflowShedOldest makes a full queue evict its oldest sheddable
	// command (see DoSheddable) to admit the new one: fresh work wins
	// over stale work that has been waiting longest, the load-shedding
	// policy of overloaded serving layers. Commands enqueued with plain
	// Do are never shed; when shedding scans past one it is re-enqueued
	// at the tail, so under sustained overflow non-sheddable commands may
	// execute later than their enqueue order. Intended for a started,
	// real-clock loop — with no consumer running, re-enqueueing a
	// non-sheddable head can block until the loop starts.
	OverflowShedOldest
)

// Config parameterizes a Loop.
type Config struct {
	// QueueSize bounds the ingest command queue (default 1024).
	QueueSize int
	// Overflow selects the behaviour of Do on a full queue.
	Overflow OverflowPolicy
	// Clock drives slots; nil means no autonomous ticking — the owner
	// steps slots explicitly with StepSlots (virtual/fast-forward mode).
	Clock Clock
}

// Loop is the single-goroutine event loop owning a Runner. All runner
// state is confined to the loop goroutine; concurrency enters only
// through the bounded command queue and the clock.
type Loop[R any] struct {
	runner   Runner[R]
	onSlot   func(R, time.Duration)
	finalize func(step func())
	clock    Clock
	overflow OverflowPolicy

	cmds chan command
	stop chan struct{}
	done chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once

	// sendMu makes enqueue atomic with respect to Stop: Do holds the read
	// side across the stopped-check and the channel send, Stop takes the
	// write side to flip stopped. This guarantees every command accepted
	// by Do is in the queue before the shutdown drain runs — no accepted
	// command is ever silently dropped.
	sendMu  sync.RWMutex
	stopped bool
}

// New builds a Loop. onSlot (may be nil) is invoked on the loop goroutine
// after every slot with the slot's result and execution latency. finalize
// (may be nil) is invoked on the loop goroutine during Stop, after the
// queue has drained; it receives a step function that synchronously runs
// one more slot, so the wrapper can drain in-flight continuous work.
func New[R any](runner Runner[R], cfg Config, onSlot func(R, time.Duration), finalize func(step func())) *Loop[R] {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	return &Loop[R]{
		runner:   runner,
		onSlot:   onSlot,
		finalize: finalize,
		clock:    cfg.Clock,
		overflow: cfg.Overflow,
		cmds:     make(chan command, cfg.QueueSize),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the loop goroutine. Safe to call once; subsequent calls
// are no-ops.
func (l *Loop[R]) Start() {
	l.startOnce.Do(func() { go l.run() })
}

// Stop shuts the loop down gracefully: new commands are refused, queued
// ones drain, finalize runs, and Stop returns once the loop goroutine
// exited. Every command Do accepted before Stop is guaranteed to run.
func (l *Loop[R]) Stop() {
	l.stopOnce.Do(func() {
		l.sendMu.Lock()
		l.stopped = true
		l.sendMu.Unlock()
		if l.clock != nil {
			l.clock.Stop()
		}
		close(l.stop)
	})
	l.Start() // a never-started loop still drains and finalizes
	<-l.done
}

// command is one queued unit of work. onShed is non-nil only for
// sheddable commands: under OverflowShedOldest a full queue may evict
// the command before it runs, invoking onShed (on the goroutine whose
// enqueue caused the eviction) instead of fn.
type command struct {
	fn     func()
	onShed func()
}

// Do enqueues f for execution on the loop goroutine. Under OverflowReject
// a full queue returns ErrQueueFull; under OverflowShedOldest the queue's
// oldest sheddable command is evicted to make room (ErrQueueFull only
// when nothing is sheddable).
// After Stop, Do returns ErrStopped. A nil return guarantees f will run
// (possibly during the shutdown drain) — commands enqueued with Do are
// never shed.
func (l *Loop[R]) Do(f func()) error {
	return l.enqueue(command{fn: f})
}

// DoSheddable enqueues f like Do, but marks it evictable under
// OverflowShedOldest: if a later enqueue finds the queue full while f is
// still waiting, f is discarded and onShed runs in its place (on the
// evicting goroutine — onShed must be safe off the loop goroutine).
// Exactly one of f and onShed runs for every nil return. Under the other
// overflow policies DoSheddable behaves exactly like Do.
func (l *Loop[R]) DoSheddable(f, onShed func()) error {
	return l.enqueue(command{fn: f, onShed: onShed})
}

func (l *Loop[R]) enqueue(c command) error {
	l.sendMu.RLock()
	defer l.sendMu.RUnlock()
	if l.stopped {
		return ErrStopped
	}
	// While we hold sendMu, Stop cannot flip stopped, so the loop is
	// still consuming and any send that succeeds lands before the
	// shutdown drain.
	switch l.overflow {
	case OverflowShedOldest:
		if !l.sendShedding(c) {
			return ErrQueueFull
		}
	default:
		select {
		case l.cmds <- c:
		default:
			return ErrQueueFull
		}
	}
	return nil
}

// sendShedding places c on a possibly-full queue by evicting the oldest
// sheddable command waiting in it. A popped non-sheddable head is
// re-enqueued at the tail (a blocking send: the caller holds
// sendMu.RLock, so the loop goroutine cannot have passed its shutdown
// drain and keeps consuming). Attempts are bounded by the queue
// capacity: after scanning past every originally queued command without
// finding a free or sheddable slot, the caller gets ErrQueueFull.
func (l *Loop[R]) sendShedding(c command) bool {
	for tries := 0; tries <= cap(l.cmds); tries++ {
		select {
		case l.cmds <- c:
			return true
		default:
		}
		select {
		case old := <-l.cmds:
			if old.onShed != nil {
				old.onShed()
			} else {
				l.cmds <- old
			}
		default:
			// The loop drained the queue between our probes; retry the send.
		}
	}
	return false
}

// StepSlots synchronously executes n slots on the loop goroutine and
// returns when they completed. This is the virtual-clock / fast-forward
// path: with a nil Clock it is the only way slots happen.
func (l *Loop[R]) StepSlots(n int) error {
	done := make(chan struct{})
	if err := l.Do(func() {
		for i := 0; i < n; i++ {
			l.runSlot()
		}
		close(done)
	}); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-l.done:
		// The loop exited while our command was queued behind Stop's
		// drain; if the drain ran it, done is closed.
		select {
		case <-done:
			return nil
		default:
			return ErrStopped
		}
	}
}

// QueueDepth reports how many commands wait in the ingest queue now.
func (l *Loop[R]) QueueDepth() int { return len(l.cmds) }

// QueueCap reports the ingest queue's capacity.
func (l *Loop[R]) QueueCap() int { return cap(l.cmds) }

func (l *Loop[R]) run() {
	defer close(l.done)
	var ticks <-chan time.Time
	if l.clock != nil {
		ticks = l.clock.C()
	}
	for {
		select {
		case c := <-l.cmds:
			c.fn()
		case <-ticks:
			l.runSlot()
		case <-l.stop:
			l.drain()
			if l.finalize != nil {
				l.finalize(l.runSlot)
			}
			return
		}
	}
}

// drain runs every command still queued at shutdown so accepted submits
// are not silently lost.
func (l *Loop[R]) drain() {
	for {
		select {
		case c := <-l.cmds:
			c.fn()
		default:
			return
		}
	}
}

func (l *Loop[R]) runSlot() {
	start := time.Now()
	r := l.runner.RunSlot()
	dur := time.Since(start)
	if l.onSlot != nil {
		l.onSlot(r, dur)
	}
}
