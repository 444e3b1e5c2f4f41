package ps

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Errors surfaced by the streaming Engine.
var (
	// ErrQueueFull reports that a submission was rejected because the
	// engine's bounded ingest queue was at capacity (backpressure).
	ErrQueueFull = engine.ErrQueueFull
	// ErrEngineStopped reports a submission to (or a subscription cut off
	// by) a stopped engine.
	ErrEngineStopped = engine.ErrStopped
	// ErrShed reports a submission that was accepted into the ingest
	// queue but evicted by the shed-oldest overflow policy before going
	// live (see WithShedOldest). It wraps ErrQueueFull, so callers
	// treating every overload rejection alike can keep testing
	// errors.Is(err, ErrQueueFull); errors.Is(err, ErrShed) isolates the
	// shed case.
	ErrShed = fmt.Errorf("ps: submission shed under overload: %w", engine.ErrQueueFull)
	// ErrCanceled marks a subscription ended by QueryHandle.Cancel.
	ErrCanceled = errors.New("ps: query canceled")
	// ErrDuplicateQueryID rejects a submission whose ID is already live.
	ErrDuplicateQueryID = errors.New("ps: duplicate query id")
)

// SlotResult is the payload of one SlotUpdate event: the query's outcome
// for one executed slot it was live for.
type SlotResult struct {
	// Slot is the executed slot number.
	Slot int
	// Answered reports whether the query was served this slot: it
	// obtained positive value, or — for continuous queries — a satisfied
	// sample whose valuation delta may round to zero.
	Answered bool
	// Value is the valuation obtained this slot, Payment what it paid.
	Value   float64
	Payment float64
	// Events carries this query's event-detection evaluations, if any.
	Events []EventNotification
	// Final marks the last slot of the query's window; an EventFinal
	// frame follows this result on the stream.
	Final bool
}

// QueryHandle is the submitting client's view of a query: the query's
// primary event Subscription plus cancellation. The stream delivers
// Accepted, then one SlotUpdate per executed slot the query is live for,
// then Final (normal expiry) or Canceled; see Subscription for the event
// log behind it and its slow-consumer policy. Additional observers attach
// with Engine.Watch or Watch. A handle keeps its query's log readable
// after the query finished, for as long as the handle itself is kept.
type QueryHandle struct {
	id  string
	eng *Engine
	sub *Subscription
}

// ID returns the query's identifier.
func (h *QueryHandle) ID() string { return h.id }

// Events returns the handle's event stream (see Subscription.Events).
func (h *QueryHandle) Events() <-chan QueryEvent { return h.sub.Events() }

// Subscription returns the handle's underlying subscription.
func (h *QueryHandle) Subscription() *Subscription { return h.sub }

// Err explains why the stream ended: nil after normal expiry,
// ErrCanceled, ErrEngineStopped, or a submission error such as
// ErrDuplicateQueryID. Only valid once the stream ended.
func (h *QueryHandle) Err() error { return h.sub.Err() }

// Watch opens a further reader on the query's event log, positioned after
// slot cursor `after`: it reads the retained events with a newer cursor —
// behind one Gap frame if the log already evicted some of them — and then
// follows the live tail; the terminal event is read whatever the cursor.
// Unlike Engine.Watch it also works once the query finished, which is
// what lets a transport serve replay and live follow from the one log.
// Pass a cursor below the query's first slot to read from the beginning.
func (h *QueryHandle) Watch(after int) *Subscription { return h.sub.t.follow(after) }

// Updates reports how many SlotUpdate events the query's log currently
// retains.
func (h *QueryHandle) Updates() int {
	t := h.sub.t
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.log)
	if n > 0 && t.log[0].Type == EventAccepted {
		n--
	}
	if n > 0 && t.log[len(t.log)-1].terminal() {
		n--
	}
	return n
}

// OnDone registers fn to run once when the query's stream ends — the
// terminal event is in the log, or the submission failed before going
// live (Err tells which) — or at once if it already has. fn runs on the
// goroutine that ended the stream, usually the engine's event loop, with
// no engine lock held: it must not block. A later registration replaces
// an earlier one that has not run.
func (h *QueryHandle) OnDone(fn func()) {
	t := h.sub.t
	t.mu.Lock()
	if !t.ended {
		t.onDone = fn
		fn = nil
	}
	t.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Cancel withdraws the query before its next slot and terminates every
// attached subscription with a Canceled event (Err reports ErrCanceled).
// Canceling an already-finished query is a no-op. The returned error
// reports only enqueue failure of the cancellation itself (queue full or
// engine stopped).
func (h *QueryHandle) Cancel() error {
	e := h.eng
	return e.loop.Do(e.timedIngest(func() {
		if !e.hub.cancel(h.sub.t, ErrCanceled, time.Now()) {
			return // already expired, replaced, or canceled
		}
		e.agg.CancelQuery(h.id)
		e.obs.queriesCanceled.Inc()
	}))
}

// EngineMetrics is a point-in-time snapshot of the engine's counters,
// read from its metrics registry (Engine.Observability): GET /metrics
// renders this struct as JSON and the registry as Prometheus text, so
// the two read the same values. Durations marshal as integer
// nanoseconds.
type EngineMetrics struct {
	// Slots executed and the last executed slot number.
	Slots    int `json:"slots"`
	LastSlot int `json:"last_slot"`
	// Welfare, payments, cost and sensor usage accumulated over all slots.
	TotalWelfare  float64 `json:"total_welfare"`
	LastWelfare   float64 `json:"last_welfare"`
	TotalPayments float64 `json:"total_payments"`
	TotalCost     float64 `json:"total_cost"`
	SensorsUsed   int64   `json:"sensors_used"`
	// Query lifecycle counters: Submitted counts queries that became
	// live; Rejected counts submissions that never did (queue overflow,
	// duplicate ID, registration error).
	QueriesSubmitted int64 `json:"queries_submitted"`
	QueriesRejected  int64 `json:"queries_rejected"`
	// QueriesShed counts submissions accepted into the ingest queue but
	// evicted by the shed-oldest overflow policy before going live (not
	// included in QueriesRejected — a shed submission was admitted, then
	// sacrificed to newer work).
	QueriesShed     int64 `json:"queries_shed"`
	QueriesCanceled int64 `json:"queries_canceled"`
	ActiveQueries   int   `json:"active_queries"`
	// Per-(query, slot) delivery counters: Answered counts results with
	// positive value, Starved results delivered with none.
	Answered int64 `json:"answered"`
	Starved  int64 `json:"starved"`
	// EventsDelivered counts events times the readers attached when each
	// was published; EventsDropped counts events a reader lost because
	// the query's log evicted them before it got there (each such run is
	// reported to that reader by one of the GapEvents frames).
	EventsDelivered int64 `json:"events_delivered"`
	EventsDropped   int64 `json:"events_dropped"`
	GapEvents       int64 `json:"gap_events"`
	// Selection instrumentation summed over all slots: valuation calls
	// the greedy core made, what an exhaustive scan would have made
	// beyond them (the lazy heap's pruning), lazy-heap re-evaluations,
	// non-submodular fallback rescans, and failed Eq. 11 checks on
	// published payments (ConservationViolations, which must read 0).
	ValuationCalls          int64 `json:"valuation_calls"`
	ValuationCallsSaved     int64 `json:"valuation_calls_saved"`
	LazyReevaluations       int64 `json:"lazy_reevaluations"`
	SubmodularityViolations int64 `json:"submodularity_violations"`
	ConservationViolations  int64 `json:"conservation_violations"`
	FallbackRescans         int64 `json:"fallback_rescans"`
	// Valuation-cache instrumentation (see core.SelectionStats): probe
	// counts of the per-sensor footprint-geometry caches and the GP
	// base-posterior observation accounting (rank-1 appends vs exact
	// from-scratch rebuilds).
	GeomCacheHits     int64 `json:"geom_cache_hits"`
	GeomCacheLookups  int64 `json:"geom_cache_lookups"`
	PosteriorAppends  int64 `json:"posterior_appends"`
	PosteriorRebuilds int64 `json:"posterior_rebuilds"`
	// Shards is the per-shard breakdown summed over slots when the engine
	// drives a ShardedAggregator (the last entry is the spanning pass);
	// nil on an unsharded engine.
	Shards []ShardStats `json:"shards,omitempty"`
	// SlotStages is the per-stage slot latency breakdown, in first-seen
	// pipeline order (ingest, offer_gather, selection or the sharded
	// passes, commit, accounting, publish). Empty until the first slot
	// executes.
	SlotStages []StageStats `json:"slot_stages,omitempty"`
	// Ingest queue occupancy, read live, and slot execution latency.
	QueueDepth      int           `json:"queue_depth"`
	QueueCap        int           `json:"queue_cap"`
	SlotLatencyLast time.Duration `json:"slot_latency_last_ns"`
	SlotLatencyAvg  time.Duration `json:"slot_latency_avg_ns"`
	SlotLatencyMax  time.Duration `json:"slot_latency_max_ns"`
}

type engineConfig struct {
	interval    time.Duration
	queueSize   int
	shedOldest  bool
	eventBuffer int
	drainSlots  int
	logger      *slog.Logger
}

// EngineOption customizes an Engine.
type EngineOption func(*engineConfig)

// WithSlotInterval attaches a real-time slot clock ticking every d. The
// default is no clock: slots run only through RunSlots (virtual time,
// used by tests, backtesting and benchmarks).
func WithSlotInterval(d time.Duration) EngineOption {
	return func(c *engineConfig) { c.interval = d }
}

// WithQueueSize bounds the ingest queue (default 1024 submissions).
func WithQueueSize(n int) EngineOption {
	return func(c *engineConfig) { c.queueSize = n }
}

// WithShedOldest makes a full ingest queue evict its oldest still-queued
// submission to admit the new one — the evicted query's stream closes
// with ErrShed and EngineMetrics.QueriesShed (ps_shed_total) counts it.
// Under sustained overload this keeps admission latency flat and sheds
// the work that has already waited longest, instead of rejecting all
// fresh work with ErrQueueFull (the default). Only submissions are
// sheddable; cancels and RunSlots commands are never evicted, though
// shedding may delay them behind newer submissions. Intended for
// real-clock serving engines.
func WithShedOldest() EngineOption {
	return func(c *engineConfig) { c.shedOldest = true }
}

// WithEventBuffer bounds each query's event log (default 1024 events,
// minimum 2): the log grows on demand up to n, then evicts oldest-first.
// It is the one per-query bound — how far a reader may fall behind before
// it gets a Gap, and how much history a late or resuming reader can
// replay.
func WithEventBuffer(n int) EngineOption {
	return func(c *engineConfig) {
		if n > 0 {
			c.eventBuffer = n
		}
	}
}

// WithDrainSlots caps how many extra slots Stop runs to drain in-flight
// queries before force-closing their subscriptions (default 64).
func WithDrainSlots(n int) EngineOption {
	return func(c *engineConfig) { c.drainSlots = n }
}

// WithLogger attaches a structured logger. The engine emits a per-slot
// summary at Debug level (slot, welfare, sensors, stage latencies); no
// logging happens on the hot path unless the handler enables Debug. Nil
// (the default) disables logging.
func WithLogger(l *slog.Logger) EngineOption {
	return func(c *engineConfig) { c.logger = l }
}

// queryRuntime is the execution backend surface the Engine drives: slot
// execution plus the query lifecycle. Aggregator (single-world) and
// ShardedAggregator (geo-sharded, shard.go) both satisfy it.
type queryRuntime interface {
	slotRunner
	Submit(Spec) (SubmittedQuery, error)
	CancelQuery(id string) bool
}

// Engine is the concurrent, slot-clocked serving layer over an
// Aggregator (or a geo-sharded ShardedAggregator). Submissions from any
// goroutine become non-blocking enqueues onto a bounded queue; a single
// event-loop goroutine owns the aggregator, executes slots as the clock
// ticks, and publishes each SlotReport through the subscription hub —
// one typed event log per query, any number of readers each. The
// aggregator (and its World) must not be used directly once handed to an
// Engine.
type Engine struct {
	agg    queryRuntime
	runner slotRunner
	loop   *engine.Loop[*SlotReport]
	hub    *hub

	drainSlots int

	obs *engineObs
	// log is nil unless WithLogger was given; onSlot guards every use.
	log *slog.Logger
	// ingestNanos accumulates time spent executing queued submissions and
	// cancels between slots; onSlot drains it into the "ingest" stage.
	ingestNanos atomic.Int64
}

// NewEngine wraps an aggregator into a streaming engine. Call Start to
// begin serving, then submit queries from any number of goroutines.
func NewEngine(agg *Aggregator, opts ...EngineOption) *Engine {
	return newEngine(agg, opts)
}

// NewShardedEngine wraps a geo-sharded aggregator into a streaming
// engine: the same serving surface as NewEngine, with every slot executed
// as concurrent per-shard passes plus cross-shard reconciliation, and
// EngineMetrics carrying the per-shard breakdown.
func NewShardedEngine(agg *ShardedAggregator, opts ...EngineOption) *Engine {
	return newEngine(agg, opts)
}

func newEngine(agg queryRuntime, opts []EngineOption) *Engine {
	cfg := engineConfig{queueSize: 1024, eventBuffer: 1024, drainSlots: 64}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		agg:        agg,
		runner:     agg,
		drainSlots: cfg.drainSlots,
		log:        cfg.logger,
	}
	lc := engine.Config{QueueSize: cfg.queueSize}
	if cfg.shedOldest {
		lc.Overflow = engine.OverflowShedOldest
	}
	if cfg.interval > 0 {
		lc.Clock = engine.NewRealClock(cfg.interval)
	}
	e.loop = engine.New[*SlotReport](e.runner, lc, e.onSlot, e.drain)
	e.obs = newEngineObs(func() int { return e.hub.liveCount() }, e.loop.QueueDepth, e.loop.QueueCap)
	e.hub = newHub(cfg.eventBuffer, &e.obs.hub)
	return e
}

// Start launches the event loop (and the slot clock, if configured).
func (e *Engine) Start() { e.loop.Start() }

// Stop shuts down gracefully: new submissions are refused, queued ones are
// processed, then the engine keeps running slots (up to the drain cap)
// while live queries remain, so in-flight continuous queries finish.
// Whatever is still live after the cap is closed with ErrEngineStopped.
// Stop blocks until the loop goroutine exits.
func (e *Engine) Stop() { e.loop.Stop() }

// RunSlots synchronously executes n slots on the event loop and returns
// when they have all run — the virtual/fast-forward clock used by tests,
// backtesting and load generation. It composes with a real clock, but is
// typically used instead of one.
func (e *Engine) RunSlots(n int) error { return e.loop.StepSlots(n) }

// Flush blocks until every submission enqueued before the call has been
// applied to the aggregator. No slot is executed.
func (e *Engine) Flush() error { return e.loop.StepSlots(0) }

// QueueStats reports the ingest queue's current depth and capacity — the
// cheap snapshot admission layers poll on every request, without copying
// the full EngineMetrics.
func (e *Engine) QueueStats() (depth, capacity int) {
	return e.loop.QueueDepth(), e.loop.QueueCap()
}

// timedIngest wraps a queued command so the time the loop spends
// executing it is attributed to the next slot's "ingest" stage.
func (e *Engine) timedIngest(fn func()) func() {
	return func() {
		defer e.ingested(time.Now())
		fn()
	}
}

// ingested attributes the time since start to the next slot's "ingest"
// stage.
func (e *Engine) ingested(start time.Time) { e.ingestNanos.Add(int64(time.Since(start))) }

// Submit validates and submits any query spec from any goroutine and
// returns its subscription handle. The spec is validated and materialized
// on the event-loop goroutine, so a continuous spec's start slot is bound
// to the slot clock at execution time — slots ticking between enqueue and
// execution shift the window instead of silently shortening it. A spec
// rejected by validation (or a world precondition such as region
// monitoring's GP model) closes the handle's stream immediately with the
// error (see QueryHandle.Err); transports that want a synchronous verdict
// call Spec.Validate first.
func (e *Engine) Submit(spec Spec) (*QueryHandle, error) {
	if isNilSpec(spec) {
		return nil, errNilSpec
	}
	id := spec.QueryID()
	h := &QueryHandle{id: id, eng: e, sub: &e.hub.newTopic(id).owner}
	err := e.loop.DoSheddable(func() {
		defer e.ingested(time.Now())
		if e.hub.live(id) {
			h.fail(ErrDuplicateQueryID)
			e.obs.queriesRejected.Inc()
			return
		}
		sq, err := e.agg.Submit(spec)
		if err != nil {
			h.fail(err)
			e.obs.queriesRejected.Inc()
			return
		}
		e.hub.register(h.sub.t, sq.Start, sq.End, time.Now())
		e.obs.queriesSubmitted.Inc()
	}, func() {
		// Shed by the overflow policy before the submission ran (see
		// WithShedOldest): end the never-registered stream so the
		// submitter's consumer observes a terminal verdict, and account
		// the eviction. Runs on whichever goroutine's enqueue caused the
		// shed; h.fail only takes the topic's lock, safe off the loop
		// goroutine.
		h.fail(ErrShed)
		e.obs.queriesShed.Inc()
	})
	if err != nil {
		e.obs.queriesRejected.Inc()
		return nil, err
	}
	return h, nil
}

// fail ends the handle's never-registered stream with err. Safe from any
// goroutine (it only takes the topic's lock); called from the loop
// goroutine for submission failures and from the shedding goroutine for
// evictions.
func (h *QueryHandle) fail(err error) {
	t := h.sub.t
	t.mu.Lock()
	onDone := t.finish(err)
	t.mu.Unlock()
	if onDone != nil {
		onDone()
	}
}

// Watch attaches an additional reader to a live query's event stream at
// its tail: the returned subscription opens with the query's Accepted
// event and then delivers every event published after the attach
// (Subscription.JoinCursor reports the cursor boundary; QueryHandle.Watch
// reads older history from the same log). Watching does not confer
// cancellation rights. Safe from any goroutine; a query that is unknown,
// already finished, or canceled returns ErrUnknownQuery.
func (e *Engine) Watch(id string) (*Subscription, error) {
	return e.hub.watch(id)
}

// onSlot publishes a slot report through the subscription hub and
// books the slot into the engine's registry. dur is the loop's
// authoritative end-to-end slot latency (it covers the aggregator's
// RunSlot; the hub publish below is timed separately). Loop goroutine
// only.
func (e *Engine) onSlot(rep *SlotReport, dur time.Duration) {
	var events map[string][]EventNotification
	if len(rep.Events) > 0 {
		events = make(map[string][]EventNotification, len(rep.Events))
		for _, ev := range rep.Events {
			events[ev.QueryID] = append(events[ev.QueryID], ev)
		}
	}
	pubStart := time.Now()
	st := e.hub.publishSlot(rep, events, pubStart)
	publish := time.Since(pubStart)
	// Ingest work drained since the previous slot, the aggregator's own
	// trace, then the hub fan-out: the slot's full stage trace.
	ingest := time.Duration(e.ingestNanos.Swap(0))
	e.obs.bookSlot(rep, st, dur, ingest, publish)

	if e.log != nil && e.log.Enabled(context.Background(), slog.LevelDebug) {
		attrs := []any{
			"slot", rep.Slot,
			"welfare", rep.Welfare,
			"sensors", rep.SensorsUsed,
			"active", st.active,
			"duration", dur,
			"stage_" + StageIngest, ingest,
		}
		for _, sp := range rep.Stages {
			attrs = append(attrs, "stage_"+sp.Stage, sp.Duration)
		}
		attrs = append(attrs, "stage_"+StagePublish, publish)
		e.log.Debug("slot executed", attrs...)
	}
}

// drain is the Stop-time finalizer: it keeps executing slots while live
// queries remain (bounded by the drain cap), then force-closes whatever
// is left. Loop goroutine only.
func (e *Engine) drain(step func()) {
	for i := 0; i < e.drainSlots && e.hub.liveCount() > 0; i++ {
		step()
	}
	e.hub.closeAll(ErrEngineStopped, time.Now())
}
