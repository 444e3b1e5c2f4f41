package ps

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// StageTiming is one named stage of a slot's execution — the span-style
// trace the aggregator records while running a slot (offer gathering,
// selection, commit, ...) plus the engine-level stages wrapped around it
// (ingest drain, hub publish). SlotReport.Stages carries one slot's
// trace; EngineMetrics.SlotStages the totals across slots.
type StageTiming = obs.Span

// Canonical stage names, in pipeline order. The unsharded pipeline
// records gather/selection/commit/accounting; the sharded pipeline
// replaces selection with route/shard_select/spanning/reconcile; the
// engine wraps both with ingest and publish.
const (
	StageIngest      = "ingest"       // submissions/cancels drained between slots
	StageMembership  = "membership"   // cluster: lane-liveness sweep, live/suspect gauges
	StageOfferGather = "offer_gather" // Fleet.Step: collecting sensor offers
	StageRoute       = "route"        // sharded: routing offers to shards
	StageSelection   = "selection"    // unsharded: the full selection pass
	StageShardSelect = "shard_select" // sharded: concurrent per-shard passes
	StageLaneRPC     = "lane_rpc"     // cluster: residual wait on remote partials
	StageGather      = "gather"       // cluster: checking the lanes' partials for the merge
	StageSpanning    = "spanning"     // sharded: cross-shard residual pass
	StageReconcile   = "reconcile"    // sharded: deterministic merge
	StageCommit      = "commit"       // Fleet.Commit: data acquisition
	StageAccounting  = "accounting"   // stats, retirement
	StagePublish     = "publish"      // hub fan-out of the slot report
)

// StageStats is one stage's timing across executed slots.
type StageStats struct {
	Stage string        `json:"stage"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Last  time.Duration `json:"last_ns"`
	Max   time.Duration `json:"max_ns"`
}

// engineObs is the engine's one metrics store: every fact that
// accumulates across slots is booked once, in its registry. The loop
// goroutine books each executed slot (bookSlot); lifecycle events book
// where they happen; live state (queue depth and capacity, live
// queries) is read from its owner at each read. Engine.Metrics and the
// Prometheus exposition both read this registry.
type engineObs struct {
	reg *obs.Registry

	slots         *obs.Counter
	lastSlot      *obs.Gauge
	slotDuration  *obs.Histogram
	slotLast      *obs.Gauge
	slotMax       *obs.Gauge
	stageDuration *obs.HistogramVec
	stageLast     *obs.GaugeVec
	stageMax      *obs.GaugeVec

	welfare     *obs.Gauge // cumulative; a gauge because per-slot welfare is not structurally non-negative
	slotWelfare *obs.Gauge
	payments    *obs.Counter
	cost        *obs.Counter
	sensorsUsed *obs.Counter

	queriesSubmitted *obs.Counter
	queriesRejected  *obs.Counter
	queriesShed      *obs.Counter
	queriesCanceled  *obs.Counter
	queriesActive    *obs.GaugeFunc
	answered         *obs.Counter
	starved          *obs.Counter

	eventsDelivered *obs.Counter

	hubSubscribers *obs.Gauge
	hubLag         *obs.Gauge
	hubOccupancy   *obs.Gauge

	selection selectionObs

	queueDepth *obs.GaugeFunc
	queueCap   *obs.GaugeFunc

	shard shardFamilies

	hub hubObs

	// mu guards the two slices below: the loop goroutine appends (and
	// reads them without the lock), Metrics copies them under it.
	mu sync.Mutex
	// stages holds each stage's series in first-seen order, which is the
	// pipeline order.
	stages []stageObs
	// shards holds each shard lane's series, the spanning pass last;
	// empty on an unsharded engine.
	shards []shardObs
}

// hubObs is the slice of engineObs the hub touches directly: histograms
// and counters observed where a reader finds its gap and at lifecycle
// boundaries, under the topic's lock (each observation is a couple of
// atomic ops).
type hubObs struct {
	eventsDropped *obs.Counter
	gapFrames     *obs.Counter
	evictionRun   *obs.Histogram
	firstUpdate   *obs.Histogram
	lifetime      *obs.Histogram
}

// selectionObs books SelectionStats, one counter per field.
type selectionObs struct {
	valuationCalls          *obs.Counter
	serialEquivCalls        *obs.Counter
	lazyReevaluations       *obs.Counter
	submodularityViolations *obs.Counter
	conservationViolations  *obs.Counter
	fallbackRescans         *obs.Counter
	geomCacheHits           *obs.Counter
	geomCacheLookups        *obs.Counter
	posteriorAppends        *obs.Counter
	posteriorRebuilds       *obs.Counter
}

func (s *selectionObs) book(st SelectionStats) {
	s.valuationCalls.Add(float64(st.ValuationCalls))
	s.serialEquivCalls.Add(float64(st.SerialEquivCalls))
	s.lazyReevaluations.Add(float64(st.LazyReevaluations))
	s.submodularityViolations.Add(float64(st.SubmodularityViolations))
	s.conservationViolations.Add(float64(st.ConservationViolations))
	s.fallbackRescans.Add(float64(st.FallbackRescans))
	s.geomCacheHits.Add(float64(st.GeomCacheHits))
	s.geomCacheLookups.Add(float64(st.GeomCacheLookups))
	s.posteriorAppends.Add(float64(st.PosteriorAppends))
	s.posteriorRebuilds.Add(float64(st.PosteriorRebuilds))
}

func (s *selectionObs) read() SelectionStats {
	return SelectionStats{
		ValuationCalls:          int64(s.valuationCalls.Value()),
		SerialEquivCalls:        int64(s.serialEquivCalls.Value()),
		LazyReevaluations:       int64(s.lazyReevaluations.Value()),
		SubmodularityViolations: int64(s.submodularityViolations.Value()),
		ConservationViolations:  int64(s.conservationViolations.Value()),
		FallbackRescans:         int64(s.fallbackRescans.Value()),
		GeomCacheHits:           int64(s.geomCacheHits.Value()),
		GeomCacheLookups:        int64(s.geomCacheLookups.Value()),
		PosteriorAppends:        int64(s.posteriorAppends.Value()),
		PosteriorRebuilds:       int64(s.posteriorRebuilds.Value()),
	}
}

// stageObs is one pipeline stage's series, bound once.
type stageObs struct {
	name      string
	duration  *obs.Histogram
	last, max *obs.Gauge
}

// shardFamilies are the shard-labelled families of the per-shard
// breakdown; shardObs binds one lane's children.
type shardFamilies struct {
	offers, queries, sensorsUsed, selectSeconds, stepSeconds *obs.CounterVec
	welfare                                                  *obs.GaugeVec

	valuationCalls, serialEquivCalls, lazyReevaluations, submodularityViolations,
	conservationViolations, fallbackRescans, geomCacheHits, geomCacheLookups,
	posteriorAppends, posteriorRebuilds *obs.CounterVec
}

// shardObs is one shard lane's series (or the spanning pass's), bound
// once when the engine sees its first sharded slot.
type shardObs struct {
	shard    int
	spanning bool

	offers, queries, sensorsUsed, selectSeconds, stepSeconds *obs.Counter
	welfare                                                  *obs.Gauge
	selection                                                selectionObs
}

func (f *shardFamilies) bind(s ShardStats) shardObs {
	label := strconv.Itoa(s.Shard)
	if s.Spanning {
		label = "spanning"
	}
	return shardObs{
		shard:         s.Shard,
		spanning:      s.Spanning,
		offers:        f.offers.With(label),
		queries:       f.queries.With(label),
		sensorsUsed:   f.sensorsUsed.With(label),
		selectSeconds: f.selectSeconds.With(label),
		stepSeconds:   f.stepSeconds.With(label),
		welfare:       f.welfare.With(label),
		selection: selectionObs{
			valuationCalls:          f.valuationCalls.With(label),
			serialEquivCalls:        f.serialEquivCalls.With(label),
			lazyReevaluations:       f.lazyReevaluations.With(label),
			submodularityViolations: f.submodularityViolations.With(label),
			conservationViolations:  f.conservationViolations.With(label),
			fallbackRescans:         f.fallbackRescans.With(label),
			geomCacheHits:           f.geomCacheHits.With(label),
			geomCacheLookups:        f.geomCacheLookups.With(label),
			posteriorAppends:        f.posteriorAppends.With(label),
			posteriorRebuilds:       f.posteriorRebuilds.With(label),
		},
	}
}

func (s *shardObs) book(st ShardStats) {
	s.offers.Add(float64(st.Offers))
	s.queries.Add(float64(st.Queries))
	s.sensorsUsed.Add(float64(st.SensorsUsed))
	s.welfare.Add(st.Welfare)
	s.selectSeconds.Add(st.SelectMs / 1e3)
	s.stepSeconds.Add(st.StepMs / 1e3)
	s.selection.book(st.Selection)
}

func (s *shardObs) read() ShardStats {
	return ShardStats{
		Shard:       s.shard,
		Spanning:    s.spanning,
		Offers:      int(s.offers.Value()),
		Queries:     int(s.queries.Value()),
		SensorsUsed: int(s.sensorsUsed.Value()),
		Welfare:     s.welfare.Value(),
		SelectMs:    s.selectSeconds.Value() * 1e3,
		StepMs:      s.stepSeconds.Value() * 1e3,
		Selection:   s.selection.read(),
	}
}

// newEngineObs registers the engine's families. live, depth and capacity
// are read at each read of ps_queries_active, ps_ingest_queue_depth and
// ps_ingest_queue_capacity.
func newEngineObs(live, depth, capacity func() int) *engineObs {
	r := obs.NewRegistry()
	gaugeOf := func(f func() int) func() float64 { return func() float64 { return float64(f()) } }
	return &engineObs{
		reg: r,

		slots: r.Counter("ps_slots_total",
			"Time slots executed."),
		lastSlot: r.Gauge("ps_last_slot",
			"Number of the last executed slot."),
		slotDuration: r.Histogram("ps_slot_duration_seconds",
			"End-to-end slot execution latency.", nil),
		slotLast: r.Gauge("ps_slot_last_duration_seconds",
			"Execution latency of the last executed slot."),
		slotMax: r.Gauge("ps_slot_max_duration_seconds",
			"Largest slot execution latency so far."),
		stageDuration: r.HistogramVec("ps_slot_stage_duration_seconds",
			"Per-stage slot latency breakdown (ingest, offer_gather, selection/shard passes, commit, accounting, publish).",
			nil, "stage"),
		stageLast: r.GaugeVec("ps_slot_stage_last_duration_seconds",
			"Each stage's latency in the last executed slot.", "stage"),
		stageMax: r.GaugeVec("ps_slot_stage_max_duration_seconds",
			"Each stage's largest latency so far.", "stage"),

		welfare: r.Gauge("ps_welfare",
			"Cumulative social welfare over all executed slots."),
		slotWelfare: r.Gauge("ps_slot_welfare",
			"Social welfare of the last executed slot."),
		payments: r.Counter("ps_payments_total",
			"Cumulative payments collected from queries."),
		cost: r.Counter("ps_cost_total",
			"Cumulative cost of acquired sensor readings."),
		sensorsUsed: r.Counter("ps_sensors_used_total",
			"Sensor readings acquired over all slots."),

		queriesSubmitted: r.Counter("ps_queries_submitted_total",
			"Queries that became live."),
		queriesRejected: r.Counter("ps_queries_rejected_total",
			"Submissions rejected before going live (validation, duplicate ID, queue overflow)."),
		queriesShed: r.Counter("ps_shed_total",
			"Queued submissions evicted by the shed-oldest overflow policy to admit newer work."),
		queriesCanceled: r.Counter("ps_queries_canceled_total",
			"Live queries withdrawn by their issuer."),
		queriesActive: r.GaugeFunc("ps_queries_active",
			"Currently live queries.", gaugeOf(live)),
		answered: r.Counter("ps_results_answered_total",
			"Per-(query, slot) results delivered with value or a satisfied sample."),
		starved: r.Counter("ps_results_starved_total",
			"Per-(query, slot) results delivered with nothing obtained."),

		eventsDelivered: r.Counter("ps_events_delivered_total",
			"Events published, times the readers attached at each publish."),

		hubSubscribers: r.Gauge("ps_hub_subscribers",
			"Readers attached to the event logs of all live queries."),
		hubLag: r.Gauge("ps_hub_subscriber_lag_events",
			"Largest cursor lag — events between a reader and its log's tail — observed at the last slot publish."),
		hubOccupancy: r.Gauge("ps_hub_buffer_occupancy_ratio",
			"Retained events still unread across all readers over what their logs may retain, at the last slot publish."),

		selection: selectionObs{
			valuationCalls: r.Counter("ps_valuation_calls_total",
				"Marginal-valuation evaluations made by the greedy selection core."),
			serialEquivCalls: r.Counter("ps_serial_equiv_calls_total",
				"Marginal-valuation evaluations an exhaustive scan would have made on the same slots."),
			lazyReevaluations: r.Counter("ps_lazy_reevaluations_total",
				"Lazy-heap candidates popped stale and re-evaluated."),
			submodularityViolations: r.Counter("ps_submodularity_violations_total",
				"Re-evaluations whose marginal gain grew (non-submodular valuations)."),
			conservationViolations: r.Counter("ps_conservation_violations_total",
				"Failed Eq. 11 checks on published payments; must read 0."),
			fallbackRescans: r.Counter("ps_fallback_rescans_total",
				"Selection rounds rescanned exhaustively after a submodularity violation."),
			geomCacheHits: r.Counter("ps_geom_cache_hits_total",
				"Selection steps served from a prebuilt sensor geometry mask."),
			geomCacheLookups: r.Counter("ps_geom_cache_lookups_total",
				"Selection steps that used a sensor geometry mask, builds included."),
			posteriorAppends: r.Counter("ps_posterior_appends_total",
				"GP observations folded into a region-monitoring posterior by rank-1 update."),
			posteriorRebuilds: r.Counter("ps_posterior_rebuilds_total",
				"GP observations replayed by a from-scratch posterior recompute."),
		},

		queueDepth: r.GaugeFunc("ps_ingest_queue_depth",
			"Commands waiting in the engine's bounded ingest queue.", gaugeOf(depth)),
		queueCap: r.GaugeFunc("ps_ingest_queue_capacity",
			"Capacity of the engine's ingest queue.", gaugeOf(capacity)),

		shard: shardFamilies{
			offers: r.CounterVec("ps_shard_offers_total",
				"Sensor offers routed to each shard lane.", "shard"),
			queries: r.CounterVec("ps_shard_queries_total",
				"Queries each shard lane scheduled, summed over slots.", "shard"),
			sensorsUsed: r.CounterVec("ps_shard_sensors_used_total",
				"Sensors each shard lane selected.", "shard"),
			selectSeconds: r.CounterVec("ps_shard_select_seconds_total",
				"Wall time of each shard lane's selection passes.", "shard"),
			stepSeconds: r.CounterVec("ps_shard_step_seconds_total",
				"Wall time remote shard nodes spent stepping their world replicas.", "shard"),
			welfare: r.GaugeVec("ps_shard_welfare",
				"Cumulative social welfare of each shard lane.", "shard"),
			valuationCalls: r.CounterVec("ps_shard_valuation_calls_total",
				"Marginal-valuation evaluations of each shard lane.", "shard"),
			serialEquivCalls: r.CounterVec("ps_shard_serial_equiv_calls_total",
				"Evaluations an exhaustive scan would have made in each shard lane.", "shard"),
			lazyReevaluations: r.CounterVec("ps_shard_lazy_reevaluations_total",
				"Lazy-heap re-evaluations of each shard lane.", "shard"),
			submodularityViolations: r.CounterVec("ps_shard_submodularity_violations_total",
				"Submodularity violations seen by each shard lane.", "shard"),
			conservationViolations: r.CounterVec("ps_shard_conservation_violations_total",
				"Failed Eq. 11 checks in each shard lane; must read 0.", "shard"),
			fallbackRescans: r.CounterVec("ps_shard_fallback_rescans_total",
				"Exhaustive fallback rescans of each shard lane.", "shard"),
			geomCacheHits: r.CounterVec("ps_shard_geom_cache_hits_total",
				"Geometry-mask hits of each shard lane.", "shard"),
			geomCacheLookups: r.CounterVec("ps_shard_geom_cache_lookups_total",
				"Geometry-mask lookups of each shard lane.", "shard"),
			posteriorAppends: r.CounterVec("ps_shard_posterior_appends_total",
				"Rank-1 GP posterior appends of each shard lane.", "shard"),
			posteriorRebuilds: r.CounterVec("ps_shard_posterior_rebuilds_total",
				"GP observations replayed by posterior rebuilds in each shard lane.", "shard"),
		},

		hub: hubObs{
			eventsDropped: r.Counter("ps_events_dropped_total",
				"Events a reader lost because its query's log evicted them first."),
			gapFrames: r.Counter("ps_hub_gap_frames_total",
				"Gap frames handed to readers that fell behind their log."),
			evictionRun: r.Histogram("ps_hub_eviction_run_size",
				"Events summarized by one Gap frame (size of each eviction run).", obs.SizeBuckets),
			firstUpdate: r.Histogram("ps_query_time_to_first_update_seconds",
				"Latency from query acceptance to its first slot update.", nil),
			lifetime: r.Histogram("ps_query_lifetime_seconds",
				"Latency from query acceptance to its terminal event (final or canceled).", nil),
		},
	}
}

// Observability returns the engine's metric registry — every counter,
// gauge and histogram the engine, hub and aggregation layers record.
// The serve layer renders it at GET /metrics (Prometheus text format)
// and registers its own HTTP metrics on it. The returned value is
// shared, not a snapshot; it is safe for concurrent use.
func (e *Engine) Observability() *obs.Registry { return e.obs.reg }

// bookSlot books one executed slot: dur is the loop's end-to-end slot
// latency, ingest and publish the engine stages wrapped around the
// aggregator's own trace. Loop goroutine only; a warm slot allocates
// nothing.
func (o *engineObs) bookSlot(rep *SlotReport, st slotDelivery, dur, ingest, publish time.Duration) {
	o.slots.Inc()
	o.lastSlot.Set(float64(rep.Slot))
	o.slotDuration.Observe(dur.Seconds())
	setLastMax(o.slotLast, o.slotMax, dur)
	o.bookStage(StageIngest, ingest)
	for _, s := range rep.Stages {
		o.bookStage(s.Stage, s.Duration)
	}
	o.bookStage(StagePublish, publish)

	o.welfare.Add(rep.Welfare)
	o.slotWelfare.Set(rep.Welfare)
	o.cost.Add(rep.TotalCost)
	o.payments.Add(st.payments)
	o.sensorsUsed.Add(float64(rep.SensorsUsed))
	o.answered.Add(float64(st.answered))
	o.starved.Add(float64(st.starved))
	o.eventsDelivered.Add(float64(st.delivered))
	o.selection.book(rep.Selection)
	if len(o.shards) != len(rep.Shards) {
		o.bindShards(rep.Shards)
	}
	for i, s := range rep.Shards {
		o.shards[i].book(s)
	}

	o.hubSubscribers.Set(float64(st.subscribers))
	o.hubLag.Set(float64(st.maxLag))
	if st.bufCap > 0 {
		o.hubOccupancy.Set(float64(st.buffered) / float64(st.bufCap))
	} else {
		o.hubOccupancy.Set(0)
	}
}

// bookStage books one stage's duration, binding the stage's series the
// first time it is seen.
func (o *engineObs) bookStage(name string, d time.Duration) {
	i := 0
	for i < len(o.stages) && o.stages[i].name != name {
		i++
	}
	if i == len(o.stages) {
		o.mu.Lock()
		o.stages = append(o.stages, stageObs{
			name:     name,
			duration: o.stageDuration.With(name),
			last:     o.stageLast.With(name),
			max:      o.stageMax.With(name),
		})
		o.mu.Unlock()
	}
	s := &o.stages[i]
	s.duration.Observe(d.Seconds())
	setLastMax(s.last, s.max, d)
}

// bindShards binds one set of series per entry of a sharded slot's
// breakdown.
func (o *engineObs) bindShards(shards []ShardStats) {
	bound := make([]shardObs, len(shards))
	for i, s := range shards {
		bound[i] = o.shard.bind(s)
	}
	o.mu.Lock()
	o.shards = bound
	o.mu.Unlock()
}

// setLastMax records d as the last value and raises the maximum to it.
// The gauges hold seconds; durationOf reads them back to the nanosecond.
func setLastMax(last, max *obs.Gauge, d time.Duration) {
	s := d.Seconds()
	last.Set(s)
	if s > max.Value() {
		max.Set(s)
	}
}

// durationOf converts seconds booked from a time.Duration back to it:
// below 2^51 ns (26 days) the float round trip is exact after rounding.
func durationOf(seconds float64) time.Duration {
	return time.Duration(math.Round(seconds * 1e9))
}

// Metrics returns a snapshot of the engine-wide counters, read from the
// engine's registry.
func (e *Engine) Metrics() EngineMetrics {
	o := e.obs
	sel := o.selection.read()
	slots := int(o.slots.Value())
	m := EngineMetrics{
		Slots:                   slots,
		LastSlot:                int(o.lastSlot.Value()),
		TotalWelfare:            o.welfare.Value(),
		LastWelfare:             o.slotWelfare.Value(),
		TotalPayments:           o.payments.Value(),
		TotalCost:               o.cost.Value(),
		SensorsUsed:             int64(o.sensorsUsed.Value()),
		QueriesSubmitted:        int64(o.queriesSubmitted.Value()),
		QueriesRejected:         int64(o.queriesRejected.Value()),
		QueriesShed:             int64(o.queriesShed.Value()),
		QueriesCanceled:         int64(o.queriesCanceled.Value()),
		ActiveQueries:           int(o.queriesActive.Value()),
		Answered:                int64(o.answered.Value()),
		Starved:                 int64(o.starved.Value()),
		EventsDelivered:         int64(o.eventsDelivered.Value()),
		EventsDropped:           int64(o.hub.eventsDropped.Value()),
		GapEvents:               int64(o.hub.gapFrames.Value()),
		ValuationCalls:          sel.ValuationCalls,
		ValuationCallsSaved:     sel.SavedCalls(),
		LazyReevaluations:       sel.LazyReevaluations,
		SubmodularityViolations: sel.SubmodularityViolations,
		ConservationViolations:  sel.ConservationViolations,
		FallbackRescans:         sel.FallbackRescans,
		GeomCacheHits:           sel.GeomCacheHits,
		GeomCacheLookups:        sel.GeomCacheLookups,
		PosteriorAppends:        sel.PosteriorAppends,
		PosteriorRebuilds:       sel.PosteriorRebuilds,
		QueueDepth:              int(o.queueDepth.Value()),
		QueueCap:                int(o.queueCap.Value()),
		SlotLatencyLast:         durationOf(o.slotLast.Value()),
		SlotLatencyMax:          durationOf(o.slotMax.Value()),
	}
	if slots > 0 {
		m.SlotLatencyAvg = durationOf(o.slotDuration.Sum()) / time.Duration(slots)
	}
	o.mu.Lock()
	stages, shards := o.stages, o.shards
	o.mu.Unlock()
	for _, s := range stages {
		m.SlotStages = append(m.SlotStages, StageStats{
			Stage: s.name,
			Count: int64(s.duration.Count()),
			Total: durationOf(s.duration.Sum()),
			Last:  durationOf(s.last.Value()),
			Max:   durationOf(s.max.Value()),
		})
	}
	for i := range shards {
		m.Shards = append(m.Shards, shards[i].read())
	}
	return m
}
