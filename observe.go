package ps

import (
	"time"

	"repro/internal/obs"
)

// StageTiming is one named stage of a slot's execution — the span-style
// trace the aggregator records while running a slot (offer gathering,
// selection, commit, ...) plus the engine-level stages wrapped around it
// (ingest drain, hub publish). SlotReport.Stages carries one slot's
// trace; EngineMetrics.SlotStages the accumulation across slots.
type StageTiming = obs.Span

// Canonical stage names, in pipeline order. The unsharded pipeline
// records gather/selection/commit/accounting; the sharded pipeline
// replaces selection with route/shard_select/spanning/reconcile; the
// engine wraps both with ingest and publish.
const (
	StageIngest      = "ingest"       // submissions/cancels drained between slots
	StageMembership  = "membership"   // cluster: fact-TTL sweep, liveness gauges
	StageOfferGather = "offer_gather" // Fleet.Step: collecting sensor offers
	StageRoute       = "route"        // sharded: routing offers to shards
	StageSelection   = "selection"    // unsharded: the full selection pass
	StageShardSelect = "shard_select" // sharded: concurrent per-shard passes
	StageLaneRPC     = "lane_rpc"     // cluster: residual wait on remote partials
	StageGather      = "gather"       // cluster: binding wire partials for the merge
	StageSpanning    = "spanning"     // sharded: cross-shard residual pass
	StageReconcile   = "reconcile"    // sharded: deterministic merge
	StageCommit      = "commit"       // Fleet.Commit: data acquisition
	StageAccounting  = "accounting"   // stats, retirement
	StagePublish     = "publish"      // hub fan-out of the slot report
)

// StageStats is one stage's cumulative timing across executed slots.
type StageStats struct {
	Stage string
	Count int64
	Total time.Duration
	Last  time.Duration
	Max   time.Duration
}

// engineObs bundles the engine's metric handles over one obs.Registry.
// Counters and gauges are dual-written from onSlot (the same place the
// EngineMetrics snapshot is maintained); histograms are observed
// natively where the measurement happens.
type engineObs struct {
	reg *obs.Registry

	slots         *obs.Counter
	slotDuration  *obs.Histogram
	stageDuration *obs.HistogramVec

	welfare     *obs.Gauge // cumulative; a gauge because per-slot welfare is not structurally non-negative
	slotWelfare *obs.Gauge
	payments    *obs.Counter
	cost        *obs.Counter
	sensorsUsed *obs.Counter

	queriesSubmitted *obs.Counter
	queriesRejected  *obs.Counter
	queriesShed      *obs.Counter
	queriesCanceled  *obs.Counter
	queriesActive    *obs.Gauge
	answered         *obs.Counter
	starved          *obs.Counter

	eventsDelivered *obs.Counter

	hubSubscribers *obs.Gauge
	hubLag         *obs.Gauge
	hubOccupancy   *obs.Gauge

	valuationCalls *obs.Counter

	queueDepth *obs.Gauge
	queueCap   *obs.Gauge

	hub hubObs
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

func newEngineObs() *engineObs {
	r := obs.NewRegistry()
	o := &engineObs{
		reg: r,

		slots: r.Counter("ps_slots_total",
			"Time slots executed."),
		slotDuration: r.Histogram("ps_slot_duration_seconds",
			"End-to-end slot execution latency.", nil),
		stageDuration: r.HistogramVec("ps_slot_stage_duration_seconds",
			"Per-stage slot latency breakdown (ingest, offer_gather, selection/shard passes, commit, accounting, publish).",
			nil, "stage"),

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
		queriesActive: r.Gauge("ps_queries_active",
			"Currently live queries."),
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

		valuationCalls: r.Counter("ps_valuation_calls_total",
			"Marginal-valuation evaluations made by the greedy selection core."),

		queueDepth: r.Gauge("ps_ingest_queue_depth",
			"Commands waiting in the engine's bounded ingest queue."),
		queueCap: r.Gauge("ps_ingest_queue_capacity",
			"Capacity of the engine's ingest queue."),
	}
	o.hub = hubObs{
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
	}
	return o
}

// Observability returns the engine's metric registry — every counter,
// gauge and histogram the engine, hub and aggregation layers record.
// The serve layer renders it at GET /metrics (Prometheus text format)
// and registers its own HTTP metrics on it. The returned value is
// shared, not a snapshot; it is safe for concurrent use.
func (e *Engine) Observability() *obs.Registry { return e.obs.reg }

// observeSlot folds one executed slot into the registry and the
// EngineMetrics stage accumulation. stages is the slot's full stage
// list (ingest + aggregator trace + publish); the caller holds no lock.
func (e *Engine) observeSlot(dur time.Duration, rep *SlotReport, st slotDelivery, stages []StageTiming) {
	o := e.obs
	o.slots.Inc()
	o.slotDuration.Observe(dur.Seconds())
	for _, s := range stages {
		o.stageDuration.With(s.Stage).Observe(s.Duration.Seconds())
	}

	o.slotWelfare.Set(rep.Welfare)
	if rep.TotalCost > 0 {
		o.cost.Add(rep.TotalCost)
	}
	if st.payments > 0 {
		o.payments.Add(st.payments)
	}
	o.sensorsUsed.Add(float64(rep.SensorsUsed))
	o.answered.Add(float64(st.answered))
	o.starved.Add(float64(st.starved))
	o.eventsDelivered.Add(float64(st.delivered))
	o.valuationCalls.Add(float64(rep.Selection.ValuationCalls))

	o.queriesActive.Set(float64(st.active))
	o.hubSubscribers.Set(float64(st.subscribers))
	o.hubLag.Set(float64(st.maxLag))
	if st.bufCap > 0 {
		o.hubOccupancy.Set(float64(st.buffered) / float64(st.bufCap))
	} else {
		o.hubOccupancy.Set(0)
	}

	ls := e.loop.Stats()
	o.queueDepth.Set(float64(ls.QueueDepth))
	o.queueCap.Set(float64(ls.QueueCap))
}

// accumulateStages folds a slot's stage trace into the running
// EngineMetrics.SlotStages. Caller holds e.mu.
func (e *Engine) accumulateStages(stages []StageTiming) {
	for _, s := range stages {
		i, ok := e.stageIdx[s.Stage]
		if !ok {
			i = len(e.m.SlotStages)
			e.stageIdx[s.Stage] = i
			e.m.SlotStages = append(e.m.SlotStages, StageStats{Stage: s.Stage})
		}
		ss := &e.m.SlotStages[i]
		ss.Count++
		ss.Total += s.Duration
		ss.Last = s.Duration
		if s.Duration > ss.Max {
			ss.Max = s.Duration
		}
	}
}
