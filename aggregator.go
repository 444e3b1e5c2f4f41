package ps

import (
	"iter"
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// Aggregator is the server of §2: it collects queries, and once per time
// slot gathers the sensors' offers (location + price), selects the
// sensors that maximize social welfare, shares them across queries,
// splits costs proportionately and returns what each query obtained.
type Aggregator struct {
	world    *World
	sched    Scheduling
	baseline bool
	greedy   core.GreedyConfig
	selStats core.SelectionStats

	points    []*PointQuery
	aggs      []*AggregateQuery
	extra     []query.Query
	locMon    []*LocationMonitoringQuery
	regMon    []*RegionMonitoringQuery
	events    []*EventDetectionQuery
	regEvents []*RegionEventQuery
}

// slotRunner is the narrow seam between the batch scheduling core and the
// streaming Engine: everything the engine's event loop needs from the
// aggregator is the ability to execute the next slot and to name it. The
// engine wraps an Aggregator behind this interface; richer access (query
// submission, selection stats) stays on the concrete type and is confined to
// the loop goroutine.
type slotRunner interface {
	RunSlot() *SlotReport
	NextSlot() int
}

var _ slotRunner = (*Aggregator)(nil)

// CancelQuery withdraws a pending or continuous query by ID before the
// next slot executes. It reports whether anything was removed. One-shot
// queries already consumed by a RunSlot are gone and return false.
func (a *Aggregator) CancelQuery(id string) bool {
	before := len(a.points) + len(a.aggs) + len(a.extra) + len(a.locMon) +
		len(a.regMon) + len(a.events) + len(a.regEvents)
	a.points = slices.DeleteFunc(a.points, func(q *PointQuery) bool { return q.QID() == id })
	a.aggs = slices.DeleteFunc(a.aggs, func(q *AggregateQuery) bool { return q.QID() == id })
	a.extra = slices.DeleteFunc(a.extra, func(q query.Query) bool { return q.QID() == id })
	a.locMon = slices.DeleteFunc(a.locMon, func(q *LocationMonitoringQuery) bool { return q.ID == id })
	a.regMon = slices.DeleteFunc(a.regMon, func(q *RegionMonitoringQuery) bool { return q.ID == id })
	a.events = slices.DeleteFunc(a.events, func(q *EventDetectionQuery) bool { return q.ID == id })
	a.regEvents = slices.DeleteFunc(a.regEvents, func(q *RegionEventQuery) bool { return q.ID == id })
	return len(a.points)+len(a.aggs)+len(a.extra)+len(a.locMon)+
		len(a.regMon)+len(a.events)+len(a.regEvents) != before
}

// Option customizes an Aggregator.
type Option func(*Aggregator)

// WithScheduling selects the point-scheduling policy (default
// SchedulingOptimal).
func WithScheduling(s Scheduling) Option {
	return func(a *Aggregator) { a.sched = s }
}

// WithBaselinePipeline makes the whole acquisition pipeline use the
// evaluation's baseline algorithms (sequential execution with data
// buffering). Useful for comparisons.
func WithBaselinePipeline() Option {
	return func(a *Aggregator) { a.baseline = true }
}

// WithGreedyStrategy selects the candidate-evaluation strategy of the
// greedy selection core (default StrategyAuto). Results are bit-identical
// across strategies; only the per-slot work differs.
func WithGreedyStrategy(s Strategy) Option {
	return func(a *Aggregator) { a.greedy.Strategy = s }
}

// SelectionStats returns the cumulative selection instrumentation over
// all executed slots: valuation calls made vs the exhaustive-scan
// equivalent, lazy-heap re-evaluations and non-submodular fallbacks.
func (a *Aggregator) SelectionStats() SelectionStats { return a.selStats }

// NewAggregator creates an aggregator over a world.
func NewAggregator(world *World, opts ...Option) *Aggregator {
	a := &Aggregator{world: world}
	for _, o := range opts {
		o(a)
	}
	return a
}

// NextSlot returns the slot number the next RunSlot call will execute.
func (a *Aggregator) NextSlot() int { return a.world.Fleet.Slot() + 1 }

// EventNotification reports one event-detection evaluation.
type EventNotification struct {
	QueryID    string
	Slot       int
	Detected   bool
	Confidence float64
	// Reading is the quality-weighted mean of the fused readings.
	Reading float64
}

// SlotReport summarizes one executed time slot.
type SlotReport struct {
	Slot        int
	Welfare     float64
	TotalCost   float64
	SensorsUsed int
	// Offers is how many sensor offers (location + price) the slot had to
	// choose from.
	Offers int
	// Per-type values obtained this slot.
	PointValue  float64
	AggValue    float64
	LocMonValue float64
	RegMonValue float64
	ExtraValue  float64
	// Events lists event-detection evaluations of this slot.
	Events []EventNotification
	// Selection instruments the slot's greedy sensor selection. Pipelines
	// that bypass the greedy core leave it zero, except that the optimal,
	// local-search and egalitarian point policies count
	// ConservationViolations.
	Selection SelectionStats
	// Shards is the per-shard breakdown when the slot ran on a
	// ShardedAggregator (the last entry is the spanning pass); nil on the
	// unsharded pipeline.
	Shards []ShardStats
	// Degraded lists lanes whose partial could not be merged this slot —
	// in a cluster, shards whose node died or answered with a stale
	// epoch. Queries resident on a degraded lane got no outcome; the
	// errors wrap ps.ErrNodeUnavailable/ps.ErrStaleEpoch where the cause
	// is node loss or fencing, so errors.Is distinguishes them.
	Degraded []LaneError
	// Stages is the slot's per-stage latency trace in pipeline order —
	// offer_gather/selection/commit/accounting on the unsharded pipeline,
	// with the sharded pipeline's route/shard_select/spanning/reconcile
	// replacing selection. The engine prepends ingest and appends publish
	// before accumulating into EngineMetrics.SlotStages.
	Stages []StageTiming

	values   map[string]float64
	payments map[string]float64
	// answered marks continuous queries whose probe was satisfied this
	// slot even when the valuation delta rounds to zero (e.g. a sample
	// that repeats an already-achieved quality still counts as served).
	answered map[string]bool
}

// Answered reports whether the query was served this slot: it obtained
// positive value, or (for continuous queries) a satisfied sample.
func (r *SlotReport) Answered(id string) bool { return r.values[id] > 0 || r.answered[id] }

// Value returns the valuation the query obtained this slot.
func (r *SlotReport) Value(id string) float64 { return r.values[id] }

// Payment returns what the query paid this slot.
func (r *SlotReport) Payment(id string) float64 { return r.payments[id] }

// QueryOutcome is one query's outcome in one slot, as enumerated by
// SlotReport.Outcomes.
type QueryOutcome struct {
	// Answered reports whether the query was served this slot (positive
	// value, or a satisfied continuous sample).
	Answered bool
	// Value is the valuation obtained, Payment what was paid.
	Value   float64
	Payment float64
}

// Outcomes iterates over every query with a recorded outcome this slot
// (id -> answered/value/payment), in unspecified order. It is the bulk
// companion of the per-id Answered/Value/Payment getters — each yielded
// outcome is exactly what those getters return for the id — so callers
// can enumerate a slot's results without knowing the live query IDs.
func (r *SlotReport) Outcomes() iter.Seq2[string, QueryOutcome] {
	return func(yield func(string, QueryOutcome) bool) {
		seen := make(map[string]bool, len(r.values))
		emit := func(id string) bool {
			if seen[id] {
				return true
			}
			seen[id] = true
			return yield(id, QueryOutcome{
				Answered: r.Answered(id),
				Value:    r.Value(id),
				Payment:  r.Payment(id),
			})
		}
		for id := range r.values {
			if !emit(id) {
				return
			}
		}
		for id := range r.payments {
			if !emit(id) {
				return
			}
		}
		for id := range r.answered {
			if !emit(id) {
				return
			}
		}
	}
}

// RunSlot advances the world one time slot and executes the pending and
// continuous queries: pure point workloads use the configured scheduling
// policy directly (§3.1); anything else goes through the Algorithm 5
// query-mix pipeline. Selected sensors are committed (lifetime, privacy
// history), one-shot queries are consumed, and expired continuous queries
// are retired.
func (a *Aggregator) RunSlot() *SlotReport {
	tr := obs.StartTrace()
	offers := a.world.Fleet.Step()
	t := a.world.Fleet.Slot()
	tr.Mark(StageOfferGather)
	ex := a.executeSlot(t, offers, false)
	tr.Mark(StageSelection)
	a.world.Fleet.Commit(ex.selected)
	tr.Mark(StageCommit)
	a.selStats.Accumulate(ex.report.Selection)
	a.retire(t)
	tr.Mark(StageAccounting)
	ex.report.Stages = tr.Spans()
	return ex.report
}

// slotExec is one executed selection pass over a batch of offers: the
// report fragment plus what the caller still has to do afterwards — data
// acquisition (Fleet.Commit on selected) and accounting (stats). It is
// the seam between the single-world RunSlot and the sharded execution
// layer, which runs one executeSlot per shard and reconciles.
type slotExec struct {
	report   *SlotReport
	selected []*sensornet.Sensor
	// queries counts the queries this pass scheduled (user one-shots,
	// active continuous queries and their generated probes).
	queries int
	mix     *core.MixSlotResult // nil on the point-scheduling path
}

// executeSlot runs slot t's selection over the given offers without
// touching the fleet, the stats or the pending-query lists. forceMix
// routes even pure-point slots through the Algorithm 5 greedy pipeline —
// the sharded layer needs every shard on the same (decomposable) path.
func (a *Aggregator) executeSlot(t int, offers []core.Offer, forceMix bool) *slotExec {
	report := &SlotReport{
		Slot:     t,
		Offers:   len(offers),
		values:   make(map[string]float64),
		payments: make(map[string]float64),
		answered: make(map[string]bool),
	}
	ex := &slotExec{report: report}

	// Materialize event-detection probes.
	probes := make(map[string]*EventDetectionQuery)
	regProbes := make(map[string]*RegionEventQuery)
	extra := append([]query.Query(nil), a.extra...)
	for _, e := range a.events {
		if mp, ok := e.CreatePointQuery(t); ok {
			extra = append(extra, mp)
			probes[mp.QID()] = e
		}
	}
	for _, e := range a.regEvents {
		if agg, ok := e.CreateProbe(t); ok {
			extra = append(extra, agg)
			regProbes[agg.QID()] = e
		}
	}

	activeLM := activeLocMon(a.locMon, t)
	activeRM := activeRegMon(a.regMon, t)
	ex.queries = len(a.points) + len(a.aggs) + len(extra) + len(activeLM) + len(activeRM)
	pureMix := forceMix || len(a.aggs) > 0 || len(extra) > 0 ||
		len(activeLM) > 0 || len(activeRM) > 0

	if !pureMix {
		// Point-only slot: honor the configured scheduling policy.
		res := a.sched.solver(a.greedy)(a.points, offers)
		ex.selected = res.Selected
		report.Welfare = res.Welfare()
		report.TotalCost = res.TotalCost
		report.SensorsUsed = len(res.Selected)
		report.PointValue = res.TotalValue
		report.Selection = res.Stats
		for qid, o := range res.Outcomes {
			report.values[qid] = o.Value
			report.payments[qid] = o.Payment
		}
	} else {
		mq := core.MixQueries{
			Aggregates: a.aggs,
			Points:     a.points,
			LocMon:     a.locMon,
			RegMon:     a.regMon,
			Extra:      extra,
		}
		var res *core.MixSlotResult
		if a.baseline {
			res = core.RunMixSlotBaseline(t, mq, offers)
		} else {
			res = core.RunMixSlotWith(t, mq, offers, a.greedy)
		}
		ex.mix = res
		ex.selected = res.Multi.Selected
		report.Selection = res.Multi.Stats
		report.Welfare = res.Welfare()
		report.TotalCost = res.TotalCost
		report.SensorsUsed = len(res.Multi.Selected)
		report.PointValue = res.PointValue
		report.AggValue = res.AggValue
		report.LocMonValue = res.LocMonValue
		report.RegMonValue = res.RegMonValue
		report.ExtraValue = res.ExtraValue
		// Record user-submitted one-shots only: the probe queries the
		// pipeline generates for continuous parents carry derived IDs
		// (query.PointID), and their value/payments are projected onto
		// the parent ID below — copying them here too would make
		// Outcomes() double-count continuous work under phantom IDs.
		recordUser := func(qid string) {
			if out := res.Multi.Outcomes[qid]; out != nil && out.Value > 0 {
				report.values[qid] = out.Value
				report.payments[qid] = out.TotalPayment()
			}
		}
		for _, q := range a.points {
			recordUser(q.QID())
		}
		for _, q := range a.aggs {
			recordUser(q.QID())
		}
		for _, q := range a.extra {
			recordUser(q.QID())
		}
		for qid, o := range res.PointOutcomes {
			report.values[qid] = o.Value
			report.payments[qid] = o.Payment
		}
		// Continuous queries report under their own ID: Algorithm 5's
		// generated probes carry derived IDs, so without this projection
		// Answered/Value/Payment would never see monitoring results.
		for qid, co := range res.Continuous {
			if co.ValueDelta > 0 {
				report.values[qid] = co.ValueDelta
			}
			if co.Payment > 0 {
				report.payments[qid] += co.Payment
			}
			if co.Satisfied {
				report.answered[qid] = true
			}
		}

		// Evaluate region-event probes: readings plus achieved coverage.
		// Sorted probe order: several probes can project onto one parent
		// query ID, so the += below must run in a reproducible order for
		// SlotReports to stay bit-identical across strategies (floatorder).
		for _, pid := range slices.Sorted(maps.Keys(regProbes)) {
			e := regProbes[pid]
			out := res.Multi.Outcomes[pid]
			if out == nil || len(out.Sensors) == 0 {
				continue
			}
			if out.Value > 0 {
				report.values[e.ID] += out.Value
				report.payments[e.ID] += out.TotalPayment()
			}
			var vals, thetas []float64
			var centers []Point
			for _, s := range out.Sensors {
				th := (1 - s.Inaccuracy) * s.Trust
				if th <= 0 {
					continue
				}
				vals = append(vals, a.world.ReadingAt(s.Pos, t))
				thetas = append(thetas, th)
				centers = append(centers, s.Pos)
			}
			coverage := a.world.Grid.CoverageFraction(e.Region, centers, e.SensingRange)
			detected, conf, avg := e.Evaluate(vals, thetas, coverage)
			report.Events = append(report.Events, EventNotification{
				QueryID: e.ID, Slot: t, Detected: detected, Confidence: conf, Reading: avg,
			})
		}

		// Evaluate event probes on the acquired readings. Sorted for the
		// same reason as the region-event loop above.
		for _, pid := range slices.Sorted(maps.Keys(probes)) {
			e := probes[pid]
			out := res.Multi.Outcomes[pid]
			if out == nil || len(out.Sensors) == 0 {
				continue
			}
			if out.Value > 0 {
				report.values[e.ID] += out.Value
				report.payments[e.ID] += out.TotalPayment()
			}
			var vals, thetas []float64
			var wsum, wv float64
			for _, s := range out.Sensors {
				th := s.Quality(e.Loc, e.DMax)
				if th <= 0 {
					continue
				}
				v := a.world.ReadingAt(s.Pos, t)
				vals = append(vals, v)
				thetas = append(thetas, th)
				wsum += th
				wv += th * v
			}
			detected, conf := e.Evaluate(vals, thetas)
			n := EventNotification{QueryID: e.ID, Slot: t, Detected: detected, Confidence: conf}
			if wsum > 0 {
				n.Reading = wv / wsum
			}
			report.Events = append(report.Events, n)
		}
	}

	// The probe maps above iterate in map order; fix the event order so
	// reports are deterministic (and so the sharded merge has a canonical
	// order to preserve). Each event query emits at most one notification
	// per slot, so sorting by query ID is a total order.
	slices.SortFunc(report.Events, func(a, b EventNotification) int {
		return strings.Compare(a.QueryID, b.QueryID)
	})
	return ex
}

// pendingWork reports whether the aggregator has anything to schedule at
// slot t: pending one-shots, or continuous queries active at t. The
// sharded layer uses it to skip the spanning pass on slots with no
// cross-shard demand.
func (a *Aggregator) pendingWork(t int) bool {
	if len(a.points) > 0 || len(a.aggs) > 0 || len(a.extra) > 0 {
		return true
	}
	if len(activeLocMon(a.locMon, t)) > 0 || len(activeRegMon(a.regMon, t)) > 0 {
		return true
	}
	for _, e := range a.events {
		if e.Active(t) {
			return true
		}
	}
	for _, e := range a.regEvents {
		if e.Active(t) {
			return true
		}
	}
	return false
}

// retire consumes the slot's one-shot queries and drops expired
// continuous queries after slot t executed.
func (a *Aggregator) retire(t int) {
	a.points = nil
	a.aggs = nil
	a.extra = nil
	a.locMon = pruneLocMon(a.locMon, t)
	a.regMon = pruneRegMon(a.regMon, t)
	a.events = pruneEvents(a.events, t)
	a.regEvents = pruneRegionEvents(a.regEvents, t)
}

func activeLocMon(qs []*LocationMonitoringQuery, t int) []*LocationMonitoringQuery {
	var out []*LocationMonitoringQuery
	for _, q := range qs {
		if q.Active(t) {
			out = append(out, q)
		}
	}
	return out
}

func activeRegMon(qs []*RegionMonitoringQuery, t int) []*RegionMonitoringQuery {
	var out []*RegionMonitoringQuery
	for _, q := range qs {
		if q.Active(t) {
			out = append(out, q)
		}
	}
	return out
}

func pruneLocMon(qs []*LocationMonitoringQuery, t int) []*LocationMonitoringQuery {
	kept := qs[:0]
	for _, q := range qs {
		if q.End > t {
			kept = append(kept, q)
		}
	}
	return kept
}

func pruneRegMon(qs []*RegionMonitoringQuery, t int) []*RegionMonitoringQuery {
	kept := qs[:0]
	for _, q := range qs {
		if q.End > t {
			kept = append(kept, q)
		}
	}
	return kept
}

func pruneEvents(qs []*EventDetectionQuery, t int) []*EventDetectionQuery {
	kept := qs[:0]
	for _, q := range qs {
		if q.End > t {
			kept = append(kept, q)
		}
	}
	return kept
}

func pruneRegionEvents(qs []*RegionEventQuery, t int) []*RegionEventQuery {
	kept := qs[:0]
	for _, q := range qs {
		if q.End > t {
			kept = append(kept, q)
		}
	}
	return kept
}
