package ps

import (
	"iter"
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
	world *World
	// greedy is always the zero config, the lazy greedy, outside tests;
	// the equivalence tests set the serial reference through it.
	greedy core.GreedyConfig

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
// submission) stays on the concrete type and is confined to the loop
// goroutine.
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
	a.regMon = slices.DeleteFunc(a.regMon, func(q *RegionMonitoringQuery) bool {
		if q.ID != id {
			return false
		}
		q.Release()
		return true
	})
	a.events = slices.DeleteFunc(a.events, func(q *EventDetectionQuery) bool { return q.ID == id })
	a.regEvents = slices.DeleteFunc(a.regEvents, func(q *RegionEventQuery) bool { return q.ID == id })
	return len(a.points)+len(a.aggs)+len(a.extra)+len(a.locMon)+
		len(a.regMon)+len(a.events)+len(a.regEvents) != before
}

// Option customizes an Aggregator.
type Option func(*Aggregator)

// WithScheduling does nothing: every slot runs Algorithm 5's greedy
// selection. It stays only for the benchmark program's two call sites
// and goes, with Scheduling and SchedulingGreedy, once they drop it.
func WithScheduling(Scheduling) Option {
	return func(*Aggregator) {}
}

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
	// Selection instruments the slot's greedy sensor selection.
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
	// replacing selection. The engine books ingest, these stages and
	// publish into its metrics registry (EngineMetrics.SlotStages).
	Stages []StageTiming

	// results holds one entry per query with an outcome this slot,
	// ascending by ID: the getters binary-search it, Outcomes walks it.
	results []slotResult
}

// slotResult is one query's entry in a SlotReport.
type slotResult struct {
	id      string
	value   float64
	payment float64
	// paid marks a booked payment, a zero one included: a lane partial's
	// Payments section lists exactly these entries.
	paid bool
	// satisfied marks a continuous query whose probe was satisfied this
	// slot even when the valuation delta rounds to zero (e.g. a sample
	// that repeats an already-achieved quality still counts as served).
	satisfied bool
}

func (e *slotResult) outcome() QueryOutcome {
	return QueryOutcome{Answered: e.value > 0 || e.satisfied, Value: e.value, Payment: e.payment}
}

// outcome returns the query's entry, or the zero outcome when it has
// none.
func (r *SlotReport) outcome(id string) QueryOutcome {
	i, j := 0, len(r.results)
	for i < j {
		h := int(uint(i+j) >> 1)
		if r.results[h].id < id {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(r.results) && r.results[i].id == id {
		return r.results[i].outcome()
	}
	return QueryOutcome{}
}

// seal puts the booked results in ID order and folds the entries of a
// repeated ID into one, adding values and payments in booking order. The
// Engine keeps query IDs unique, so a slot run under it folds nothing,
// and a bare Aggregator given one ID twice reports the sum. A lane
// partial's report is booked one entry per section entry and sealed into
// one entry per query the same way.
func (r *SlotReport) seal() {
	slices.SortStableFunc(r.results, func(a, b slotResult) int { return strings.Compare(a.id, b.id) })
	w := 0
	for i := 1; i < len(r.results); i++ {
		e, last := r.results[i], &r.results[w]
		if e.id != last.id {
			w++
			r.results[w] = e
			continue
		}
		last.value += e.value
		last.payment += e.payment
		last.paid = last.paid || e.paid
		last.satisfied = last.satisfied || e.satisfied
	}
	if len(r.results) > 0 {
		r.results = r.results[:w+1]
	}
}

// Answered reports whether the query was served this slot: it obtained
// positive value, or (for continuous queries) a satisfied sample.
func (r *SlotReport) Answered(id string) bool { return r.outcome(id).Answered }

// Value returns the valuation the query obtained this slot.
func (r *SlotReport) Value(id string) float64 { return r.outcome(id).Value }

// Payment returns what the query paid this slot.
func (r *SlotReport) Payment(id string) float64 { return r.outcome(id).Payment }

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
// (id -> answered/value/payment), in ascending ID order. It is the bulk
// companion of the per-id Answered/Value/Payment getters — each yielded
// outcome is exactly what those getters return for the id — so callers
// can enumerate a slot's results without knowing the live query IDs.
func (r *SlotReport) Outcomes() iter.Seq2[string, QueryOutcome] {
	return func(yield func(string, QueryOutcome) bool) {
		for i := range r.results {
			if !yield(r.results[i].id, r.results[i].outcome()) {
				return
			}
		}
	}
}

// RunSlot advances the world one time slot and executes the pending and
// continuous queries through Algorithm 5's greedy query-mix selection,
// whatever kinds the slot holds. Selected sensors are committed
// (lifetime, privacy history), one-shot queries are consumed, and expired
// continuous queries are retired.
func (a *Aggregator) RunSlot() *SlotReport {
	tr := obs.StartTrace()
	offers := a.world.Fleet.Step()
	t := a.world.Fleet.Slot()
	tr.Mark(StageOfferGather)
	ex := a.executeSlot(t, offers)
	tr.Mark(StageSelection)
	a.world.Fleet.Commit(ex.selected)
	tr.Mark(StageCommit)
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
	mix     *core.MixSlotResult
	// outcomes is the pass's outcome index (outcomeIndex), nil until a
	// sharded slot needs it.
	outcomes []LaneValue
}

// executeSlot runs slot t's Algorithm 5 selection over the given offers
// without touching the fleet, the stats or the pending-query lists.
func (a *Aggregator) executeSlot(t int, offers []core.Offer) *slotExec {
	report := &SlotReport{Slot: t, Offers: len(offers)}
	ex := &slotExec{report: report}

	// Materialize event-detection probes. They join the user extras in
	// the joint pass, event probes first, in the order of their queries.
	extra := append([]query.Query(nil), a.extra...)
	var events []*EventDetectionQuery
	var regEvents []*RegionEventQuery
	for _, e := range a.events {
		if mp, ok := e.CreatePointQuery(t); ok {
			extra = append(extra, mp)
			events = append(events, e)
		}
	}
	for _, e := range a.regEvents {
		if agg, ok := e.CreateProbe(t); ok {
			extra = append(extra, agg)
			regEvents = append(regEvents, e)
		}
	}

	activeLM := activeLocMon(a.locMon, t)
	activeRM := activeRegMon(a.regMon, t)
	ex.queries = len(a.points) + len(a.aggs) + len(extra) + len(activeLM) + len(activeRM)
	res := core.RunMixSlotWith(t, core.MixQueries{
		Aggregates: a.aggs,
		Points:     a.points,
		LocMon:     a.locMon,
		RegMon:     a.regMon,
		Extra:      extra,
	}, offers, a.greedy)
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

	// The joint pass lists its outcomes as aggregates, points, extras
	// (user extras, event probes, region-event probes), then the probes
	// of continuous queries.
	aggOuts := res.Multi.Outcomes[:len(a.aggs)]
	pointOuts := res.Multi.Outcomes[len(a.aggs):][:len(a.points)]
	extraOuts := res.Multi.Outcomes[len(a.aggs)+len(a.points):][:len(extra)]
	eventOuts := extraOuts[len(a.extra):][:len(events)]
	regEventOuts := extraOuts[len(a.extra)+len(events):]

	report.results = make([]slotResult, 0,
		len(a.points)+len(a.aggs)+len(a.extra)+len(res.Continuous)+len(events)+len(regEvents))
	// Record user-submitted one-shots only: the probe queries the
	// pipeline generates for continuous parents carry derived IDs
	// (query.PointID), and their value/payments are projected onto
	// the parent ID below — copying them here too would make
	// Outcomes() double-count continuous work under phantom IDs.
	record := func(id string, out *core.MultiOutcome) {
		if out.Value > 0 {
			report.results = append(report.results,
				slotResult{id: id, value: out.Value, payment: out.TotalPayment(), paid: true})
		}
	}
	for i, q := range a.points {
		record(q.QID(), &pointOuts[i])
	}
	for i, q := range a.aggs {
		record(q.QID(), &aggOuts[i])
	}
	for i, q := range a.extra {
		record(q.QID(), &extraOuts[i])
	}
	// Continuous queries report under their own ID: Algorithm 5's
	// generated probes carry derived IDs, so without this projection
	// Answered/Value/Payment would never see monitoring results.
	for _, co := range res.Continuous {
		e := slotResult{id: co.ID, satisfied: co.Satisfied}
		if co.ValueDelta > 0 {
			e.value = co.ValueDelta
		}
		if co.Payment > 0 {
			e.payment, e.paid = co.Payment, true
		}
		if e.value > 0 || e.paid || e.satisfied {
			report.results = append(report.results, e)
		}
	}

	// Evaluate region-event probes: readings plus achieved coverage.
	for i, e := range regEvents {
		out := &regEventOuts[i]
		if len(out.Sensors) == 0 {
			continue
		}
		record(e.ID, out)
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
		coverage := e.Coverage(centers)
		detected, conf, avg := e.Evaluate(vals, thetas, coverage)
		report.Events = append(report.Events, EventNotification{
			QueryID: e.ID, Slot: t, Detected: detected, Confidence: conf, Reading: avg,
		})
	}

	// Evaluate event probes on the acquired readings.
	for i, e := range events {
		out := &eventOuts[i]
		if len(out.Sensors) == 0 {
			continue
		}
		record(e.ID, out)
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
	report.seal()

	// Fix the event order so reports are deterministic (and so the
	// sharded merge has a canonical order to preserve). Each event query
	// emits at most one notification per slot, so sorting by query ID is
	// a total order.
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

// pruneRegMon drops the queries whose window ended at t, handing their
// kernel blocks on to the next region-monitoring query that starts.
func pruneRegMon(qs []*RegionMonitoringQuery, t int) []*RegionMonitoringQuery {
	kept := qs[:0]
	for _, q := range qs {
		if q.End > t {
			kept = append(kept, q)
		} else {
			q.Release()
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
