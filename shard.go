package ps

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// GridPartition is the geographic partitioner of the sharded execution
// layer (see internal/geo).
type GridPartition = geo.GridPartition

// ShardStats describes one shard's contribution to a slot — or, when
// accumulated across slots (EngineMetrics.Shards), its running totals.
type ShardStats struct {
	// Shard is the shard index, or -1 for the dedicated spanning pass.
	Shard int
	// Spanning marks the cross-shard reconciliation pass that serves
	// queries whose footprint intersects several shards.
	Spanning bool
	// Offers is how many sensor offers were routed to this shard.
	Offers int
	// Queries is how many queries (one-shots, active continuous queries
	// and generated probes) the shard scheduled.
	Queries int
	// SensorsUsed counts the shard's selected sensors.
	SensorsUsed int
	// Welfare is the shard's social-welfare contribution.
	Welfare float64
	// SelectMs is the wall time of the lane's selection pass, in
	// milliseconds (accumulated across slots in running totals). Lanes
	// execute concurrently, so the slot's shard_select stage tracks the
	// slowest lane on machines with a core per lane and the *sum* of the
	// lanes when they time-slice one core; recording both lets consumers
	// separate algorithmic cost from scheduling. When GOMAXPROCS is 1 the
	// lanes run sequentially (the outcome is identical — they share no
	// mutable state — and goroutine interleaving would otherwise inflate
	// every lane's measured wall time).
	SelectMs float64
	// StepMs is the wall time a remote shard node spent stepping its world
	// replica and filtering the shard's offers (LanePartial.StepMs); with
	// SelectMs it splits the lane_rpc stage into replica step, selection
	// and what is left for the wire. In-process lanes and the spanning
	// pass report 0.
	StepMs float64
	// Selection instruments the shard's greedy pass.
	Selection SelectionStats
}

// accumulate folds one slot's shard stats into a running total.
func (s *ShardStats) accumulate(o ShardStats) {
	s.Offers += o.Offers
	s.Queries += o.Queries
	s.SensorsUsed += o.SensorsUsed
	s.Welfare += o.Welfare
	s.SelectMs += o.SelectMs
	s.StepMs += o.StepMs
	s.Selection.Accumulate(o.Selection)
}

// shardedEntry is one routed query in the sharded layer's global
// submission registry. The registry preserves the order queries were
// submitted in, per class, because the reconciliation pass must sum
// per-type values in exactly the order a single unsharded pipeline would
// have — float addition is not associative, and the golden equivalence
// guarantee is bit-level.
type shardedEntry struct {
	id   string
	home int // shard index, or -1 for the spanning lane
	end  int // last active slot (one-shots: the slot they run)
}

// shardedOrder is the per-class global submission registry.
type shardedOrder struct {
	points, aggs, extra []shardedEntry
	locMon, regMon      []shardedEntry
	events, regEvents   []shardedEntry
}

func (o *shardedOrder) each(f func(*[]shardedEntry)) {
	for _, s := range []*[]shardedEntry{
		&o.points, &o.aggs, &o.extra, &o.locMon, &o.regMon, &o.events, &o.regEvents,
	} {
		f(s)
	}
}

// ShardedAggregator is the geo-sharded execution layer: it partitions the
// world's working region into K geographic shards, routes each submitted
// Spec to the shard its relevance footprint lies in, runs the per-shard
// Algorithm 5 pipelines concurrently, and merges the partial results
// through a deterministic reconciliation pass.
//
// Queries whose footprint intersects several shards (trajectories, large
// regions) are cross-shard: they run in a dedicated spanning pass over
// the slot's residual supply — the offers no shard selected — after the
// per-shard passes complete.
//
// Exactness: on workloads where every query is resident in a single shard,
// the merged SlotReport is bit-identical to an unsharded Aggregator's
// (same welfare, per-query values and payments, to the last float bit).
// This holds because shard-resident queries in different shards can never
// share a relevant sensor, so the global greedy pass decomposes exactly,
// and the reconciliation replays its commit interleaving from the
// per-shard selection traces (merge by net benefit descending, offer
// index ascending) and re-sums every total in the unsharded accumulation
// order. Spanning queries break the decomposition and are served
// approximately: they compete for supply after the resident passes, so
// per-slot welfare can fall below the unsharded pipeline's (see
// DESIGN.md, "Sharded execution", for the observed bound).
//
// The sharded layer always routes through the greedy Algorithm 5
// pipeline; the point-only Scheduling policies and the baseline pipeline
// of the unsharded Aggregator do not decompose by shard and are not
// honored here.
//
// Like Aggregator, a ShardedAggregator is confined to one goroutine (the
// Engine's loop when wrapped via NewShardedEngine); only the slot's
// per-shard passes fan out internally.
type ShardedAggregator struct {
	world *World
	part  GridPartition

	shards []*Aggregator // the in-process lane backing per shard
	lanes  []LaneRunner  // the pluggable execution seam, one per shard
	span   *Aggregator   // the cross-shard (spanning) lane

	// preSlot, when set, runs at the top of every RunSlot before the
	// fleet steps (the cluster coordinator's membership sweep).
	preSlot func()
	// sensorsByID resolves wire partials' sensor IDs; built lazily (fleet
	// membership is fixed for a world's lifetime).
	sensorsByID map[int]*sensornet.Sensor

	order    shardedOrder
	selStats core.SelectionStats
	// stats accumulates the per-shard breakdown across slots; index
	// len(shards) is the spanning pass.
	stats []ShardStats

	// Per-slot routing scratch, reused across RunSlot calls: at metro
	// scale rebuilding these every slot re-allocates tens of thousands of
	// entries per lane. Nothing downstream retains the slices past the
	// slot (executeSlot copies what it keeps), so reuse is safe.
	partsBuf    [][]core.Offer
	gidxBuf     [][]int
	takenBuf    map[int]bool
	residualBuf []core.Offer
}

// NewShardedAggregator builds a sharded execution layer over a world with
// the given shard count. Options apply to every shard lane (and the
// spanning lane). Under the default StrategyAuto each lane resolves the
// strategy against its own offer count every slot, so a hot shard runs
// lazy-greedy while a cold one stays on the serial scan.
func NewShardedAggregator(world *World, shards int, opts ...Option) *ShardedAggregator {
	part := geo.NewGridPartition(world.Working, shards)
	sa := &ShardedAggregator{world: world, part: part}
	n := part.NumShards()
	sa.shards = make([]*Aggregator, n)
	for k := range sa.shards {
		sa.shards[k] = NewAggregator(world, opts...)
	}
	sa.span = NewAggregator(world, opts...)
	// The sharded layer always routes through the greedy Algorithm 5
	// pipeline (see the type comment): the baseline pipeline records no
	// selection trace, so honoring WithBaselinePipeline here would make
	// the reconciliation replay commit nothing while payments were still
	// booked. Override it rather than corrupt results.
	for _, a := range append(slices.Clone(sa.shards), sa.span) {
		a.baseline = false
	}
	sa.lanes = make([]LaneRunner, n)
	for k := range sa.lanes {
		sa.lanes[k] = &localLane{a: sa.shards[k]}
	}
	sa.stats = make([]ShardStats, n+1)
	for k := range sa.stats {
		sa.stats[k].Shard = k
	}
	sa.stats[n] = ShardStats{Shard: -1, Spanning: true}
	return sa
}

// ShardCount returns the number of geographic shards.
func (sa *ShardedAggregator) ShardCount() int { return len(sa.shards) }

// SetLaneRunner replaces shard k's execution lane — the cluster
// coordinator plugs a network lane in here, promoting the shard to a
// remote node. The replaced in-process lane's aggregator is abandoned;
// swap lanes before submitting queries. Remote lanes always run on their
// own goroutine during RunSlot (they are IO-bound), while in-process
// lanes keep the GOMAXPROCS-aware fan-out.
func (sa *ShardedAggregator) SetLaneRunner(shard int, r LaneRunner) {
	sa.lanes[shard] = r
}

// SetPreSlot registers a hook run at the top of every RunSlot, before the
// fleet steps. The cluster coordinator uses it for the membership sweep
// (fact-TTL expiry, liveness gauges); its wall time is traced as the
// membership stage.
func (sa *ShardedAggregator) SetPreSlot(f func()) { sa.preSlot = f }

// sensorIdx lazily builds the fleet's sensor-by-ID index used to bind
// wire partials.
func (sa *ShardedAggregator) sensorIdx() map[int]*sensornet.Sensor {
	if sa.sensorsByID == nil {
		sa.sensorsByID = sensorIndex(sa.world.Fleet.Sensors)
	}
	return sa.sensorsByID
}

// SelectionStats returns the cumulative selection instrumentation summed
// over every shard and the spanning pass.
func (sa *ShardedAggregator) SelectionStats() SelectionStats { return sa.selStats }

// ShardStats returns the cumulative per-shard breakdown; the last entry
// is the spanning pass.
func (sa *ShardedAggregator) ShardStats() []ShardStats {
	return slices.Clone(sa.stats)
}

// NextSlot returns the slot number the next RunSlot call will execute.
func (sa *ShardedAggregator) NextSlot() int { return sa.world.Fleet.Slot() + 1 }

// Submit validates a spec and registers it with the shard its footprint
// resides in, or with the spanning lane when the footprint crosses shard
// borders.
func (sa *ShardedAggregator) Submit(spec Spec) (SubmittedQuery, error) {
	if isNilSpec(spec) {
		return SubmittedQuery{}, errNilSpec
	}
	if err := spec.Validate(sa.world); err != nil {
		return SubmittedQuery{}, err
	}
	return sa.materializeSpec(spec)
}

// materializeSpec routes and registers a spec without validation (the
// deprecated lenient submission path of the Engine wrappers).
func (sa *ShardedAggregator) materializeSpec(spec Spec) (SubmittedQuery, error) {
	home := sa.route(spec)
	var sq SubmittedQuery
	var err error
	if home >= 0 {
		sq, err = sa.lanes[home].Submit(spec)
	} else {
		sq, err = spec.materialize(sa.span)
	}
	if err != nil {
		return sq, err
	}
	e := shardedEntry{id: sq.ID, home: home, end: sq.End}
	switch sq.Kind {
	case KindPoint:
		sa.order.points = append(sa.order.points, e)
	case KindAggregate:
		sa.order.aggs = append(sa.order.aggs, e)
	case KindMultiPoint, KindTrajectory:
		sa.order.extra = append(sa.order.extra, e)
	case KindLocationMonitoring:
		sa.order.locMon = append(sa.order.locMon, e)
	case KindRegionMonitoring:
		sa.order.regMon = append(sa.order.regMon, e)
	case KindEventDetection:
		sa.order.events = append(sa.order.events, e)
	case KindRegionEvent:
		sa.order.regEvents = append(sa.order.regEvents, e)
	}
	return sq, nil
}

// route returns the shard a spec is resident in, or -1 when its footprint
// intersects several shards (spanning). The footprint is clipped to the
// working region first: only sensors inside it are ever offered, so a
// query hanging over the region edge is not needlessly spanning.
func (sa *ShardedAggregator) route(spec Spec) int {
	fp := spec.footprint(sa.world)
	if clipped, ok := fp.Intersect(sa.world.Fleet.WorkingRegion); ok {
		fp = clipped
	}
	var buf [4]int
	shards := sa.part.AppendShardsOf(buf[:0], fp)
	if len(shards) == 1 {
		return shards[0]
	}
	return -1
}

// CancelQuery withdraws a pending or continuous query by ID from
// whichever lane holds it.
func (sa *ShardedAggregator) CancelQuery(id string) bool {
	removed := false
	for _, l := range sa.lanes {
		removed = l.Cancel(id) || removed
	}
	removed = sa.span.CancelQuery(id) || removed
	if removed {
		sa.order.each(func(s *[]shardedEntry) {
			*s = slices.DeleteFunc(*s, func(e shardedEntry) bool { return e.id == id })
		})
	}
	return removed
}

// RunSlot advances the world one time slot, executes every shard's
// pipeline concurrently over the offers routed to it, runs the spanning
// pass over the residual supply, and reconciles the partial results into
// one SlotReport.
func (sa *ShardedAggregator) RunSlot() *SlotReport {
	tr := obs.StartTrace()
	if sa.preSlot != nil {
		sa.preSlot()
		tr.Mark(StageMembership)
	}
	offers := sa.world.Fleet.Step()
	t := sa.world.Fleet.Slot()
	tr.Mark(StageOfferGather)

	// Route offers: each sensor belongs to exactly one shard.
	if sa.partsBuf == nil {
		sa.partsBuf = make([][]core.Offer, len(sa.shards))
		sa.gidxBuf = make([][]int, len(sa.shards))
	}
	parts := sa.partsBuf
	gidx := sa.gidxBuf // local offer index -> global
	for k := range parts {
		parts[k] = parts[k][:0]
		gidx[k] = gidx[k][:0]
	}
	for i, o := range offers {
		k := sa.part.ShardOf(o.Sensor.Pos)
		parts[k] = append(parts[k], o)
		gidx[k] = append(gidx[k], i)
	}
	tr.Mark(StageRoute)

	// Per-shard passes run concurrently. In-process lanes share only
	// read-only world state (sensor positions, the phenomenon field, GP
	// model), and each continuous query is owned by exactly one lane.
	// Each lane times its own pass (ShardStats.SelectMs); on a
	// single-core runner in-process lanes execute sequentially instead,
	// which is behaviorally identical and keeps those timings free of
	// goroutine time-slicing. Network lanes are IO-bound, so they always
	// fan out first and are gathered after the local compute window —
	// their residual wait is the lane_rpc stage.
	partials := make([]*LanePartial, len(sa.lanes))
	laneErrs := make([]error, len(sa.lanes))
	runLane := func(k int) {
		partials[k], laneErrs[k] = sa.lanes[k].RunLane(t, parts[k])
	}
	var local, remote []int
	for k, l := range sa.lanes {
		if _, ok := l.(*localLane); ok {
			local = append(local, k)
		} else {
			remote = append(remote, k)
		}
	}
	var rwg sync.WaitGroup
	for _, k := range remote {
		rwg.Add(1)
		go func(k int) {
			defer rwg.Done()
			runLane(k)
		}(k)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		for _, k := range local {
			runLane(k)
		}
	} else {
		var wg sync.WaitGroup
		for _, k := range local {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				runLane(k)
			}(k)
		}
		wg.Wait()
	}
	tr.Mark(StageShardSelect)
	if len(remote) > 0 {
		rwg.Wait()
		tr.Mark(StageLaneRPC)
	}

	// Bind the partials into executable form. A lane that failed (node
	// dead, stale partial, lockstep divergence) degrades: its resident
	// queries get no outcome this slot and the failure is surfaced in
	// SlotReport.Degraded rather than corrupting the merge.
	execs := make([]*slotExec, len(sa.lanes))
	laneMs := make([]float64, len(sa.lanes))
	var degraded []LaneError
	for k := range sa.lanes {
		if laneErrs[k] == nil && partials[k] != nil && partials[k].Slot != t {
			laneErrs[k] = fmt.Errorf("ps: lane %d returned a partial for slot %d, want %d",
				k, partials[k].Slot, t)
		}
		if laneErrs[k] == nil && partials[k] != nil {
			execs[k], laneErrs[k] = partials[k].bind(sa.sensorIdx())
			laneMs[k] = partials[k].SelectMs
		}
		if laneErrs[k] != nil {
			execs[k] = nil
			degraded = append(degraded, LaneError{Shard: k, Err: laneErrs[k]})
		}
	}
	if len(remote) > 0 {
		tr.Mark(StageGather)
	}

	// Spanning pass: cross-shard queries compete for the residual supply,
	// the offers no shard selected.
	var spanExec *slotExec
	var spanMs float64
	if sa.span.pendingWork(t) {
		if sa.takenBuf == nil {
			sa.takenBuf = make(map[int]bool)
		} else {
			clear(sa.takenBuf)
		}
		taken := sa.takenBuf
		for _, ex := range execs {
			if ex == nil {
				continue
			}
			for _, s := range ex.selected {
				taken[s.ID] = true
			}
		}
		residual := sa.residualBuf[:0]
		for _, o := range offers {
			if !taken[o.Sensor.ID] {
				residual = append(residual, o)
			}
		}
		sa.residualBuf = residual
		spanStart := time.Now()
		spanExec = sa.span.executeSlot(t, residual, true)
		spanMs = float64(time.Since(spanStart).Nanoseconds()) / 1e6
	}
	tr.Mark(StageSpanning)

	rep, selected := sa.reconcile(t, len(offers), parts, execs, gidx, spanExec, laneMs, spanMs)
	rep.Degraded = degraded
	for k, ex := range execs {
		if ex != nil {
			rep.Shards[k].StepMs = partials[k].StepMs
		}
	}
	tr.Mark(StageReconcile)

	// Data acquisition and accounting (stage 5 of Algorithm 5), once over
	// the union of the lanes' selections.
	sa.world.Fleet.Commit(selected)
	tr.Mark(StageCommit)
	sa.selStats.Accumulate(rep.Selection)
	for i, s := range rep.Shards {
		sa.stats[i].accumulate(s)
	}

	// Propagate the slot's global commit to every lane: in-process lanes
	// retire consumed queries; network lanes forward the commit so node
	// replicas step in lockstep. A commit that cannot be delivered
	// degrades the lane (it resyncs by deterministic replay on rejoin).
	selectedIDs := make([]int, len(selected))
	for i, s := range selected {
		selectedIDs[i] = s.ID
	}
	for k, l := range sa.lanes {
		if err := l.FinishSlot(t, selectedIDs); err != nil {
			rep.Degraded = append(rep.Degraded, LaneError{Shard: k, Err: err})
		}
	}
	sa.span.retire(t)
	sa.order.each(func(s *[]shardedEntry) {
		*s = slices.DeleteFunc(*s, func(e shardedEntry) bool { return e.end <= t })
	})
	tr.Mark(StageAccounting)
	rep.Stages = tr.Spans()
	return rep
}

// reconcile merges the per-shard partial results into one SlotReport that
// is bit-identical to the unsharded pipeline's on shard-resident
// workloads. Two mechanisms make the floats exact rather than merely
// close:
//
//   - The commit interleaving of the single global greedy pass is replayed
//     from the per-shard selection traces: at every step the shard whose
//     next commit has the largest net benefit goes first (ties to the
//     lower global offer index — the serial scan's first-max rule), which
//     reproduces the unsharded TotalCost accumulation order term by term.
//   - Per-type values are re-summed over the queries in global submission
//     order (the order registry), the order the unsharded pipeline's
//     accounting loops iterate in.
func (sa *ShardedAggregator) reconcile(t, offers int, parts [][]core.Offer, execs []*slotExec, gidx [][]int, spanExec *slotExec, laneMs []float64, spanMs float64) (*SlotReport, []*sensornet.Sensor) {
	rep := &SlotReport{
		Slot:     t,
		Offers:   offers,
		values:   make(map[string]float64),
		payments: make(map[string]float64),
		answered: make(map[string]bool),
	}

	// Replay the global commit order from the shard traces.
	var selected []*sensornet.Sensor
	heads := make([]int, len(execs))
	for {
		best, bestIdx := -1, 0
		var bestNet float64
		for k, ex := range execs {
			if ex == nil {
				continue
			}
			tr := ex.mix.Multi.Trace
			if heads[k] >= len(tr) {
				continue
			}
			st := tr[heads[k]]
			g := gidx[k][st.Offer]
			if best == -1 || st.Net > bestNet || (st.Net == bestNet && g < bestIdx) {
				best, bestNet, bestIdx = k, st.Net, g
			}
		}
		if best == -1 {
			break
		}
		ex := execs[best]
		st := ex.mix.Multi.Trace[heads[best]]
		selected = append(selected, ex.mix.Multi.Selected[heads[best]])
		rep.TotalCost += st.Cost
		heads[best]++
	}
	// The spanning pass ran after every shard pass; its commits append in
	// their own order.
	if spanExec != nil {
		for i, st := range spanExec.mix.Multi.Trace {
			selected = append(selected, spanExec.mix.Multi.Selected[i])
			rep.TotalCost += st.Cost
		}
	}
	rep.SensorsUsed = len(selected)

	// Per-type values in global submission order.
	mixFor := func(home int) *core.MixSlotResult {
		if home >= 0 {
			if execs[home] == nil {
				return nil
			}
			return execs[home].mix
		}
		if spanExec != nil {
			return spanExec.mix
		}
		return nil
	}
	sumOutcomes := func(entries []shardedEntry, into *float64) {
		for _, e := range entries {
			if m := mixFor(e.home); m != nil {
				if out := m.Multi.Outcomes[e.id]; out != nil {
					*into += out.Value
				}
			}
		}
	}
	sumOutcomes(sa.order.points, &rep.PointValue)
	sumOutcomes(sa.order.aggs, &rep.AggValue)
	// ExtraValue spans user extras and the probes generated for event
	// queries, in the same order the unsharded pipeline appends them:
	// user extras, then event probes, then region-event probes.
	sumOutcomes(sa.order.extra, &rep.ExtraValue)
	sumProbes := func(entries []shardedEntry, suffix string) {
		for _, e := range entries {
			if m := mixFor(e.home); m != nil {
				if out := m.Multi.Outcomes[query.PointID(e.id, t, suffix)]; out != nil {
					rep.ExtraValue += out.Value
				}
			}
		}
	}
	sumProbes(sa.order.events, "ev")
	sumProbes(sa.order.regEvents, "rev")
	sumDeltas := func(entries []shardedEntry, into *float64) {
		for _, e := range entries {
			if m := mixFor(e.home); m != nil {
				if co, ok := m.Continuous[e.id]; ok {
					*into += co.ValueDelta
				}
			}
		}
	}
	sumDeltas(sa.order.locMon, &rep.LocMonValue)
	sumDeltas(sa.order.regMon, &rep.RegMonValue)
	rep.Welfare = rep.PointValue + rep.AggValue + rep.LocMonValue +
		rep.RegMonValue + rep.ExtraValue - rep.TotalCost

	// Per-query outcome maps are disjoint across lanes (every query lives
	// in exactly one), so the merge is a union.
	mergeLane := func(ex *slotExec, shard int, spanning bool, laneOffers int, selectMs float64) {
		for id, v := range ex.report.values {
			rep.values[id] = v
		}
		for id, p := range ex.report.payments {
			rep.payments[id] = p
		}
		for id := range ex.report.answered {
			rep.answered[id] = true
		}
		rep.Events = append(rep.Events, ex.report.Events...)
		rep.Selection.Accumulate(ex.report.Selection)
		rep.Shards = append(rep.Shards, ShardStats{
			Shard:       shard,
			Spanning:    spanning,
			Offers:      laneOffers,
			Queries:     ex.queries,
			SensorsUsed: len(ex.selected),
			Welfare:     ex.report.Welfare,
			SelectMs:    selectMs,
			Selection:   ex.report.Selection,
		})
	}
	for k, ex := range execs {
		if ex == nil {
			// Keep rep.Shards index-aligned for the stats accumulation:
			// a degraded lane contributes zeros this slot.
			rep.Shards = append(rep.Shards, ShardStats{Shard: k})
			continue
		}
		mergeLane(ex, k, false, len(parts[k]), laneMs[k])
	}
	if spanExec != nil {
		mergeLane(spanExec, -1, true, spanExec.report.Offers, spanMs)
	} else {
		rep.Shards = append(rep.Shards, ShardStats{Shard: -1, Spanning: true})
	}
	slices.SortFunc(rep.Events, func(a, b EventNotification) int {
		return strings.Compare(a.QueryID, b.QueryID)
	})
	return rep, selected
}

// expandRect grows a rectangle by m on every side.
func expandRect(r Rect, m float64) Rect {
	return Rect{MinX: r.MinX - m, MinY: r.MinY - m, MaxX: r.MaxX + m, MaxY: r.MaxY + m}
}

// pointFootprint is the relevance footprint of a location query: the
// sensing disk of radius dmax around the location.
func pointFootprint(loc Point, w *World) Rect {
	return expandRect(Rect{MinX: loc.X, MinY: loc.Y, MaxX: loc.X, MaxY: loc.Y}, w.DMax)
}

// The per-kind relevance footprints. Each bounds every sensor position
// the materialized query (or any probe it generates) could find Relevant.

func (s PointSpec) footprint(w *World) Rect { return pointFootprint(s.Loc, w) }

func (s MultiPointSpec) footprint(w *World) Rect { return pointFootprint(s.Loc, w) }

func (s AggregateSpec) footprint(w *World) Rect { return expandRect(s.Region, w.DMax) }

func (s TrajectorySpec) footprint(w *World) Rect {
	return expandRect(s.Path.BoundingRect(), w.DMax)
}

func (s LocationMonitoringSpec) footprint(w *World) Rect { return pointFootprint(s.Loc, w) }

// Region monitoring's supply is the sensors inside the region, but its
// generated point probes (Algorithm 4) reach core.RegionProbeDMax beyond
// a probed sensor's position, so the footprint pads the region by the
// larger of the two radii.
func (s RegionMonitoringSpec) footprint(w *World) Rect {
	return expandRect(s.Region, math.Max(w.DMax, core.RegionProbeDMax))
}

func (s EventDetectionSpec) footprint(w *World) Rect { return pointFootprint(s.Loc, w) }

func (s RegionEventSpec) footprint(w *World) Rect { return expandRect(s.Region, w.DMax) }
