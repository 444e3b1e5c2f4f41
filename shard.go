package ps

import (
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

// ShardStats describes one shard's contribution to a slot — or, in
// EngineMetrics.Shards, its totals across slots.
type ShardStats struct {
	// Shard is the shard index, or -1 for the dedicated spanning pass.
	Shard int `json:"shard"`
	// Spanning marks the cross-shard reconciliation pass that serves
	// queries whose footprint intersects several shards.
	Spanning bool `json:"spanning,omitempty"`
	// Offers is how many sensor offers were routed to this shard.
	Offers int `json:"offers"`
	// Queries is how many queries (one-shots, active continuous queries
	// and generated probes) the shard scheduled.
	Queries int `json:"queries"`
	// SensorsUsed counts the shard's selected sensors.
	SensorsUsed int `json:"sensors_used"`
	// Welfare is the shard's social-welfare contribution.
	Welfare float64 `json:"welfare"`
	// SelectMs is the wall time of the lane's selection pass, in
	// milliseconds (summed across slots in EngineMetrics.Shards). Lanes
	// execute concurrently, so the slot's shard_select stage tracks the
	// slowest lane on machines with a core per lane and the *sum* of the
	// lanes when they time-slice one core; recording both lets consumers
	// separate algorithmic cost from scheduling. When GOMAXPROCS is 1 the
	// lanes run sequentially (the outcome is identical — they share no
	// mutable state — and goroutine interleaving would otherwise inflate
	// every lane's measured wall time).
	SelectMs float64 `json:"select_ms"`
	// StepMs is the wall time a remote shard node spent stepping its world
	// replica and filtering the shard's offers (LanePartial.StepMs); with
	// SelectMs it splits the lane_rpc stage into replica step, selection
	// and what is left for the wire. In-process lanes and the spanning
	// pass report 0.
	StepMs float64 `json:"step_ms,omitempty"`
	// Selection instruments the shard's greedy pass.
	Selection SelectionStats `json:"selection"`
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
// Every lane runs the same Algorithm 5 greedy selection as the unsharded
// Aggregator, whatever kinds of query it holds; that shared path is what
// lets the resident passes decompose by shard.
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

	order shardedOrder

	// Per-slot routing scratch, reused across RunSlot calls: at metro
	// scale rebuilding these every slot re-allocates tens of thousands of
	// entries per lane. Nothing downstream retains the slices past the
	// slot (executeSlot copies what it keeps), so reuse is safe.
	partsBuf    [][]core.Offer
	gidxBuf     [][]int
	residualBuf []core.Offer
	// seenBuf is LanePartial.check's per-lane record of the routed
	// offers a trace has committed; takenBuf marks, by slot offer index,
	// the offers the merged lanes committed, so the spanning pass gets
	// the rest.
	seenBuf  []bool
	takenBuf []bool
}

// NewShardedAggregator builds a sharded execution layer over a world with
// the given shard count. Options apply to every shard lane (and the
// spanning lane).
func NewShardedAggregator(world *World, shards int, opts ...Option) *ShardedAggregator {
	part := geo.NewGridPartition(world.Working, shards)
	sa := &ShardedAggregator{world: world, part: part}
	n := part.NumShards()
	sa.shards = make([]*Aggregator, n)
	for k := range sa.shards {
		sa.shards[k] = NewAggregator(world, opts...)
	}
	sa.span = NewAggregator(world, opts...)
	sa.lanes = make([]LaneRunner, n)
	for k := range sa.lanes {
		sa.lanes[k] = &localLane{a: sa.shards[k]}
	}
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
// (the liveness gauges); its wall time is traced as the membership stage.
func (sa *ShardedAggregator) SetPreSlot(f func()) { sa.preSlot = f }

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

	// Check the partials before anything reads them. A lane that failed
	// (node dead, stale partial, lockstep divergence, a partial that does
	// not fit the offers it was routed) degrades: its resident queries get
	// no outcome this slot and the failure is surfaced in
	// SlotReport.Degraded rather than corrupting the merge.
	var degraded []LaneError
	for k := range sa.lanes {
		if laneErrs[k] == nil {
			sa.seenBuf = slices.Grow(sa.seenBuf[:0], len(parts[k]))[:len(parts[k])]
			laneErrs[k] = partials[k].check(t, parts[k], sa.seenBuf)
		}
		if laneErrs[k] != nil {
			partials[k] = nil
			degraded = append(degraded, LaneError{Shard: k, Err: laneErrs[k]})
		}
	}
	if len(remote) > 0 {
		tr.Mark(StageGather)
	}

	// Spanning pass: cross-shard queries compete for the residual supply,
	// the offers no shard selected.
	var span *LanePartial
	residual := sa.residualBuf[:0]
	if sa.span.pendingWork(t) {
		// check has vetted every merged trace's offers against its lane's
		// routed slice, so gidx maps each to its slot offer.
		taken := slices.Grow(sa.takenBuf[:0], len(offers))[:len(offers)]
		clear(taken)
		sa.takenBuf = taken
		for k, p := range partials {
			if p == nil {
				continue
			}
			for _, st := range p.Trace {
				taken[gidx[k][st.Offer]] = true
			}
		}
		for i, o := range offers {
			if !taken[i] {
				residual = append(residual, o)
			}
		}
		spanStart := time.Now()
		ex := sa.span.executeSlot(t, residual)
		span = partialFromExec(ex, float64(time.Since(spanStart).Nanoseconds())/1e6)
	}
	sa.residualBuf = residual
	tr.Mark(StageSpanning)

	rep, selected := sa.reconcile(t, len(offers), parts, gidx, partials, residual, span)
	rep.Degraded = degraded
	tr.Mark(StageReconcile)

	// Data acquisition and accounting (stage 5 of Algorithm 5), once over
	// the union of the lanes' selections.
	sa.world.Fleet.Commit(selected)
	tr.Mark(StageCommit)

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
func (sa *ShardedAggregator) reconcile(t, offers int, parts [][]core.Offer, gidx [][]int, partials []*LanePartial, residual []core.Offer, span *LanePartial) (*SlotReport, []*sensornet.Sensor) {
	rep := &SlotReport{Slot: t, Offers: offers}

	// Replay the global commit order from the shard traces.
	var selected []*sensornet.Sensor
	heads := make([]int, len(partials))
	for {
		best, bestIdx := -1, 0
		var bestNet float64
		for k, p := range partials {
			if p == nil || heads[k] >= len(p.Trace) {
				continue
			}
			st := p.Trace[heads[k]]
			g := gidx[k][st.Offer]
			if best == -1 || st.Net > bestNet || (st.Net == bestNet && g < bestIdx) {
				best, bestNet, bestIdx = k, st.Net, g
			}
		}
		if best == -1 {
			break
		}
		st := partials[best].Trace[heads[best]]
		selected = append(selected, parts[best][st.Offer].Sensor)
		rep.TotalCost += st.Cost
		heads[best]++
	}
	// The spanning pass ran after every shard pass; its commits append in
	// their own order.
	if span != nil {
		for _, st := range span.Trace {
			selected = append(selected, residual[st.Offer].Sensor)
			rep.TotalCost += st.Cost
		}
	}
	rep.SensorsUsed = len(selected)

	// Per-type values in global submission order.
	partialFor := func(home int) *LanePartial {
		if home >= 0 {
			return partials[home]
		}
		return span
	}
	sumOutcomes := func(entries []shardedEntry, into *float64) {
		for _, e := range entries {
			if p := partialFor(e.home); p != nil {
				if v, ok := p.outcomeValue(e.id); ok {
					*into += v
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
			if p := partialFor(e.home); p != nil {
				if v, ok := p.outcomeValue(query.PointID(e.id, t, suffix)); ok {
					rep.ExtraValue += v
				}
			}
		}
	}
	sumProbes(sa.order.events, "ev")
	sumProbes(sa.order.regEvents, "rev")
	sumDeltas := func(entries []shardedEntry, into *float64) {
		for _, e := range entries {
			if p := partialFor(e.home); p != nil {
				if delta, ok := p.continuousDelta(e.id); ok {
					*into += delta
				}
			}
		}
	}
	sumDeltas(sa.order.locMon, &rep.LocMonValue)
	sumDeltas(sa.order.regMon, &rep.RegMonValue)
	rep.Welfare = rep.PointValue + rep.AggValue + rep.LocMonValue +
		rep.RegMonValue + rep.ExtraValue - rep.TotalCost

	// Per-query results are disjoint across lanes (every query lives in
	// exactly one), so the merge is a union, sealed into ID order once.
	n := 0
	for _, p := range partials {
		if p != nil {
			n += len(p.Results)
		}
	}
	if span != nil {
		n += len(span.Results)
	}
	rep.results = make([]LaneResult, 0, n)
	mergeLane := func(p *LanePartial, shard int, spanning bool, laneOffers int) {
		rep.results = append(rep.results, p.Results...)
		rep.Events = append(rep.Events, p.Events...)
		rep.Selection.Accumulate(p.Selection)
		rep.Shards = append(rep.Shards, ShardStats{
			Shard:       shard,
			Spanning:    spanning,
			Offers:      laneOffers,
			Queries:     p.Queries,
			SensorsUsed: len(p.SelectedIDs),
			Welfare:     p.Welfare,
			SelectMs:    p.SelectMs,
			StepMs:      p.StepMs,
			Selection:   p.Selection,
		})
	}
	for k, p := range partials {
		if p == nil {
			// Keep rep.Shards index-aligned, one entry per lane: a
			// degraded lane contributes zeros this slot.
			rep.Shards = append(rep.Shards, ShardStats{Shard: k})
			continue
		}
		mergeLane(p, k, false, len(parts[k]))
	}
	if span != nil {
		mergeLane(span, -1, true, len(residual))
	} else {
		rep.Shards = append(rep.Shards, ShardStats{Shard: -1, Spanning: true})
	}
	rep.seal()
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
