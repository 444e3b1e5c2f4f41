package ps

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sensornet"
)

// Errors surfaced by the clustered (multi-node) execution layer.
var (
	// ErrNodeUnavailable reports that a cluster shard node could not be
	// reached (dead, unreachable, or timed out mid-slot). Queries resident
	// on the lost lane fail their slot with this sentinel rather than
	// corrupting welfare; it crosses the network as wire.CodeNodeUnavailable
	// so errors.Is keeps working on the client side.
	ErrNodeUnavailable = errors.New("ps: cluster node unavailable")
	// ErrStaleEpoch reports a cluster message carrying an epoch older than
	// the current one — a rejoining node answering for a slot generation
	// that has since been fenced off. Stale partials are discarded, never
	// merged.
	ErrStaleEpoch = errors.New("ps: stale cluster epoch")
)

// Offer is a sensor's per-slot announcement (position is in Sensor.Pos).
type Offer = core.Offer

// SelectionStep is one committed sensor of a lane's greedy trace; the
// reconciliation pass replays the global commit interleaving from these.
type SelectionStep = core.SelectionStep

// ContinuousOutcome is one continuous query's slot outcome.
type ContinuousOutcome = core.ContinuousOutcome

// Payment is what one query pays one sensor in a slot (pi_{q,s}).
type Payment = core.Payment

// LaneRunner is the pluggable execution seam of the sharded layer: one
// shard lane's life cycle as the coordinator drives it. The in-process
// implementation wraps a per-shard Aggregator directly; the cluster
// package's network lane forwards each call to a remote shard node over
// the wire and returns the node's partial. Implementations are called
// only from the goroutine owning the ShardedAggregator (lane fan-out
// inside RunSlot is managed by the coordinator itself).
type LaneRunner interface {
	// Submit materializes an already-validated spec on the lane, binding
	// its window to the lane's next slot.
	Submit(spec Spec) (SubmittedQuery, error)
	// Cancel withdraws a query by ID; it reports whether anything was
	// removed.
	Cancel(id string) bool
	// RunLane executes slot t's selection over the offers routed to the
	// lane and returns the partial result. Remote lanes ignore the offers
	// argument: a shard node holds a deterministic replica of the world
	// and computes the identical offer slice itself.
	RunLane(t int, offers []Offer) (*LanePartial, error)
	// FinishSlot completes slot t after reconciliation: selectedIDs is the
	// slot's global commit (every lane and the spanning pass), in replay
	// order. Local lanes retire consumed queries; remote lanes propagate
	// the commit so the node's world replica steps in lockstep.
	FinishSlot(t int, selectedIDs []int) error
}

// LaneError is one degraded lane of a slot: the shard index and the error
// that kept its partial out of the merge.
type LaneError struct {
	Shard int
	Err   error
}

// LanePartial is one lane's slot result in serializable form — everything
// the coordinator's reconciliation pass needs from a shard, whether the
// lane ran in-process or on a remote node. All floats are exact: the
// binary codec (AppendBinary / DecodeLanePartial) carries a float64 as its
// 64 bits, so a partial that crossed the network merges into the same
// SlotReport an in-process lane would have produced.
type LanePartial struct {
	Slot    int
	Offers  int
	Queries int

	// SelectedIDs lists the committed sensors in selection order, aligned
	// index-for-index with Trace.
	SelectedIDs []int
	Trace       []SelectionStep

	// Outcomes (each joint-selection query's value) and Continuous carry
	// the accounting inputs (per-type value re-summation). The reported
	// payments travel in Payments below.
	Outcomes   map[string]float64
	Continuous map[string]ContinuousOutcome

	TotalCost   float64
	PointValue  float64
	AggValue    float64
	LocMonValue float64
	RegMonValue float64
	ExtraValue  float64
	Welfare     float64

	// Per-query report projection (SlotReport's values/payments/answered
	// restricted to the lane's resident queries).
	Values   map[string]float64
	Payments map[string]float64
	Answered map[string]bool

	Events    []EventNotification
	Selection SelectionStats

	// SelectMs is the lane's own selection wall time in milliseconds —
	// node-side compute for remote lanes, excluding the RPC.
	SelectMs float64
	// StepMs is the wall time a node lane spent stepping its world replica
	// into the slot and filtering the shard's offers out of the fleet's,
	// in milliseconds. In-process lanes leave it 0: they are handed the
	// offers the coordinator's own step produced.
	StepMs float64

	// exec is the in-process fast path: a partial produced by a local
	// lane keeps the original slotExec so reconciliation skips the
	// rebuild. Partials decoded off the wire leave it nil.
	exec *slotExec
}

// partialFromExec projects an executed selection pass into its
// serializable partial.
func partialFromExec(ex *slotExec, selectMs float64) *LanePartial {
	p := &LanePartial{
		Slot:        ex.report.Slot,
		Offers:      ex.report.Offers,
		Queries:     ex.queries,
		TotalCost:   ex.report.TotalCost,
		PointValue:  ex.report.PointValue,
		AggValue:    ex.report.AggValue,
		LocMonValue: ex.report.LocMonValue,
		RegMonValue: ex.report.RegMonValue,
		ExtraValue:  ex.report.ExtraValue,
		Welfare:     ex.report.Welfare,
		Values:      ex.report.values,
		Payments:    ex.report.payments,
		Answered:    ex.report.answered,
		Events:      ex.report.Events,
		Selection:   ex.report.Selection,
		SelectMs:    selectMs,
		exec:        ex,
	}
	if ex.mix != nil {
		p.SelectedIDs = make([]int, len(ex.mix.Multi.Selected))
		for i, s := range ex.mix.Multi.Selected {
			p.SelectedIDs[i] = s.ID
		}
		p.Trace = ex.mix.Multi.Trace
		p.Outcomes = make(map[string]float64, len(ex.mix.Multi.Outcomes))
		for id, out := range ex.mix.Multi.Outcomes {
			p.Outcomes[id] = out.Value
		}
		p.Continuous = ex.mix.Continuous
	}
	return p
}

// bind reconstructs the slotExec reconciliation works on. Partials from
// in-process lanes return their original exec; partials off the wire are
// rebuilt, resolving sensor IDs against the coordinator's own fleet (the
// node holds a replica of the same world, so IDs resolve 1:1). The
// rebuilt MultiOutcomes carry only Value — all reconciliation reads.
func (p *LanePartial) bind(byID map[int]*sensornet.Sensor) (*slotExec, error) {
	if p.exec != nil {
		return p.exec, nil
	}
	selected := make([]*sensornet.Sensor, len(p.SelectedIDs))
	for i, id := range p.SelectedIDs {
		s := byID[id]
		if s == nil {
			return nil, fmt.Errorf("ps: lane partial selects unknown sensor %d", id)
		}
		selected[i] = s
	}
	if len(p.Trace) != len(selected) {
		return nil, fmt.Errorf("ps: lane partial trace length %d does not match %d selected sensors",
			len(p.Trace), len(selected))
	}
	outcomes := make(map[string]*core.MultiOutcome, len(p.Outcomes))
	outs := make([]core.MultiOutcome, 0, len(p.Outcomes))
	for id, v := range p.Outcomes {
		outs = append(outs, core.MultiOutcome{Value: v})
		outcomes[id] = &outs[len(outs)-1]
	}
	report := &SlotReport{
		Slot:        p.Slot,
		Welfare:     p.Welfare,
		TotalCost:   p.TotalCost,
		SensorsUsed: len(selected),
		Offers:      p.Offers,
		PointValue:  p.PointValue,
		AggValue:    p.AggValue,
		LocMonValue: p.LocMonValue,
		RegMonValue: p.RegMonValue,
		ExtraValue:  p.ExtraValue,
		Events:      p.Events,
		Selection:   p.Selection,
		values:      orEmpty(p.Values),
		payments:    orEmpty(p.Payments),
		answered:    orEmptyBool(p.Answered),
	}
	return &slotExec{
		report:   report,
		selected: selected,
		queries:  p.Queries,
		mix: &core.MixSlotResult{
			Multi: &core.MultiResult{
				Selected:  selected,
				TotalCost: p.TotalCost,
				Trace:     p.Trace,
				Outcomes:  outcomes,
				Stats:     p.Selection,
			},
			PointValue:  p.PointValue,
			AggValue:    p.AggValue,
			LocMonValue: p.LocMonValue,
			RegMonValue: p.RegMonValue,
			ExtraValue:  p.ExtraValue,
			Continuous:  p.Continuous,
			TotalCost:   p.TotalCost,
		},
	}, nil
}

func orEmpty(m map[string]float64) map[string]float64 {
	if m == nil {
		return map[string]float64{}
	}
	return m
}

func orEmptyBool(m map[string]bool) map[string]bool {
	if m == nil {
		return map[string]bool{}
	}
	return m
}

// localLane adapts a per-shard Aggregator to the LaneRunner seam: the
// in-process lane every ShardedAggregator starts with.
type localLane struct {
	a *Aggregator
}

func (l *localLane) Submit(spec Spec) (SubmittedQuery, error) {
	return spec.materialize(l.a)
}

func (l *localLane) Cancel(id string) bool { return l.a.CancelQuery(id) }

func (l *localLane) RunLane(t int, offers []Offer) (*LanePartial, error) {
	start := time.Now()
	ex := l.a.executeSlot(t, offers, true)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	return partialFromExec(ex, ms), nil
}

func (l *localLane) FinishSlot(t int, selectedIDs []int) error {
	// Data acquisition already happened on the shared world's fleet; the
	// lane only retires consumed queries.
	l.a.retire(t)
	return nil
}

// NodeLane is the node-side runtime of one cluster shard: a full
// deterministic replica of the coordinator's world plus the shard's
// Algorithm 5 pipeline. The coordinator owns the clock; the node advances
// its replica one Step per run_slot command, computes the very offer
// slice the coordinator routed to the shard (same fleet, same seed, same
// partition — filtered in global offer order), executes the lane pass,
// and applies the coordinator's global commit before the next step so the
// replica's lifetime/privacy state never diverges. Everything a
// LanePartial carries is therefore bit-identical to what an in-process
// lane over the coordinator's own world would have produced.
type NodeLane struct {
	world *World
	part  GridPartition
	shard int
	agg   *Aggregator

	pending []core.Offer // the last Advance's shard-filtered offers
	stepMs  float64      // the last Advance's wall time
	byID    map[int]*sensornet.Sensor
}

// sensorIndex maps a fleet's sensors by ID. Fleet membership is fixed for
// a world's lifetime, so callers cache the index.
func sensorIndex(sensors []*sensornet.Sensor) map[int]*sensornet.Sensor {
	byID := make(map[int]*sensornet.Sensor, len(sensors))
	for _, s := range sensors {
		byID[s.ID] = s
	}
	return byID
}

// NewNodeLane builds the node-side runtime for one shard of a world
// partitioned into `shards`. Options mirror NewShardedAggregator's lane
// configuration: the baseline pipeline is overridden, so a node lane is
// configured exactly like the in-process lane it replaces.
func NewNodeLane(world *World, shards, shard int, opts ...Option) *NodeLane {
	a := NewAggregator(world, opts...)
	a.baseline = false
	return &NodeLane{
		world: world,
		part:  geo.NewGridPartition(world.Working, shards),
		shard: shard,
		agg:   a,
	}
}

// Shard returns the shard index the lane serves.
func (n *NodeLane) Shard() int { return n.shard }

// Slot returns the replica's current slot (-1 before the first Advance).
func (n *NodeLane) Slot() int { return n.world.Fleet.Slot() }

// Submit materializes an already-validated spec on the lane. Lockstep
// makes the bound window identical to what the coordinator recorded.
func (n *NodeLane) Submit(spec Spec) (SubmittedQuery, error) {
	if isNilSpec(spec) {
		return SubmittedQuery{}, errNilSpec
	}
	if err := spec.Validate(n.world); err != nil {
		return SubmittedQuery{}, err
	}
	return spec.materialize(n.agg)
}

// Cancel withdraws a query by ID.
func (n *NodeLane) Cancel(id string) bool { return n.agg.CancelQuery(id) }

// Advance steps the replica's fleet into slot t and caches the shard's
// offer slice. It fails if the replica is out of lockstep — the step must
// land exactly on the commanded slot.
func (n *NodeLane) Advance(t int) error {
	start := time.Now()
	offers := n.world.Fleet.Step()
	if got := n.world.Fleet.Slot(); got != t {
		return fmt.Errorf("ps: node replica out of lockstep: stepped to slot %d, coordinator commands %d", got, t)
	}
	n.pending = n.pending[:0]
	for _, o := range offers {
		if n.part.ShardOf(o.Sensor.Pos) == n.shard {
			n.pending = append(n.pending, o)
		}
	}
	n.stepMs = float64(time.Since(start).Nanoseconds()) / 1e6
	return nil
}

// RunSlot advances to slot t and executes the lane's selection pass over
// the shard's offers, returning the serializable partial.
func (n *NodeLane) RunSlot(t int) (*LanePartial, error) {
	if err := n.Advance(t); err != nil {
		return nil, err
	}
	start := time.Now()
	ex := n.agg.executeSlot(t, n.pending, true)
	p := partialFromExec(ex, float64(time.Since(start).Nanoseconds())/1e6)
	p.StepMs = n.stepMs
	return p, nil
}

// Commit applies slot t's global commit — every sensor any lane or the
// spanning pass selected, in replay order — to the replica's fleet and
// retires the lane's consumed queries. It must be called after RunSlot
// (or Advance, for slots where the lane's partial was discarded) and
// before the next slot's command.
func (n *NodeLane) Commit(t int, selectedIDs []int) error {
	if got := n.world.Fleet.Slot(); got != t {
		return fmt.Errorf("ps: node replica at slot %d cannot commit slot %d", got, t)
	}
	if n.byID == nil {
		n.byID = sensorIndex(n.world.Fleet.Sensors)
	}
	byID := n.byID
	selected := make([]*sensornet.Sensor, len(selectedIDs))
	for i, id := range selectedIDs {
		s := byID[id]
		if s == nil {
			return fmt.Errorf("ps: commit names unknown sensor %d", id)
		}
		selected[i] = s
	}
	n.world.Fleet.Commit(selected)
	n.agg.retire(t)
	return nil
}
