package ps

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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
// the coordinator's reconciliation pass reads of a lane, whether the lane
// ran in-process or on a remote node, and of the spanning pass. All floats
// are exact: the binary codec (AppendBinary / DecodeLanePartial) carries a
// float64 as its 64 bits, so a partial that crossed the network merges
// into the same SlotReport an in-process lane would have produced.
type LanePartial struct {
	Slot    int
	Queries int

	// SelectedIDs lists the committed sensors in selection order, aligned
	// index-for-index with Trace.
	SelectedIDs []int
	Trace       []SelectionStep

	// Outcomes (each joint-selection query's value) and Continuous (each
	// continuous query's outcome), both ascending by ID, are what
	// reconciliation re-sums the per-type values from.
	Outcomes   []LaneValue
	Continuous []ContinuousOutcome

	Welfare float64

	// Results is the lane report's per-query results, ascending by ID:
	// every query with a positive value, a booked payment or a satisfied
	// continuous sample.
	Results []LaneResult

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
}

// LaneValue is one entry of a lane partial's Outcomes: a query ID and the
// value the joint pass obtained for it.
type LaneValue struct {
	ID    string
	Value float64
}

// partialFromExec projects an executed selection pass into its
// serializable partial. Results shares the report's sealed results.
func partialFromExec(ex *slotExec, selectMs float64) *LanePartial {
	p := &LanePartial{
		Slot:        ex.report.Slot,
		Queries:     ex.queries,
		Welfare:     ex.report.Welfare,
		Results:     ex.report.results,
		Events:      ex.report.Events,
		Selection:   ex.report.Selection,
		SelectMs:    selectMs,
		SelectedIDs: make([]int, len(ex.mix.Multi.Selected)),
		Trace:       ex.mix.Multi.Trace,
		Outcomes:    ex.outcomeIndex(),
		Continuous:  ex.mix.Continuous,
	}
	for i, s := range ex.mix.Multi.Selected {
		p.SelectedIDs[i] = s.ID
	}
	return p
}

// ascendingIDs reports whether the entries' IDs strictly ascend.
func ascendingIDs[T any](s []T, id func(*T) string) bool {
	for i := 1; i < len(s); i++ {
		if id(&s[i-1]) >= id(&s[i]) {
			return false
		}
	}
	return true
}

func laneValueID(v *LaneValue) string { return v.ID }

func laneResultID(r *LaneResult) string { return r.ID }

func continuousID(c *ContinuousOutcome) string { return c.ID }

// outcomeIndex returns the joint pass's outcome values ascending by query
// ID: a lane partial's Outcomes. Of a repeated ID the last query's
// outcome stays.
func (ex *slotExec) outcomeIndex() []LaneValue {
	idx := make([]LaneValue, len(ex.mix.Queries))
	for i, q := range ex.mix.Queries {
		idx[i] = LaneValue{ID: q.QID(), Value: ex.mix.Multi.Outcomes[i].Value}
	}
	slices.SortStableFunc(idx, func(a, b LaneValue) int { return strings.Compare(a.ID, b.ID) })
	w := 0
	for i := 1; i < len(idx); i++ {
		if idx[i].ID != idx[w].ID {
			w++
		}
		idx[w] = idx[i]
	}
	if len(idx) > 0 {
		idx = idx[:w+1]
	}
	return idx
}

// outcomeValue returns the value query id obtained in the lane's joint
// pass, and whether the pass ran it.
func (p *LanePartial) outcomeValue(id string) (float64, bool) {
	i, ok := slices.BinarySearchFunc(p.Outcomes, id, func(e LaneValue, id string) int { return strings.Compare(e.ID, id) })
	if !ok {
		return 0, false
	}
	return p.Outcomes[i].Value, true
}

// continuousDelta returns the slot's value delta of the continuous query
// id, and whether the lane ran it.
func (p *LanePartial) continuousDelta(id string) (float64, bool) {
	cs := p.Continuous
	i, ok := slices.BinarySearchFunc(cs, id, func(c ContinuousOutcome, id string) int { return strings.Compare(c.ID, id) })
	if !ok {
		return 0, false
	}
	return cs[i].ValueDelta, true
}

// check vets a lane's partial for slot t against the offers the lane was
// routed, before reconciliation reads it: every trace step must name one
// of those offers, none twice, at the offer's own cost, and the sensor
// the selection lists at its index, and the ID-keyed sections must
// ascend strictly. seen is scratch of len(offers), its contents
// unspecified; check overwrites it. A remote node's partial is untrusted
// input; one that fails degrades its lane instead of merging.
func (p *LanePartial) check(t int, offers []Offer, seen []bool) error {
	if p == nil {
		return errors.New("ps: lane returned no partial")
	}
	if p.Slot != t {
		return fmt.Errorf("ps: lane partial for slot %d, want %d", p.Slot, t)
	}
	if len(p.Trace) != len(p.SelectedIDs) {
		return fmt.Errorf("ps: lane partial trace length %d does not match %d selected sensors",
			len(p.Trace), len(p.SelectedIDs))
	}
	clear(seen)
	for i, st := range p.Trace {
		if st.Offer < 0 || st.Offer >= len(offers) {
			return fmt.Errorf("ps: lane partial commits offer %d of %d", st.Offer, len(offers))
		}
		if seen[st.Offer] {
			return fmt.Errorf("ps: lane partial commits offer %d twice", st.Offer)
		}
		seen[st.Offer] = true
		o := offers[st.Offer]
		if id := o.Sensor.ID; id != p.SelectedIDs[i] {
			return fmt.Errorf("ps: lane partial commits offer %d (sensor %d) as sensor %d", st.Offer, id, p.SelectedIDs[i])
		}
		if math.Float64bits(st.Cost) != math.Float64bits(o.Cost) {
			return fmt.Errorf("ps: lane partial commits offer %d at cost %v, offered at %v", st.Offer, st.Cost, o.Cost)
		}
	}
	if !ascendingIDs(p.Outcomes, laneValueID) || !ascendingIDs(p.Continuous, continuousID) ||
		!ascendingIDs(p.Results, laneResultID) {
		return errors.New("ps: lane partial sections are not in strictly ascending ID order")
	}
	return nil
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
	ex := l.a.executeSlot(t, offers)
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
// partitioned into `shards`, selecting exactly like the in-process lane
// it replaces.
func NewNodeLane(world *World, shards, shard int) *NodeLane {
	return &NodeLane{
		world: world,
		part:  geo.NewGridPartition(world.Working, shards),
		shard: shard,
		agg:   NewAggregator(world),
	}
}

// Shard returns the shard index the lane serves.
func (n *NodeLane) Shard() int { return n.shard }

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
	ex := n.agg.executeSlot(t, n.pending)
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
