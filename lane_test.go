package ps

import (
	"errors"
	"fmt"
	"testing"
)

// wireLane wraps a NodeLane behind a codec round-trip of every partial —
// the in-process stand-in for a remote shard node. Because it is not a
// *localLane, RunSlot dispatches it on the remote fan-out path (lane_rpc
// and gather stages) and reconciliation binds its partials exactly as it
// would bind ones decoded off a socket. The NodeLane holds its own world
// replica, so this also exercises the lockstep model end to end.
type wireLane struct {
	n *NodeLane
	// failSlot makes RunLane fail for one slot, simulating a node dying
	// mid-slot; FinishSlot then catches the replica up the way a resync
	// replay would (step + commit, no execution).
	failSlot int
	// forged is added to every partial's ConservationViolations before
	// encoding, standing in for a node whose selection counted them.
	forged int64
}

func (w *wireLane) Submit(spec Spec) (SubmittedQuery, error) { return w.n.Submit(spec) }

func (w *wireLane) Cancel(id string) bool { return w.n.Cancel(id) }

func (w *wireLane) RunLane(t int, _ []Offer) (*LanePartial, error) {
	if t == w.failSlot {
		return nil, fmt.Errorf("lane test: node lost mid-slot: %w", ErrNodeUnavailable)
	}
	p, err := w.n.RunSlot(t)
	if err != nil {
		return nil, err
	}
	p.Selection.ConservationViolations += w.forged
	return DecodeLanePartial(p.AppendBinary(nil))
}

func (w *wireLane) FinishSlot(t int, selectedIDs []int) error {
	if w.n.Slot() != t {
		// The replica missed this slot's execution (RunLane failed); it
		// still steps and commits so the next slot stays in lockstep.
		if err := w.n.Advance(t); err != nil {
			return err
		}
	}
	return w.n.Commit(t, selectedIDs)
}

// newWireSharded builds a ShardedAggregator whose every lane is a
// wireLane over its own world replica built from the same seed.
func newWireSharded(seed int64, sensors, shards int) *ShardedAggregator {
	sa := NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), shards)
	for k := 0; k < sa.ShardCount(); k++ {
		n := NewNodeLane(NewRWMWorld(seed, sensors, SensorConfig{}), sa.ShardCount(), k)
		sa.SetLaneRunner(k, &wireLane{n: n, failSlot: -2})
	}
	return sa
}

// TestRemoteLaneGoldenEquivalence: with every shard behind a wire lane —
// separate world replicas, serialized partials, remote dispatch —
// the merged SlotReports stay bit-identical to the all-local sharded
// layer on the golden six-kind workload.
func TestRemoteLaneGoldenEquivalence(t *testing.T) {
	const seed, sensors, slots = 21, 220, 6
	wired := newWireSharded(seed, sensors, 4)
	local := NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 4)
	submitBoth := func(spec Spec) {
		t.Helper()
		if _, err := local.Submit(spec); err != nil {
			t.Fatalf("local Submit(%q): %v", spec.QueryID(), err)
		}
		if _, err := wired.Submit(spec); err != nil {
			t.Fatalf("wire Submit(%q): %v", spec.QueryID(), err)
		}
	}

	for q, box := range quadrantInner {
		c := box.Center()
		submitBoth(LocationMonitoringSpec{
			ID: fmt.Sprintf("lm-%d", q), Loc: c, Duration: slots, Budget: 150, Samples: 4,
		})
		submitBoth(EventDetectionSpec{
			ID: fmt.Sprintf("ev-%d", q), Loc: Pt(c.X+2, c.Y-3), Duration: slots,
			Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30,
		})
	}
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 6; i++ {
				x := box.MinX + float64((i*37+slot*11+q*5)%13)
				y := box.MinY + float64((i*53+slot*29+q*3)%13)
				submitBoth(PointSpec{
					ID: fmt.Sprintf("pt-%d-%d-%d", slot, q, i), Loc: Pt(x, y),
					Budget: 10 + float64(i%7),
				})
			}
			submitBoth(MultiPointSpec{
				ID: fmt.Sprintf("mp-%d-%d", slot, q), Loc: box.Center(), Budget: 60, K: 3,
			})
			submitBoth(AggregateSpec{
				ID:     fmt.Sprintf("agg-%d-%d", slot, q),
				Region: NewRect(box.MinX+1, box.MinY+1, box.MaxX-1, box.MaxY-1),
				Budget: 250,
			})
		}
		lr, wr := local.RunSlot(), wired.RunSlot()
		requireIdentical(t, slot, snapshot(lr), snapshot(wr))
		requireConserved(t, slot, wr)
		if len(wr.Degraded) != 0 {
			t.Fatalf("slot %d: unexpected degraded lanes %v", slot, wr.Degraded)
		}
		// Remote dispatch must surface the lane_rpc and gather stages.
		seen := map[string]bool{}
		for _, st := range wr.Stages {
			seen[st.Stage] = true
		}
		if !seen[StageLaneRPC] || !seen[StageGather] {
			t.Fatalf("slot %d: stages %v missing %s/%s", slot, wr.Stages, StageLaneRPC, StageGather)
		}
	}
}

// TestLaneConservationViolationsReachCoordinator: a violation a node
// counts crosses the codec into the coordinator's slot report, once per
// slot and lane, on slots with work and without.
func TestLaneConservationViolationsReachCoordinator(t *testing.T) {
	sa := newWireSharded(5, 120, 4)
	sa.lanes[2].(*wireLane).forged = 2
	if _, err := sa.Submit(PointSpec{ID: "p", Loc: quadrantInner[2].Center(), Budget: 15}); err != nil {
		t.Fatal(err)
	}
	var got int64
	for slot := 0; slot < 2; slot++ {
		rep := sa.RunSlot()
		if len(rep.Degraded) != 0 {
			t.Fatalf("slot %d: degraded lanes %v", slot, rep.Degraded)
		}
		got += rep.Selection.ConservationViolations
	}
	if got != 4 {
		t.Fatalf("coordinator counts %d conservation violations, want 2 slots x 2", got)
	}
}

// TestShardedDegradedLane: a lane that dies mid-slot degrades that slot —
// the failure carries ps.ErrNodeUnavailable, the shard's stats entry stays
// zero but index-aligned, no deadlock — and the lane recovers the next
// slot once its replica catches up.
func TestShardedDegradedLane(t *testing.T) {
	const seed, sensors, slots = 21, 220, 3
	const down = 1 // slot during which shard 2's node is lost
	sa := NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 4)
	for k := 0; k < sa.ShardCount(); k++ {
		fail := -2
		if k == 2 {
			fail = down
		}
		n := NewNodeLane(NewRWMWorld(seed, sensors, SensorConfig{}), sa.ShardCount(), k)
		sa.SetLaneRunner(k, &wireLane{n: n, failSlot: fail})
	}
	for q, box := range quadrantInner {
		if _, err := sa.Submit(LocationMonitoringSpec{
			ID: fmt.Sprintf("lm-%d", q), Loc: box.Center(), Duration: slots, Budget: 120, Samples: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			if _, err := sa.Submit(PointSpec{
				ID: fmt.Sprintf("pt-%d-%d", slot, q), Loc: box.Center(), Budget: 15,
			}); err != nil {
				t.Fatal(err)
			}
		}
		rep := sa.RunSlot()
		requireConserved(t, slot, rep)
		if slot != down {
			if len(rep.Degraded) != 0 {
				t.Fatalf("slot %d: unexpected degraded lanes %v", slot, rep.Degraded)
			}
			if rep.Welfare <= 0 {
				t.Fatalf("slot %d: healthy slot produced welfare %v", slot, rep.Welfare)
			}
			continue
		}
		if len(rep.Degraded) != 1 || rep.Degraded[0].Shard != 2 {
			t.Fatalf("slot %d: Degraded = %v, want exactly shard 2", slot, rep.Degraded)
		}
		if !errors.Is(rep.Degraded[0].Err, ErrNodeUnavailable) {
			t.Fatalf("slot %d: degraded error %v does not wrap ErrNodeUnavailable", slot, rep.Degraded[0].Err)
		}
		// The lost lane contributed nothing: its resident queries have no
		// outcome this slot.
		for _, id := range []string{"pt-1-2", "lm-2"} {
			if rep.Answered(id) || rep.Value(id) != 0 || rep.Payment(id) != 0 {
				t.Fatalf("slot %d: shard 2 query %q has an outcome during its lane's outage", slot, id)
			}
		}
		if len(rep.Shards) != 5 || rep.Shards[2].Shard != 2 || rep.Shards[2].Queries != 0 {
			t.Fatalf("slot %d: shard stats misaligned: %+v", slot, rep.Shards)
		}
	}
}

// TestLanePartialBindRejectsCorruptPartials pins bind's defenses: a
// partial naming a sensor the coordinator does not know, or whose trace
// disagrees with its selection, must degrade rather than merge.
func TestLanePartialBindRejectsCorruptPartials(t *testing.T) {
	world := NewRWMWorld(3, 40, SensorConfig{})
	byID := sensorIndex(world.Fleet.Sensors)
	bad := &LanePartial{Slot: 0, SelectedIDs: []int{999999}, Trace: make([]SelectionStep, 1)}
	if _, err := bad.bind(byID); err == nil {
		t.Error("bind accepted a partial selecting an unknown sensor")
	}
	mismatch := &LanePartial{Slot: 0, SelectedIDs: []int{world.Fleet.Sensors[0].ID}}
	if _, err := mismatch.bind(byID); err == nil {
		t.Error("bind accepted a trace/selection length mismatch")
	}
}

// TestNodeLaneLockstepGuards pins the replica discipline: commands for
// the wrong slot are refused instead of silently desynchronizing.
func TestNodeLaneLockstepGuards(t *testing.T) {
	n := NewNodeLane(NewRWMWorld(3, 40, SensorConfig{}), 2, 0)
	if err := n.Advance(5); err == nil {
		t.Fatal("Advance(5) from slot -1 succeeded; want lockstep error")
	}
	n2 := NewNodeLane(NewRWMWorld(3, 40, SensorConfig{}), 2, 0)
	if err := n2.Commit(0, nil); err == nil {
		t.Fatal("Commit(0) before any Advance succeeded; want slot guard error")
	}
	n3 := NewNodeLane(NewRWMWorld(3, 40, SensorConfig{}), 2, 1)
	if _, err := n3.RunSlot(0); err != nil {
		t.Fatalf("RunSlot(0): %v", err)
	}
	if err := n3.Commit(0, []int{123456}); err == nil {
		t.Fatal("Commit with an unknown sensor ID succeeded")
	}
}
