package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	ps "repro"
	"repro/wire"
)

// goldenClusterFrames are one frame of each type, in clusterSeeds' order:
// the frame the first eleven seeds decode to.
func goldenClusterFrames(t *testing.T) []wire.ClusterFrame {
	point, err := ps.AppendSpecBinary(nil, ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ps.AppendSpecBinary(nil, ps.AggregateSpec{ID: "a", Region: ps.NewRect(20, 20, 40, 40), Budget: 250})
	if err == nil {
		batch, err = ps.AppendSpecBinary(batch, ps.TrajectorySpec{ID: "t", Path: ps.Trajectory{Waypoints: []ps.Point{ps.Pt(25, 42), ps.Pt(55, 42)}}, Budget: 150})
	}
	if err != nil {
		t.Fatal(err)
	}
	partial := &ps.LanePartial{
		Slot: 3, Offers: 12, Queries: 2,
		SelectedIDs: []int{5, 2},
		Trace:       []ps.SelectionStep{{Offer: 4, SensorID: 5, Cost: 0.5, Net: 2.25}, {Offer: 1, SensorID: 2, Cost: 0.25, Net: 1.5}},
		Outcomes:    []ps.LaneValue{{ID: "q1", Value: 3.5}},
		TotalCost:   0.75, PointValue: 3.5, Welfare: 2.75,
		Values:   []ps.LaneValue{{ID: "q1", Value: 3.5}},
		Payments: []ps.LaneValue{{ID: "q1", Value: 0.5}},
		SelectMs: 0.4, StepMs: 0.1,
	}
	v := wire.ClusterVersion
	return []wire.ClusterFrame{
		{V: v, Type: wire.ClusterHello, Seq: 1, Epoch: 1, Node: "n0", Config: &wire.NodeConfig{World: "rwm", Seed: 21, Sensors: 220, Shards: 4, Shard: 0}},
		{V: v, Type: wire.ClusterResync, Seq: 2, Epoch: 2, Node: "n0", Config: &wire.NodeConfig{World: "intellab", Seed: 7, Shards: 2, Shard: 1}, Ops: []wire.ClusterOp{
			{Op: "submits", Specs: point}, {Op: "cancel", ID: "q2"}, {Op: "slot", Slot: 0, Selected: []int{3, 1, 7}, Ran: true}, {Op: "slot", Slot: 1},
		}},
		{V: v, Type: wire.ClusterSubmits, Seq: 3, Epoch: 1, Specs: batch},
		{V: v, Type: wire.ClusterCancel, Seq: 4, Epoch: 1, ID: "q1"},
		{V: v, Type: wire.ClusterRunSlot, Seq: 6, Epoch: 1, Slot: 3},
		{V: v, Type: wire.ClusterCommit, Seq: 7, Epoch: 1, Slot: 3, Selected: []int{5, 2, 9}},
		{V: v, Type: wire.ClusterPing, Seq: 8, Epoch: 1, Facts: []wire.Fact{{Subject: "n0", Attribute: "alive", Value: "1", TTLMs: 1500}}},
		{V: v, Type: wire.ClusterOK, Seq: 4, Epoch: 1, Applied: 17, Removed: true},
		{V: v, Type: wire.ClusterOK, Seq: 2, Epoch: 2},
		{V: v, Type: wire.ClusterPartial, Seq: 6, Epoch: 1, Slot: 3, Applied: 4, Partial: partial},
		{V: v, Type: wire.ClusterError, Seq: 9, Epoch: 2, Applied: 3, Error: "ps: stale cluster epoch", Code: wire.CodeStaleEpoch},
	}
}

// TestClusterFrameGolden pins the v6 frame layout: one frame of each type
// encodes to its golden bytes, and those bytes decode to that frame. A
// change here is a wire break, which takes a new ClusterVersion.
func TestClusterFrameGolden(t *testing.T) {
	seen := map[string]bool{}
	for i, want := range goldenClusterFrames(t) {
		golden := mustHex(t, clusterSeeds[i])
		got, err := wire.MarshalClusterFrame(want)
		if err != nil {
			t.Fatalf("%s frame: %v", want.Type, err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s frame encodes to\n %x\nwant\n %x", want.Type, got, golden)
		}
		back, err := wire.DecodeClusterFrame(golden)
		if err != nil {
			t.Fatalf("%s frame: golden bytes do not decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Errorf("%s frame decodes to\n %+v\nwant\n %+v", want.Type, back, want)
		}
		seen[want.Type] = true
	}
	if len(seen) != 10 {
		t.Errorf("golden frames cover %d types, want all 10", len(seen))
	}
}
