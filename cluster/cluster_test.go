package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	ps "repro"
	"repro/cluster"
	"repro/internal/obs"
	"repro/wire"
)

// quadrantInner are interior boxes of the four shards of the RWM working
// region (15..65 split at 40), mirroring the root package's golden
// workload: queries whose padded footprint stays inside one box are
// resident in that shard.
var quadrantInner = []ps.Rect{
	ps.NewRect(21, 21, 34, 34),
	ps.NewRect(46, 21, 59, 34),
	ps.NewRect(21, 46, 34, 59),
	ps.NewRect(46, 46, 59, 59),
}

// startNode runs a NodeServer on a loopback listener and returns its
// dial address.
func startNode(t *testing.T, name string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := cluster.NewNodeServer(name)
	go node.Serve(ln)
	t.Cleanup(node.Close)
	return ln.Addr().String()
}

func startNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for k := range addrs {
		addrs[k] = startNode(t, fmt.Sprintf("node%d", k))
	}
	return addrs
}

// outcomeSnap and reportSnap capture the exported comparable surface of
// a SlotReport for exact-float comparison.
type outcomeSnap struct {
	Answered       bool
	Value, Payment float64
}

type reportSnap struct {
	Slot, SensorsUsed, Offers, Events                                              int
	Welfare, TotalCost, PointValue, AggValue, LocMonValue, RegMonValue, ExtraValue float64
	Outcomes                                                                       map[string]outcomeSnap
}

func snap(rep *ps.SlotReport) reportSnap {
	s := reportSnap{
		Slot: rep.Slot, SensorsUsed: rep.SensorsUsed, Offers: rep.Offers, Events: len(rep.Events),
		Welfare: rep.Welfare, TotalCost: rep.TotalCost,
		PointValue: rep.PointValue, AggValue: rep.AggValue, LocMonValue: rep.LocMonValue,
		RegMonValue: rep.RegMonValue, ExtraValue: rep.ExtraValue,
		Outcomes: map[string]outcomeSnap{},
	}
	for id, o := range rep.Outcomes() {
		s.Outcomes[id] = outcomeSnap{Answered: o.Answered, Value: o.Value, Payment: o.Payment}
	}
	return s
}

// requireIdentical compares two snapshots with exact float equality: the
// two paths must have executed the same arithmetic, not similar
// arithmetic.
// requireConserved fails unless the slot's published payments kept Eq.
// 11 on every lane, the spanning pass included.
func requireConserved(t *testing.T, slot int, rep *ps.SlotReport) {
	t.Helper()
	if v := rep.Selection.ConservationViolations; v != 0 {
		t.Fatalf("slot %d: %d conservation violations", slot, v)
	}
}

func requireIdentical(t *testing.T, slot int, local, clustered reportSnap) {
	t.Helper()
	if local.Slot != clustered.Slot || local.Offers != clustered.Offers ||
		local.SensorsUsed != clustered.SensorsUsed || local.Events != clustered.Events {
		t.Fatalf("slot %d: shape diverged:\n local   %+v\n cluster %+v", slot, local, clustered)
	}
	if local.Welfare != clustered.Welfare || local.TotalCost != clustered.TotalCost {
		t.Fatalf("slot %d: welfare/cost diverged: %v/%v != %v/%v",
			slot, local.Welfare, local.TotalCost, clustered.Welfare, clustered.TotalCost)
	}
	if local.PointValue != clustered.PointValue || local.AggValue != clustered.AggValue ||
		local.LocMonValue != clustered.LocMonValue || local.RegMonValue != clustered.RegMonValue ||
		local.ExtraValue != clustered.ExtraValue {
		t.Fatalf("slot %d: per-type values diverged:\n local   %+v\n cluster %+v", slot, local, clustered)
	}
	if len(local.Outcomes) != len(clustered.Outcomes) {
		t.Fatalf("slot %d: outcome count %d != %d", slot, len(local.Outcomes), len(clustered.Outcomes))
	}
	for id, lo := range local.Outcomes {
		if co, ok := clustered.Outcomes[id]; !ok || lo != co {
			t.Fatalf("slot %d: outcome %q diverged: %+v != %+v", slot, id, lo, clustered.Outcomes[id])
		}
	}
}

// TestClusterGoldenEquivalence is the tentpole's correctness bar: a
// 4-node loopback cluster — separate processes' worth of world replicas,
// partials crossing real TCP sockets — reproduces the
// single-process sharded SlotReport bit for bit on the golden six-kind
// shard-resident workload.
func TestClusterGoldenEquivalence(t *testing.T) {
	const seed, sensors, slots = 21, 220, 6
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: seed, Sensors: sensors, Shards: 4,
		Nodes: startNodes(t, 4), RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	clustered := co.Sharded()
	local := ps.NewShardedAggregator(ps.NewRWMWorld(seed, sensors, ps.SensorConfig{}), 4)

	submit := func(spec ps.Spec) {
		t.Helper()
		if _, err := local.Submit(spec); err != nil {
			t.Fatalf("local Submit(%q): %v", spec.QueryID(), err)
		}
		if _, err := clustered.Submit(spec); err != nil {
			t.Fatalf("cluster Submit(%q): %v", spec.QueryID(), err)
		}
	}

	for q, box := range quadrantInner {
		c := box.Center()
		submit(ps.LocationMonitoringSpec{
			ID: fmt.Sprintf("lm-%d", q), Loc: c, Duration: slots, Budget: 150, Samples: 4,
		})
		submit(ps.EventDetectionSpec{
			ID: fmt.Sprintf("ev-%d", q), Loc: ps.Pt(c.X+2, c.Y-3), Duration: slots,
			Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30,
		})
		submit(ps.RegionEventSpec{
			ID:       fmt.Sprintf("re-%d", q),
			Region:   ps.NewRect(box.MinX, box.MinY, box.MinX+10, box.MinY+10),
			Duration: slots, Threshold: 0.5, Confidence: 0.5, BudgetPerSlot: 60,
		})
	}
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 6; i++ {
				x := box.MinX + float64((i*37+slot*11+q*5)%13)
				y := box.MinY + float64((i*53+slot*29+q*3)%13)
				submit(ps.PointSpec{
					ID: fmt.Sprintf("pt-%d-%d-%d", slot, q, i), Loc: ps.Pt(x, y),
					Budget: 10 + float64(i%7),
				})
			}
			submit(ps.MultiPointSpec{
				ID: fmt.Sprintf("mp-%d-%d", slot, q), Loc: box.Center(), Budget: 60, K: 3,
			})
			submit(ps.AggregateSpec{
				ID:     fmt.Sprintf("agg-%d-%d", slot, q),
				Region: ps.NewRect(box.MinX+1, box.MinY+1, box.MaxX-1, box.MaxY-1),
				Budget: 250,
			})
		}
		lr, cr := local.RunSlot(), clustered.RunSlot()
		requireIdentical(t, slot, snap(lr), snap(cr))
		requireConserved(t, slot, cr)
		if len(cr.Degraded) != 0 {
			t.Fatalf("slot %d: degraded lanes %v on a healthy cluster", slot, cr.Degraded)
		}
	}
	for _, m := range co.Membership() {
		if m.State != "live" || m.Epoch != 1 {
			t.Errorf("member %+v, want live at epoch 1", m)
		}
	}
}

// TestClusterGoldenEquivalenceRegionMonitoring covers the GP-model kind
// over the wire: a region monitor resident in one of two IntelLab nodes.
func TestClusterGoldenEquivalenceRegionMonitoring(t *testing.T) {
	const seed, slots = 5, 6
	co, err := cluster.New(cluster.Config{
		World: "intellab", Seed: seed, Shards: 2,
		Nodes: startNodes(t, 2), RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	local := ps.NewShardedAggregator(ps.NewIntelLabWorld(seed, ps.SensorConfig{}), 2)
	submit := func(spec ps.Spec) {
		t.Helper()
		if _, err := local.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := co.Sharded().Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	// IntelLab is 20x15 with dmax = 2: the partition splits at x = 10.
	submit(ps.RegionMonitoringSpec{
		ID: "rm", Region: ps.NewRect(1, 1, 7, 12), Duration: slots, Budget: 200,
	})
	for slot := 0; slot < slots; slot++ {
		submit(ps.PointSpec{ID: fmt.Sprintf("pt-%d", slot), Loc: ps.Pt(15, 8), Budget: 15})
		requireIdentical(t, slot, snap(local.RunSlot()), snap(co.Sharded().RunSlot()))
	}
}

// TestClusterMixedLocalRemote: a cluster where only some shards are
// remote still merges bit-identically.
func TestClusterMixedLocalRemote(t *testing.T) {
	const seed, sensors, slots = 33, 200, 4
	addrs := []string{"", startNode(t, "node1"), "", startNode(t, "node3")}
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: seed, Sensors: sensors, Shards: 4,
		Nodes: addrs, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	local := ps.NewShardedAggregator(ps.NewRWMWorld(seed, sensors, ps.SensorConfig{}), 4)
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 8; i++ {
				x := box.MinX + float64((i*29+slot*7+q)%13)
				y := box.MinY + float64((i*41+slot*17+q)%13)
				spec := ps.PointSpec{
					ID: fmt.Sprintf("p-%d-%d-%d", slot, q, i), Loc: ps.Pt(x, y),
					Budget: 8 + float64(i%5),
				}
				if _, err := local.Submit(spec); err != nil {
					t.Fatal(err)
				}
				if _, err := co.Sharded().Submit(spec); err != nil {
					t.Fatal(err)
				}
			}
		}
		requireIdentical(t, slot, snap(local.RunSlot()), snap(co.Sharded().RunSlot()))
	}
	states := map[string]string{}
	for _, m := range co.Membership() {
		states[m.Node] = m.State
	}
	want := map[string]string{"local": "local", "node1": "live", "node3": "live"}
	for node, st := range want {
		if states[node] != st {
			t.Errorf("membership[%s] = %q, want %q (all: %v)", node, states[node], st, states)
		}
	}
}

// TestClusterStaleEpochFencing: a node hijacked onto another epoch (as a
// restarted or foreign-coordinator node would be) is fenced — the slot
// degrades with ps.ErrStaleEpoch, the rejection is counted — and the
// next slot resyncs the node onto a fresh epoch. The hijack lands between
// a slot's posted submits and its run_slot: none of them may be applied
// under the rogue generation, and none may be lost.
func TestClusterStaleEpochFencing(t *testing.T) {
	const seed, sensors = 7, 60
	addr := startNode(t, "node0")
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: seed, Sensors: sensors, Shards: 1,
		Nodes: []string{addr}, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	reg := obs.NewRegistry()
	co.BindMetrics(reg)
	rejections := reg.Counter("ps_cluster_epoch_rejections_total", "Cluster frames discarded by epoch fencing (stale node generations).")

	if _, err := co.Sharded().Submit(ps.LocationMonitoringSpec{
		ID: "lm", Loc: ps.Pt(40, 40), Duration: 4, Budget: 100, Samples: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if rep := co.Sharded().RunSlot(); len(rep.Degraded) != 0 {
		t.Fatalf("slot 0 degraded: %v", rep.Degraded)
	}

	// Slot 1's submits are posted, then a rogue hello moves the node onto
	// epoch 99; the coordinator's lane is still on epoch 1.
	for _, spec := range []ps.Spec{
		ps.EventDetectionSpec{ID: "ev", Loc: ps.Pt(30, 30), Duration: 3, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30},
		ps.PointSpec{ID: "pt", Loc: ps.Pt(35, 35), Budget: 12},
	} {
		if _, err := co.Sharded().Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	rogue := hijackNode(t, addr, 99)

	rep := co.Sharded().RunSlot()
	if len(rep.Degraded) != 1 || !errors.Is(rep.Degraded[0].Err, ps.ErrStaleEpoch) {
		t.Fatalf("slot 1 Degraded = %v, want one ps.ErrStaleEpoch lane", rep.Degraded)
	}
	if rejections.Value() < 1 {
		t.Error("epoch rejection not counted")
	}
	// The rogue generation's lane never saw the epoch-1 submits.
	resp := rogue.call(wire.ClusterFrame{Type: wire.ClusterRunSlot, Slot: 0}, 99)
	if resp.Type != wire.ClusterPartial || resp.Partial.Queries != 0 {
		t.Fatalf("rogue generation's slot = %+v (partial %+v), want a partial with no queries", resp, resp.Partial)
	}

	rep = co.Sharded().RunSlot()
	if len(rep.Degraded) != 0 {
		t.Fatalf("slot 2 still degraded after resync: %v", rep.Degraded)
	}
	m := co.Membership()
	if len(m) != 1 || m[0].State != "live" || m[0].Epoch != 2 {
		t.Fatalf("membership after refence = %+v, want live at epoch 2", m)
	}
	// The resync replayed the fenced submit: the node holds the query.
	if !co.Sharded().CancelQuery("ev") {
		t.Error("continuous query posted before the hijack is gone after the resync")
	}
}

// TestClusterConfigValidation pins New's fail-fast checks.
func TestClusterConfigValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Config{World: "moon", Shards: 2}); err == nil {
		t.Error("unknown world accepted")
	}
	if _, err := cluster.New(cluster.Config{World: "rwm", Sensors: 10, Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := cluster.New(cluster.Config{World: "rwm", Sensors: 10, Shards: 4, Nodes: []string{"x"}}); err == nil {
		t.Error("node/shard count mismatch accepted")
	}
	if _, err := cluster.New(cluster.Config{World: "rwm", Shards: 2}); err == nil {
		t.Error("rwm world without sensors accepted")
	}
	if _, err := cluster.New(cluster.Config{
		World: "rwm", Sensors: 10, Shards: 1, Nodes: []string{"127.0.0.1:1"},
		RPCTimeout: 200 * time.Millisecond,
	}); !errors.Is(err, ps.ErrNodeUnavailable) {
		t.Errorf("unreachable node at startup: err = %v, want ps.ErrNodeUnavailable", err)
	}
}
