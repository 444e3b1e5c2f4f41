package ps

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/gp"
)

// planningDemand drives a monitor-shaped workload into submit: four
// region-monitoring queries re-issued every ten slots (two overlapping in
// the first quadrant, so some sensors have k(s) = 2 in Eq. 18, two apart
// in the fourth), location monitoring, event detection and point demand,
// all inside quadrantInner so that every query is resident in one of
// four shards.
func planningDemand(t int, submit func(Spec)) {
	if t%10 == 0 {
		for i, r := range []Rect{
			NewRect(22, 22, 29, 29), NewRect(25, 25, 32, 32),
			NewRect(47, 47, 52, 52), NewRect(53, 52, 58, 58),
		} {
			submit(RegionMonitoringSpec{ID: fmt.Sprintf("rm-%d-%d", t, i), Region: r, Duration: 10, Budget: 200})
		}
		submit(LocationMonitoringSpec{ID: fmt.Sprintf("lm-%d", t), Loc: Pt(50, 25), Duration: 10, Budget: 80, Samples: 4})
		submit(EventDetectionSpec{ID: fmt.Sprintf("ev-%d", t), Loc: Pt(28, 52), Duration: 10, Threshold: 0.7, Confidence: 0.8, BudgetPerSlot: 30})
	}
	for i, box := range quadrantInner {
		x := box.MinX + float64((i*29+t*7)%13)
		y := box.MinY + float64((i*41+t*17)%13)
		submit(PointSpec{ID: fmt.Sprintf("pt-%d-%d", t, i), Loc: Pt(x, y), Budget: 10 + float64(i%3)})
	}
}

// planningRun runs planningDemand for 25 slots at the given GOMAXPROCS,
// on an Aggregator or on a ShardedAggregator of four shards (whose two
// lanes holding region queries then plan inside the lane fan-out), and
// returns each slot's report snapshot and selection counters.
func planningRun(t *testing.T, procs int, sharded bool) ([]reportSnapshot, []SelectionStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	world := NewRWMWorld(3, 500, SensorConfig{})
	world.GPModel = gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.2)
	var run interface {
		Submit(Spec) (SubmittedQuery, error)
		RunSlot() *SlotReport
	} = NewAggregator(world)
	if sharded {
		run = NewShardedAggregator(world, 4)
	}
	var snaps []reportSnapshot
	var stats []SelectionStats
	for slot := 0; slot < 25; slot++ {
		planningDemand(slot, func(spec Spec) {
			if _, err := run.Submit(spec); err != nil {
				t.Fatalf("Submit(%s %q): %v", spec.Kind(), spec.QueryID(), err)
			}
		})
		r := run.RunSlot()
		if sharded && r.Shards[len(r.Shards)-1].Queries != 0 {
			t.Fatalf("slot %d: %d queries in the spanning pass, want every query resident", slot, r.Shards[len(r.Shards)-1].Queries)
		}
		snaps = append(snaps, snapshot(r))
		stats = append(stats, r.Selection)
	}
	return snaps, stats
}

// TestRegionPlanningIgnoresGOMAXPROCS: region-monitoring planning runs
// its queries on min(GOMAXPROCS, active) workers, and GOMAXPROCS must not
// change a bit of any slot — welfare, per-type values, every outcome and
// the selection counters, the posterior appends and rebuilds among them —
// unsharded, or nested inside the sharded lanes' own fan-out. The run
// spans two re-issues of the region queries, so start-slot resets and
// base-posterior rebuilds happen in it. The final welfare and the total
// appends are pinned, so both sides cannot drift together.
func TestRegionPlanningIgnoresGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name        string
		sharded     bool
		welfareBits uint64
		appends     int64
	}{
		{"aggregator", false, 0x4038eb9a19f9f1c0, 71},
		{"sharded", true, 0x4038eb9a19f9f1c0, 71},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, oneStats := planningRun(t, 1, tc.sharded)
			four, fourStats := planningRun(t, 4, tc.sharded)
			var appends, rebuilds int64
			for slot := range one {
				requireIdentical(t, slot, one[slot], four[slot])
				if oneStats[slot] != fourStats[slot] {
					t.Fatalf("slot %d: selection counters %+v at GOMAXPROCS 1, %+v at 4", slot, oneStats[slot], fourStats[slot])
				}
				appends += oneStats[slot].PosteriorAppends
				rebuilds += oneStats[slot].PosteriorRebuilds
			}
			last := one[len(one)-1].welfare
			t.Logf("final welfare %v (bits %#x), %d posterior appends, %d rebuilds", last, math.Float64bits(last), appends, rebuilds)
			if math.Float64bits(last) != tc.welfareBits || appends != tc.appends {
				t.Errorf("final welfare bits %#x and %d appends, pinned %#x and %d", math.Float64bits(last), appends, tc.welfareBits, tc.appends)
			}
		})
	}
}
