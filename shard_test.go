package ps

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// quadrantInner are interior boxes of the four shards of the RWM working
// region (15..65 split at 40): every query whose relevance footprint
// (location or region padded by dmax = 5) stays inside one box is
// resident in that shard.
var quadrantInner = []Rect{
	NewRect(21, 21, 34, 34),
	NewRect(46, 21, 59, 34),
	NewRect(21, 46, 34, 59),
	NewRect(46, 46, 59, 59),
}

// submitPair submits the same spec to both aggregators under test.
type submitPair struct {
	t       *testing.T
	plain   *Aggregator
	sharded *ShardedAggregator
}

func (p submitPair) submit(spec Spec) {
	p.t.Helper()
	if _, err := p.plain.Submit(spec); err != nil {
		p.t.Fatalf("plain Submit(%s %q): %v", spec.Kind(), spec.QueryID(), err)
	}
	if _, err := p.sharded.Submit(spec); err != nil {
		p.t.Fatalf("sharded Submit(%s %q): %v", spec.Kind(), spec.QueryID(), err)
	}
}

// TestShardedGoldenEquivalence: on a fixed-seed RWM workload of six query
// kinds, all resident in one of four shards, the sharded execution layer
// produces SlotReports bit-identical (exact float equality on welfare,
// values and payments) to the unsharded Aggregator.
func TestShardedGoldenEquivalence(t *testing.T) {
	const seed, sensors, slots = 21, 220, 8
	pair := submitPair{
		t:       t,
		plain:   NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{})),
		sharded: NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 4),
	}
	if got := pair.sharded.ShardCount(); got != 4 {
		t.Fatalf("ShardCount = %d, want 4", got)
	}

	// Continuous demand: one location monitor, one event detector and one
	// region event watcher per shard.
	for q, box := range quadrantInner {
		c := box.Center()
		pair.submit(LocationMonitoringSpec{
			ID: fmt.Sprintf("lm-%d", q), Loc: c, Duration: slots, Budget: 150, Samples: 4,
		})
		pair.submit(EventDetectionSpec{
			ID: fmt.Sprintf("ev-%d", q), Loc: Pt(c.X+2, c.Y-3), Duration: slots,
			Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30,
		})
		pair.submit(RegionEventSpec{
			ID:       fmt.Sprintf("re-%d", q),
			Region:   NewRect(box.MinX, box.MinY, box.MinX+10, box.MinY+10),
			Duration: slots, Threshold: 0.5, Confidence: 0.5, BudgetPerSlot: 60,
		})
	}

	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 8; i++ {
				x := box.MinX + float64((i*37+slot*11+q*5)%13)
				y := box.MinY + float64((i*53+slot*29+q*3)%13)
				pair.submit(PointSpec{
					ID: fmt.Sprintf("pt-%d-%d-%d", slot, q, i), Loc: Pt(x, y),
					Budget: 10 + float64(i%7),
				})
			}
			pair.submit(MultiPointSpec{
				ID: fmt.Sprintf("mp-%d-%d", slot, q), Loc: box.Center(), Budget: 60, K: 3,
			})
			pair.submit(AggregateSpec{
				ID:     fmt.Sprintf("agg-%d-%d", slot, q),
				Region: NewRect(box.MinX+1, box.MinY+1, box.MaxX-1, box.MaxY-1),
				Budget: 250,
			})
			pair.submit(TrajectorySpec{
				ID: fmt.Sprintf("tr-%d-%d", slot, q),
				Path: Trajectory{Waypoints: []Point{
					Pt(box.MinX, box.MinY), Pt(box.Center().X, box.MaxY), Pt(box.MaxX, box.MinY),
				}},
				Budget: 120,
			})
		}
		lr, sr := pair.plain.RunSlot(), pair.sharded.RunSlot()
		requireIdentical(t, slot, snapshot(lr), snapshot(sr))
		// Every lane and the spanning pass pay out Eq. 11 exactly.
		requireConserved(t, slot, sr)

		if len(sr.Shards) != 5 {
			t.Fatalf("slot %d: %d shard entries, want 4 shards + spanning", slot, len(sr.Shards))
		}
		span := sr.Shards[len(sr.Shards)-1]
		if !span.Spanning || span.Queries != 0 {
			t.Fatalf("slot %d: spanning lane = %+v, want idle", slot, span)
		}
		for k, s := range sr.Shards[:4] {
			if s.Shard != k || s.Queries == 0 || s.Selection.ValuationCalls == 0 {
				t.Fatalf("slot %d: shard %d stats = %+v, want live per-shard work", slot, k, s)
			}
		}
	}
}

// TestShardedGoldenEquivalencePointOnly: a pure point workload routed
// through the sharded layer matches the default unsharded aggregator bit
// for bit — both run the same Algorithm 5 selection on point-only slots.
func TestShardedGoldenEquivalencePointOnly(t *testing.T) {
	const seed, sensors, slots = 33, 200, 6
	pair := submitPair{
		t:       t,
		plain:   NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{})),
		sharded: NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 4),
	}
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 10; i++ {
				x := box.MinX + float64((i*29+slot*7+q)%13)
				y := box.MinY + float64((i*41+slot*17+q)%13)
				pair.submit(PointSpec{
					ID: fmt.Sprintf("p-%d-%d-%d", slot, q, i), Loc: Pt(x, y),
					Budget: 8 + float64(i%5),
				})
			}
		}
		requireIdentical(t, slot, snapshot(pair.plain.RunSlot()), snapshot(pair.sharded.RunSlot()))
	}
}

// TestShardedGoldenEquivalenceRegionMonitoring covers the GP-model kind:
// a region monitor resident in one of two IntelLab shards.
func TestShardedGoldenEquivalenceRegionMonitoring(t *testing.T) {
	const seed, slots = 5, 6
	pair := submitPair{
		t:       t,
		plain:   NewAggregator(NewIntelLabWorld(seed, SensorConfig{})),
		sharded: NewShardedAggregator(NewIntelLabWorld(seed, SensorConfig{}), 2),
	}
	// IntelLab is 20x15 with dmax = 2: the partition splits at x = 10.
	// Region [1,7]x[1,12] pads to [-1,9]x[-1,14] — resident in shard 0.
	pair.submit(RegionMonitoringSpec{
		ID: "rm", Region: NewRect(1, 1, 7, 12), Duration: slots, Budget: 200,
	})
	for slot := 0; slot < slots; slot++ {
		// Point demand resident in shard 1 so sensors get shared there.
		pair.submit(PointSpec{ID: fmt.Sprintf("pt-%d", slot), Loc: Pt(15, 8), Budget: 15})
		requireIdentical(t, slot, snapshot(pair.plain.RunSlot()), snapshot(pair.sharded.RunSlot()))
	}
}

// TestShardedSpanningWorkload: queries crossing shard borders run in the
// spanning pass. They are served (not dropped), and the merged welfare
// stays within the documented bound of the unsharded pipeline's.
func TestShardedSpanningWorkload(t *testing.T) {
	const seed, sensors, slots = 7, 260, 6
	pair := submitPair{
		t:       t,
		plain:   NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{})),
		sharded: NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 4),
	}

	var plainWelfare, shardedWelfare float64
	var spanningAnswered int
	for slot := 0; slot < slots; slot++ {
		// Resident demand in every quadrant...
		for q, box := range quadrantInner {
			for i := 0; i < 6; i++ {
				x := box.MinX + float64((i*31+slot*13+q)%13)
				y := box.MinY + float64((i*47+slot*19+q)%13)
				pair.submit(PointSpec{
					ID: fmt.Sprintf("p-%d-%d-%d", slot, q, i), Loc: Pt(x, y), Budget: 12,
				})
			}
		}
		// ...plus cross-shard demand: a center aggregate spanning all four
		// shards and a trajectory crossing the vertical border.
		centerAgg := fmt.Sprintf("center-%d", slot)
		pair.submit(AggregateSpec{ID: centerAgg, Region: NewRect(30, 30, 50, 50), Budget: 400})
		crossTr := fmt.Sprintf("cross-%d", slot)
		pair.submit(TrajectorySpec{
			ID:     crossTr,
			Path:   Trajectory{Waypoints: []Point{Pt(25, 42), Pt(55, 42)}},
			Budget: 150,
		})

		lr, sr := pair.plain.RunSlot(), pair.sharded.RunSlot()
		plainWelfare += lr.Welfare
		shardedWelfare += sr.Welfare

		span := sr.Shards[len(sr.Shards)-1]
		if !span.Spanning || span.Queries != 2 {
			t.Fatalf("slot %d: spanning lane = %+v, want the 2 cross-shard queries", slot, span)
		}
		if sr.Answered(centerAgg) {
			spanningAnswered++
		}
		if sr.Answered(crossTr) {
			spanningAnswered++
		}
	}
	if spanningAnswered == 0 {
		t.Fatal("no spanning query was ever answered")
	}
	if plainWelfare <= 0 {
		t.Fatalf("degenerate fixture: unsharded welfare %v", plainWelfare)
	}
	// Spanning queries compete after the resident passes, so some welfare
	// is conceded; the DESIGN.md bound documents >= 80% on workloads where
	// cross-shard demand is a minority. Guard that here.
	if ratio := shardedWelfare / plainWelfare; ratio < 0.80 {
		t.Errorf("sharded welfare ratio %.3f below the documented 0.80 bound (sharded %.1f vs %.1f)",
			ratio, shardedWelfare, plainWelfare)
	}
}

// TestShardedDeterminism: two sharded runs over identical worlds produce
// identical reports and shard breakdowns — the concurrent per-shard fan-
// out must not leak scheduling nondeterminism into results.
func TestShardedDeterminism(t *testing.T) {
	const seed, sensors, slots = 11, 240, 5
	runs := make([][]*SlotReport, 2)
	for r := range runs {
		sa := NewShardedAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), 4)
		mustSubmit := func(spec Spec) {
			t.Helper()
			if _, err := sa.Submit(spec); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		mustSubmit(LocationMonitoringSpec{ID: "lm", Loc: Pt(25, 25), Duration: slots, Budget: 120, Samples: 3})
		for slot := 0; slot < slots; slot++ {
			for q, box := range quadrantInner {
				for i := 0; i < 5; i++ {
					mustSubmit(PointSpec{
						ID:     fmt.Sprintf("p-%d-%d-%d", slot, q, i),
						Loc:    Pt(box.MinX+float64(i*2), box.MinY+float64((i*3+slot)%12)),
						Budget: 15,
					})
				}
			}
			mustSubmit(AggregateSpec{ID: fmt.Sprintf("c-%d", slot), Region: NewRect(32, 32, 48, 48), Budget: 300})
			runs[r] = append(runs[r], sa.RunSlot())
		}
	}
	for slot := range runs[0] {
		a, b := runs[0][slot], runs[1][slot]
		requireIdentical(t, slot, snapshot(a), snapshot(b))
		// Lane wall timings (SelectMs) are machine noise, not part of the
		// determinism contract; everything else must match exactly.
		as, bs := slices.Clone(a.Shards), slices.Clone(b.Shards)
		for i := range as {
			as[i].SelectMs = 0
		}
		for i := range bs {
			bs[i].SelectMs = 0
		}
		if !reflect.DeepEqual(as, bs) {
			t.Fatalf("slot %d: shard breakdown diverged across reruns:\n%+v\n%+v", slot, as, bs)
		}
	}
}

// TestShardedCancelQuery: cancellation reaches whichever lane holds the
// query, including the spanning lane, and cleans the order registry.
func TestShardedCancelQuery(t *testing.T) {
	sa := NewShardedAggregator(NewRWMWorld(3, 100, SensorConfig{}), 4)
	if _, err := sa.Submit(LocationMonitoringSpec{ID: "resident", Loc: Pt(25, 25), Duration: 10, Budget: 100, Samples: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Submit(AggregateSpec{ID: "spanning", Region: NewRect(30, 30, 50, 50), Budget: 200}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"resident", "spanning"} {
		if !sa.CancelQuery(id) {
			t.Errorf("CancelQuery(%q) = false, want true", id)
		}
		if sa.CancelQuery(id) {
			t.Errorf("second CancelQuery(%q) = true, want false", id)
		}
	}
	rep := sa.RunSlot()
	if rep.Welfare != 0 || rep.SensorsUsed != 0 {
		t.Errorf("slot after cancellations did work: %+v", rep)
	}
}

// TestShardedEngine: the streaming engine drives a ShardedAggregator and
// threads the per-shard breakdown into EngineMetrics.
func TestShardedEngine(t *testing.T) {
	world := NewRWMWorld(9, 200, SensorConfig{})
	eng := NewShardedEngine(NewShardedAggregator(world, 4))
	eng.Start()
	defer eng.Stop()

	var handles []*QueryHandle
	for q, box := range quadrantInner {
		h, err := eng.Submit(PointSpec{ID: fmt.Sprintf("p-%d", q), Loc: box.Center(), Budget: 20})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		handles = append(handles, h)
	}
	spanning, err := eng.Submit(AggregateSpec{ID: "span", Region: NewRect(30, 30, 50, 50), Budget: 300})
	if err != nil {
		t.Fatalf("submit spanning: %v", err)
	}
	handles = append(handles, spanning)

	if err := eng.RunSlots(1); err != nil {
		t.Fatalf("RunSlots: %v", err)
	}
	for _, h := range handles {
		var sawFinal bool
		for ev := range h.Events() {
			if ev.Type == EventSlotUpdate && ev.Result.Final {
				sawFinal = true
			}
		}
		if !sawFinal {
			t.Fatalf("%s: stream closed without a final result (err %v)", h.ID(), h.Err())
		}
	}

	m := eng.Metrics()
	if len(m.Shards) != 5 {
		t.Fatalf("EngineMetrics.Shards has %d entries, want 5", len(m.Shards))
	}
	span := m.Shards[4]
	if !span.Spanning || span.Queries == 0 {
		t.Errorf("spanning metrics = %+v, want the spanning aggregate accounted", span)
	}
	var calls int64
	for _, s := range m.Shards {
		calls += s.Selection.ValuationCalls
	}
	if calls == 0 || calls != m.ValuationCalls {
		t.Errorf("per-shard valuation calls %d do not add up to the total %d", calls, m.ValuationCalls)
	}
}
