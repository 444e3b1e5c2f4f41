package ps

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// strategiesUnderTest are the candidate-evaluation strategies whose
// SlotReports must be bit-identical to the serial scan's. Serial is the
// reference; auto resolves to serial or lazy by each run's offer count;
// serial again is a rerun, so a slot pipeline that is not a pure function
// of its seed (a map-order float sum, say) fails here too.
var strategiesUnderTest = []Strategy{StrategyLazy, StrategyAuto, StrategySerial}

// submitAll submits one spec to every aggregator in the slice.
func submitAll[A interface {
	Submit(Spec) (SubmittedQuery, error)
}](t *testing.T, aggs []A, spec Spec) {
	t.Helper()
	for _, a := range aggs {
		if _, err := a.Submit(spec); err != nil {
			t.Fatalf("Submit(%s %q): %v", spec.Kind(), spec.QueryID(), err)
		}
	}
}

// requireConserved fails unless every aggregator's payments so far kept
// Eq. 11: each committed sensor paid its cost, no query charged above its
// value or budget.
func requireConserved(t *testing.T, slot int, aggs []*Aggregator) {
	t.Helper()
	for i, a := range aggs {
		if v := a.SelectionStats().ConservationViolations; v != 0 {
			t.Fatalf("slot %d, aggregator %d: %d conservation violations", slot, i, v)
		}
	}
}

// TestStrategyEquivalenceAllQueryKinds drives seven of the eight query
// kinds (everything except region monitoring, which needs a GP-modelled
// world — see the IntelLab companion test below) through full
// Aggregator pipelines on seeded random worlds, one aggregator per
// strategy, and requires every slot report to be bit-identical to the
// serial scan's: same welfare, per-query values and payments to the
// last float bit, and no conservation violation on any of them. This is the end-to-end counterpart of the
// internal/core strategy tests — it additionally exercises probe
// generation, continuous-query bookkeeping, event detection and the
// accounting loops that consume the selection results.
func TestStrategyEquivalenceAllQueryKinds(t *testing.T) {
	const sensors, slots = 300, 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}),
				WithGreedyStrategy(StrategySerial))
			var others []*Aggregator
			for _, strat := range strategiesUnderTest {
				others = append(others, NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}),
					WithGreedyStrategy(strat)))
			}
			all := append([]*Aggregator{ref}, others...)
			s := rng.New(seed, "strategy-equivalence")
			w := ref.world.Working

			// Continuous kinds: location monitoring, event detection and
			// region-event watching live across the whole horizon.
			for i := 0; i < 3; i++ {
				submitAll(t, all, LocationMonitoringSpec{
					ID:       fmt.Sprintf("lm-%d", i),
					Loc:      Pt(s.Uniform(w.MinX+5, w.MaxX-5), s.Uniform(w.MinY+5, w.MaxY-5)),
					Duration: slots, Budget: 120, Samples: 3,
				})
				submitAll(t, all, EventDetectionSpec{
					ID:       fmt.Sprintf("ev-%d", i),
					Loc:      Pt(s.Uniform(w.MinX+5, w.MaxX-5), s.Uniform(w.MinY+5, w.MaxY-5)),
					Duration: slots, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30,
				})
				x, y := s.Uniform(w.MinX, w.MaxX-12), s.Uniform(w.MinY, w.MaxY-12)
				submitAll(t, all, RegionEventSpec{
					ID:       fmt.Sprintf("re-%d", i),
					Region:   NewRect(x, y, x+10, y+10),
					Duration: slots, Threshold: 0.5, Confidence: 0.5, BudgetPerSlot: 50,
				})
			}

			for slot := 0; slot < slots; slot++ {
				// One-shot kinds: points, k-redundancy multipoints, spatial
				// aggregates and trajectories, at random locations each slot.
				for i := 0; i < 12; i++ {
					submitAll(t, all, PointSpec{
						ID:     fmt.Sprintf("pt-%d-%d", slot, i),
						Loc:    Pt(s.Uniform(w.MinX, w.MaxX), s.Uniform(w.MinY, w.MaxY)),
						Budget: 8 + s.Uniform(0, 20),
					})
				}
				for i := 0; i < 3; i++ {
					submitAll(t, all, MultiPointSpec{
						ID:     fmt.Sprintf("mp-%d-%d", slot, i),
						Loc:    Pt(s.Uniform(w.MinX, w.MaxX), s.Uniform(w.MinY, w.MaxY)),
						Budget: 40 + s.Uniform(0, 40), K: 2 + s.Intn(3),
					})
				}
				for i := 0; i < 2; i++ {
					x, y := s.Uniform(w.MinX, w.MaxX-25), s.Uniform(w.MinY, w.MaxY-25)
					submitAll(t, all, AggregateSpec{
						ID:     fmt.Sprintf("agg-%d-%d", slot, i),
						Region: NewRect(x, y, x+s.Uniform(8, 22), y+s.Uniform(8, 22)),
						Budget: 150 + s.Uniform(0, 150),
					})
				}
				x, y := s.Uniform(w.MinX, w.MaxX-20), s.Uniform(w.MinY, w.MaxY-20)
				submitAll(t, all, TrajectorySpec{
					ID: fmt.Sprintf("tr-%d", slot),
					Path: Trajectory{Waypoints: []Point{
						Pt(x, y), Pt(x+s.Uniform(5, 15), y+s.Uniform(5, 15)),
					}},
					Budget: 80 + s.Uniform(0, 60),
				})

				want := snapshot(ref.RunSlot())
				for oi, other := range others {
					got := snapshot(other.RunSlot())
					t.Run(fmt.Sprintf("slot%d-%s", slot, strategiesUnderTest[oi]), func(t *testing.T) {
						requireIdentical(t, slot, want, got)
					})
				}
				requireConserved(t, slot, all)
			}
		})
	}
}

// TestStrategyEquivalenceRegionMonitoring covers the eighth kind: region
// monitoring runs on the IntelLab world (the only built-in world with a
// fitted GP model) and exercises the rank-1 base-posterior cache under
// every strategy — appends and rebuilds must not perturb selections.
func TestStrategyEquivalenceRegionMonitoring(t *testing.T) {
	const slots = 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := NewAggregator(NewIntelLabWorld(seed, SensorConfig{}),
				WithGreedyStrategy(StrategySerial))
			var others []*Aggregator
			for _, strat := range strategiesUnderTest {
				others = append(others, NewAggregator(NewIntelLabWorld(seed, SensorConfig{}),
					WithGreedyStrategy(strat)))
			}
			all := append([]*Aggregator{ref}, others...)
			s := rng.New(seed, "strategy-equivalence-regmon")
			w := ref.world.Working

			for i := 0; i < 2; i++ {
				x, y := s.Uniform(w.MinX, w.MaxX-8), s.Uniform(w.MinY, w.MaxY-8)
				submitAll(t, all, RegionMonitoringSpec{
					ID:       fmt.Sprintf("rm-%d", i),
					Region:   NewRect(x, y, x+s.Uniform(4, 7), y+s.Uniform(4, 7)),
					Duration: slots, Budget: 180,
				})
			}
			for slot := 0; slot < slots; slot++ {
				for i := 0; i < 4; i++ {
					submitAll(t, all, PointSpec{
						ID:     fmt.Sprintf("pt-%d-%d", slot, i),
						Loc:    Pt(s.Uniform(w.MinX, w.MaxX), s.Uniform(w.MinY, w.MaxY)),
						Budget: 10 + s.Uniform(0, 10),
					})
				}
				want := snapshot(ref.RunSlot())
				for oi, other := range others {
					got := snapshot(other.RunSlot())
					t.Run(fmt.Sprintf("slot%d-%s", slot, strategiesUnderTest[oi]), func(t *testing.T) {
						requireIdentical(t, slot, want, got)
					})
				}
				requireConserved(t, slot, all)
			}
		})
	}
}
