package ps

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// withStrategy makes an aggregator (every lane of a sharded one) run its
// selections with the given candidate evaluation. Production code has
// one, the lazy greedy of the zero GreedyConfig; tests reach the serial
// reference scan through this option.
func withStrategy(s core.Strategy) Option {
	return func(a *Aggregator) { a.greedy.Strategy = s }
}

// columnsUnderTest are the aggregators whose SlotReports must be
// bit-identical to the serial reference's. "lazy" names the lazy path
// explicitly; "auto" is built with no option at all, the one production
// construction; "serial" is a rerun of the reference, so a slot pipeline
// that is not a pure function of its seed (a map-order float sum, say)
// fails here too.
var columnsUnderTest = []struct {
	name string
	opts []Option
}{
	{"lazy", []Option{withStrategy(core.StrategyLazy)}},
	{"auto", nil},
	{"serial", []Option{withStrategy(core.StrategySerial)}},
}

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

// requireConserved fails unless every report's payments kept Eq. 11:
// each committed sensor paid its cost, no query charged above its value
// or budget.
func requireConserved(t *testing.T, slot int, reps ...*SlotReport) {
	t.Helper()
	for i, rep := range reps {
		if v := rep.Selection.ConservationViolations; v != 0 {
			t.Fatalf("slot %d, report %d: %d conservation violations", slot, i, v)
		}
	}
}

// TestStrategyEquivalenceAllQueryKinds drives seven of the eight query
// kinds (everything except region monitoring, which needs a GP-modelled
// world — see the IntelLab companion test below) through full
// Aggregator pipelines on seeded random worlds, one aggregator per
// column, and requires every slot report to be bit-identical to the
// serial reference's: same welfare, per-query values and payments to the
// last float bit, and no conservation violation on any of them. This is the end-to-end counterpart of the
// internal/core strategy tests — it additionally exercises probe
// generation, continuous-query bookkeeping, event detection and the
// accounting loops that consume the selection results.
func TestStrategyEquivalenceAllQueryKinds(t *testing.T) {
	const sensors, slots = 300, 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}),
				withStrategy(core.StrategySerial))
			var others []*Aggregator
			for _, col := range columnsUnderTest {
				others = append(others, NewAggregator(NewRWMWorld(seed, sensors, SensorConfig{}), col.opts...))
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

				reps := []*SlotReport{ref.RunSlot()}
				want := snapshot(reps[0])
				for oi, other := range others {
					reps = append(reps, other.RunSlot())
					got := snapshot(reps[len(reps)-1])
					t.Run(fmt.Sprintf("slot%d-%s", slot, columnsUnderTest[oi].name), func(t *testing.T) {
						requireIdentical(t, slot, want, got)
					})
				}
				requireConserved(t, slot, reps...)
			}
		})
	}
}

// TestStrategyEquivalenceRegionMonitoring covers the eighth kind: region
// monitoring runs on the IntelLab world (the only built-in world with a
// fitted GP model) and exercises the rank-1 base-posterior cache in
// every column — appends and rebuilds must not perturb selections.
func TestStrategyEquivalenceRegionMonitoring(t *testing.T) {
	const slots = 6
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := NewAggregator(NewIntelLabWorld(seed, SensorConfig{}),
				withStrategy(core.StrategySerial))
			var others []*Aggregator
			for _, col := range columnsUnderTest {
				others = append(others, NewAggregator(NewIntelLabWorld(seed, SensorConfig{}), col.opts...))
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
				reps := []*SlotReport{ref.RunSlot()}
				want := snapshot(reps[0])
				for oi, other := range others {
					reps = append(reps, other.RunSlot())
					got := snapshot(reps[len(reps)-1])
					t.Run(fmt.Sprintf("slot%d-%s", slot, columnsUnderTest[oi].name), func(t *testing.T) {
						requireIdentical(t, slot, want, got)
					})
				}
				requireConserved(t, slot, reps...)
			}
		})
	}
}

// TestAggregatorSelectionPrunesBelow256Offers: on one slot of a
// 200-sensor Aggregator, below the 256 offers where a size-based policy
// once ran the serial scan, the default selection skips valuation calls
// and still returns the serial reference's exact MultiResult.
func TestAggregatorSelectionPrunesBelow256Offers(t *testing.T) {
	run := func(opts ...Option) *slotExec {
		a := NewAggregator(NewRWMWorld(3, 200, SensorConfig{}), opts...)
		specs := []Spec{
			AggregateSpec{ID: "agg-sw", Region: NewRect(18, 18, 40, 40), Budget: 300},
			AggregateSpec{ID: "agg-ne", Region: NewRect(38, 38, 62, 62), Budget: 250},
			MultiPointSpec{ID: "mp", Loc: Pt(30, 50), Budget: 60, K: 3},
		}
		for i := 0; i < 12; i++ {
			specs = append(specs, PointSpec{ID: fmt.Sprintf("pt%d", i), Loc: Pt(18+4*float64(i), 60-3*float64(i)), Budget: 20})
		}
		for _, spec := range specs {
			submitAll(t, []*Aggregator{a}, spec)
		}
		offers := a.world.Fleet.Step()
		return a.executeSlot(a.world.Fleet.Slot(), offers)
	}
	got, want := run(), run(withStrategy(core.StrategySerial))
	if n := got.report.Offers; n >= 256 {
		t.Fatalf("%d offers; the slot must stay below 256", n)
	}
	if sel := got.report.Selection; sel.SavedCalls() <= 0 {
		t.Errorf("default selection on %d offers saved %d of %d valuation calls, want > 0",
			got.report.Offers, sel.SavedCalls(), sel.SerialEquivCalls)
	}
	if len(got.selected) == 0 {
		t.Fatal("nothing selected; the slot is too thin to compare")
	}
	if d := core.DiffMultiResults(want.mix.Multi, got.mix.Multi); d != "" {
		t.Errorf("default selection differs from the serial reference: %s", d)
	}
}
