package core

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// randomMixedScenario builds a deterministic instance mixing all four
// one-shot query types that flow through Algorithm 1.
func randomMixedScenario(seed int64, nSensors int) ([]query.Query, []Offer) {
	s := rng.New(seed, "strategy-mix")
	grid := geo.NewUnitGrid(100, 100)
	var positions []geo.Point
	for i := 0; i < nSensors; i++ {
		positions = append(positions, geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)))
	}
	offers := makeOffers(positions...)
	var qs []query.Query
	for i := 0; i < 6; i++ {
		x, y := s.Uniform(0, 70), s.Uniform(0, 70)
		qs = append(qs, query.NewAggregate(fmt.Sprintf("agg%d", i),
			geo.NewRect(x, y, x+s.Uniform(10, 30), y+s.Uniform(10, 30)), s.Uniform(60, 250), 10, grid))
	}
	for i := 0; i < 25; i++ {
		qs = append(qs, query.NewPoint(fmt.Sprintf("pt%d", i),
			geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)), s.Uniform(8, 30), 6))
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, query.NewMultiPoint(fmt.Sprintf("mp%d", i),
			geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)), s.Uniform(30, 60), 6, 2+s.Intn(3)))
	}
	for i := 0; i < 3; i++ {
		x, y := s.Uniform(0, 80), s.Uniform(0, 80)
		qs = append(qs, query.NewTrajectory(fmt.Sprintf("tr%d", i),
			geo.Trajectory{Waypoints: []geo.Point{geo.Pt(x, y), geo.Pt(x+s.Uniform(5, 20), y+s.Uniform(5, 20))}},
			s.Uniform(40, 90), 8))
	}
	return qs, offers
}

// assertSameMultiResult requires got to be bit-identical to want
// (DiffMultiResults is the canonical comparison).
func assertSameMultiResult(t *testing.T, label string, want, got *MultiResult) {
	t.Helper()
	if diff := DiffMultiResults(want, got); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// TestGreedyStrategiesBitIdentical verifies that every candidate-
// evaluation strategy — serial, lazy, and the default that picks between
// them — produces the exact same MultiResult on randomized mixed query
// workloads.
func TestGreedyStrategiesBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		qs, offers := randomMixedScenario(seed, 400)
		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		variants := []GreedyConfig{
			{Strategy: StrategyLazy},
			{Strategy: StrategyAuto},
		}
		for _, cfg := range variants {
			got := GreedySelectWith(qs, offers, cfg)
			assertSameMultiResult(t, fmt.Sprintf("seed %d strategy %s", seed, cfg.Strategy), serial, got)
			if got.Stats.ValuationCalls > serial.Stats.SerialEquivCalls {
				t.Errorf("seed %d strategy %s: %d valuation calls exceed the exhaustive scan's %d",
					seed, cfg.Strategy, got.Stats.ValuationCalls, serial.Stats.SerialEquivCalls)
			}
		}
	}
}

// TestExhaustiveCallAccounting: for the exhaustive scan the
// SerialEquivCalls model must match the calls actually made — it is the
// baseline the lazy strategy's SavedCalls is measured against.
func TestExhaustiveCallAccounting(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		qs, offers := randomMixedScenario(seed, 300)
		res := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		if res.Stats.ValuationCalls != res.Stats.SerialEquivCalls {
			t.Errorf("seed %d: made %d calls, accounting model says %d",
				seed, res.Stats.ValuationCalls, res.Stats.SerialEquivCalls)
		}
	}
}

// redundancyScenario builds a k-redundancy workload (§2.2.1 multiple-
// sensor point queries): every query commits many sensors, so each
// (sensor, query) pair goes stale many times — the regime where CELF's
// pruning pays off most.
func redundancyScenario(seed int64, nSensors, nQueries, k int) ([]query.Query, []Offer) {
	s := rng.New(seed, "redundancy")
	var positions []geo.Point
	for i := 0; i < nSensors; i++ {
		positions = append(positions, geo.Pt(s.Uniform(0, 80), s.Uniform(0, 80)))
	}
	offers := makeOffers(positions...)
	var qs []query.Query
	for i := 0; i < nQueries; i++ {
		qs = append(qs, query.NewMultiPoint(fmt.Sprintf("mp%d", i),
			geo.Pt(s.Uniform(0, 80), s.Uniform(0, 80)), s.Uniform(100, 300), 5, k))
	}
	return qs, offers
}

// TestLazySavesCallsOnRedundancyWorkloads: on a k-redundancy workload
// (purely submodular valuations) the lazy strategy must prune a large
// share of the exhaustive scan's valuation calls, never trip the
// fallback, and stay bit-identical.
func TestLazySavesCallsOnRedundancyWorkloads(t *testing.T) {
	qs, offers := redundancyScenario(3, 2000, 150, 10)
	serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
	lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})
	assertSameMultiResult(t, "lazy", serial, lazy)
	if lazy.Stats.SubmodularityViolations != 0 || lazy.Stats.FallbackRescans != 0 {
		t.Errorf("multipoint valuations are submodular but lazy saw %d violations, %d rescans",
			lazy.Stats.SubmodularityViolations, lazy.Stats.FallbackRescans)
	}
	if lazy.Stats.ValuationCalls*2 > serial.Stats.ValuationCalls {
		t.Errorf("lazy made %d calls, want < half of the exhaustive %d",
			lazy.Stats.ValuationCalls, serial.Stats.ValuationCalls)
	}
	if saved := lazy.Stats.SavedCalls(); saved == 0 {
		t.Error("SavedCalls reported no pruning")
	}
}

// --- non-submodular fallback ----------------------------------------------

// comboQuery is a deliberately non-submodular valuation: sensors a and b
// complement each other, so b's marginal gain *grows* after a commits.
// When `lie` is set it falsely advertises query.Submodular — the exact
// situation that invalidates CELF's cached upper bounds and must trigger
// the lazy strategy's violation detector and exhaustive-rescan fallback.
// Unmarked, it exercises the volatile eager-maintenance path instead.
type comboQuery struct {
	id         string
	a, b       int // complementary sensor IDs
	solo, both float64
	lie        bool
}

func (c *comboQuery) SubmodularValuation() bool { return c.lie }

func (c *comboQuery) QID() string     { return c.id }
func (c *comboQuery) Budget() float64 { return c.both }
func (c *comboQuery) Relevant(s *sensornet.Sensor) bool {
	return s.ID == c.a || s.ID == c.b
}
func (c *comboQuery) NewState() query.State { return &comboState{q: c} }

type comboState struct {
	q          *comboQuery
	hasA, hasB bool
}

func (st *comboState) Query() query.Query { return st.q }
func (st *comboState) valueOf(hasA, hasB bool) float64 {
	switch {
	case hasA && hasB:
		return st.q.both
	case hasA || hasB:
		return st.q.solo
	default:
		return 0
	}
}
func (st *comboState) Value() float64 { return st.valueOf(st.hasA, st.hasB) }
func (st *comboState) Gain(s *sensornet.Sensor) float64 {
	return st.valueOf(st.hasA || s.ID == st.q.a, st.hasB || s.ID == st.q.b) - st.Value()
}
func (st *comboState) Add(s *sensornet.Sensor) {
	st.hasA = st.hasA || s.ID == st.q.a
	st.hasB = st.hasB || s.ID == st.q.b
}

// comboFixture builds the complementary-valuation instance.
func comboFixture(lie bool) ([]query.Query, []Offer) {
	s0 := sensornet.NewSensor(0, geo.Pt(0, 0))
	s1 := sensornet.NewSensor(1, geo.Pt(1, 0))
	s2 := sensornet.NewSensor(2, geo.Pt(2, 0))
	offers := []Offer{
		{Sensor: s0, Cost: 1},
		{Sensor: s1, Cost: 1},
		{Sensor: s2, Cost: 1},
	}
	return []query.Query{&comboQuery{id: "combo", a: 0, b: 1, solo: 2, both: 40, lie: lie}}, offers
}

// TestLazyFallbackOnLyingSubmodularMarker: a valuation that falsely
// claims submodularity must trip the violation detector, re-scan
// exhaustively, and still return the serial result bit-identically.
func TestLazyFallbackOnLyingSubmodularMarker(t *testing.T) {
	qs, offers := comboFixture(true)
	serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
	lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})

	assertSameMultiResult(t, "lazy fallback", serial, lazy)
	if len(lazy.Selected) != 2 {
		t.Fatalf("expected both complementary sensors selected, got %d", len(lazy.Selected))
	}
	if lazy.Stats.SubmodularityViolations == 0 {
		t.Error("no submodularity violation recorded on a complementary valuation")
	}
	if lazy.Stats.FallbackRescans == 0 {
		t.Error("violation did not trigger the exhaustive-rescan fallback")
	}
	// The serial baseline sees the same gain increases but needs no
	// fallback: it re-scans everything every round anyway.
	if serial.Stats.FallbackRescans != 0 {
		t.Errorf("serial strategy recorded %d fallback rescans", serial.Stats.FallbackRescans)
	}
}

// TestLazyVolatileMaintenanceOnUnmarkedValuation: the same complementary
// valuation *without* the marker takes the eager-maintenance path — no
// violations, no fallback, still bit-identical.
func TestLazyVolatileMaintenanceOnUnmarkedValuation(t *testing.T) {
	qs, offers := comboFixture(false)
	serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
	lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})

	assertSameMultiResult(t, "lazy volatile", serial, lazy)
	if len(lazy.Selected) != 2 {
		t.Fatalf("expected both complementary sensors selected, got %d", len(lazy.Selected))
	}
	if lazy.Stats.SubmodularityViolations != 0 || lazy.Stats.FallbackRescans != 0 {
		t.Errorf("eager maintenance should avoid violations/fallbacks, got %d/%d",
			lazy.Stats.SubmodularityViolations, lazy.Stats.FallbackRescans)
	}
}

// TestLazyMatchesSerialOnAggregates runs the lazy strategy on the
// aggregate-heavy scenario: aggregate valuations (Eq. 5's coverage x
// mean-quality product) are not strictly submodular, so this exercises
// the volatile-maintenance path on realistic inputs.
func TestLazyMatchesSerialOnAggregates(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		qs, offers := randomAggScenario(seed, 800, 30, 400)
		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})
		assertSameMultiResult(t, fmt.Sprintf("seed %d", seed), serial, lazy)
	}
}

// growingGainsScenario is demand where Eq. 5's aggregate gains grow as
// sensors commit: overlapping aggregates and trajectories over a fleet
// whose cheapest sensors are low-quality ones sitting in the middle of
// the regions. They commit first, and diluting a query's mean quality
// raises the gain of every high-quality sensor that comes after.
func growingGainsScenario(seed int64) ([]query.Query, []Offer) {
	s := rng.New(seed, "growing-gains")
	grid := geo.NewUnitGrid(60, 60)
	var qs []query.Query
	var centers []geo.Point
	for i := 0; i < 6; i++ {
		x, y := s.Uniform(10, 30), s.Uniform(10, 30)
		r := geo.NewRect(x, y, x+s.Uniform(8, 20), y+s.Uniform(8, 20))
		qs = append(qs, query.NewAggregate(fmt.Sprintf("agg%d", i), r, s.Uniform(150, 400), 6, grid))
		centers = append(centers, r.Center())
	}
	for i := 0; i < 4; i++ {
		a := geo.Pt(s.Uniform(10, 50), s.Uniform(10, 50))
		b := geo.Pt(a.X+s.Uniform(-15, 15), a.Y+s.Uniform(-15, 15))
		qs = append(qs, query.NewTrajectory(fmt.Sprintf("tr%d", i), geo.Trajectory{Waypoints: []geo.Point{a, b}}, s.Uniform(80, 200), 5))
		centers = append(centers, geo.Pt((a.X+b.X)/2, (a.Y+b.Y)/2))
	}
	var offers []Offer
	for i := 0; i < 400; i++ {
		sn := sensornet.NewSensor(i, geo.Pt(s.Uniform(5, 55), s.Uniform(5, 55)))
		cost := s.Uniform(2, 12)
		if i%10 == 0 { // low quality, wide coverage, nearly free
			c := centers[s.Intn(len(centers))]
			sn.Pos = geo.Pt(c.X+s.Uniform(-1, 1), c.Y+s.Uniform(-1, 1))
			sn.Trust = s.Uniform(0.05, 0.2)
			cost = s.Uniform(0, 0.05)
		} else {
			sn.Inaccuracy = s.Uniform(0, 0.2)
		}
		offers = append(offers, Offer{Sensor: sn, Cost: cost})
	}
	return qs, offers
}

// gainsGrow reports whether committing q's first relevant low-quality
// sensor raises some full-quality sensor's gain above its gain on the
// empty state.
func gainsGrow(q query.Query, offers []Offer) bool {
	empty, after := q.NewState(), q.NewState()
	for _, o := range offers {
		if o.Sensor.Trust < 0.5 && q.Relevant(o.Sensor) {
			after.Add(o.Sensor)
			break
		}
	}
	if after.Value() == 0 {
		return false
	}
	for _, o := range offers {
		if o.Sensor.Trust == 1 && after.Gain(o.Sensor) > empty.Gain(o.Sensor) {
			return true
		}
	}
	return false
}

// TestLazyMatchesSerialWhereAggregateGainsGrow: on demand whose aggregate
// and trajectory gains grow as low-quality sensors commit, the lazy
// strategy's bound-screened refresh picks the serial scan's sensors in
// the serial order with the same floats. The fixture is checked to grow
// gains: committing a low-quality sensor raises a high-quality one's.
func TestLazyMatchesSerialWhereAggregateGainsGrow(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		qs, offers := growingGainsScenario(seed)
		grows := 0
		for _, q := range qs {
			if gainsGrow(q, offers) {
				grows++
			}
		}
		if grows < len(qs)/2 {
			t.Fatalf("seed %d: a low-quality commit raises gains on only %d of %d queries", seed, grows, len(qs))
		}
		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})
		assertSameMultiResult(t, fmt.Sprintf("seed %d", seed), serial, lazy)
		if len(serial.Selected) < 10 {
			t.Fatalf("seed %d: only %d sensors selected", seed, len(serial.Selected))
		}
		if lazy.Stats.SubmodularityViolations != 0 || lazy.Stats.FallbackRescans != 0 {
			t.Errorf("seed %d: %d violations, %d fallback rescans on unmarked valuations", seed,
				lazy.Stats.SubmodularityViolations, lazy.Stats.FallbackRescans)
		}
	}
}

// TestParseStrategy: the three names (and the "celf" alias) parse; the
// names of the removed parallel scan are refused with an error that lists
// exactly the strategies that exist — the message psserve -strategy,
// cluster.New and a node's hello config surface.
func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"": StrategyAuto, "auto": StrategyAuto, " Serial ": StrategySerial,
		"lazy": StrategyLazy, "celf": StrategyLazy,
	} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{
		"sharded", "parallel", "lazy-sharded", "lazy+sharded", "lazysharded", "bogus",
	} {
		_, err := ParseStrategy(name)
		if err == nil {
			t.Errorf("ParseStrategy(%q) accepted a removed strategy", name)
			continue
		}
		if want := fmt.Sprintf("unknown strategy %q (want one of auto, serial, lazy)", name); err.Error() != want {
			t.Errorf("ParseStrategy(%q) error %q, want %q", name, err, want)
		}
	}
}
