package core

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// unmarkedPoint is a point query whose states hide query.MaxValued, so
// the selection re-evaluates their stale pairs through GainFrom instead
// of the per-query floor. Everything else — relevance, seeded bases,
// footprint, submodularity — is the point query's own.
type unmarkedPoint struct{ *query.Point }

func (u unmarkedPoint) NewState() query.State {
	st := u.Point.NewState()
	return unmarkedState{State: st, pc: st.(query.PairCached)}
}

type unmarkedState struct {
	query.State
	pc query.PairCached
}

func (u unmarkedState) BaseValue(s *sensornet.Sensor) float64 { return u.pc.BaseValue(s) }
func (u unmarkedState) GainFrom(b float64) float64            { return u.pc.GainFrom(b) }

// hideMaxValued wraps every point query of qs in unmarkedPoint and
// reports how many it wrapped.
func hideMaxValued(qs []query.Query) ([]query.Query, int) {
	out := make([]query.Query, len(qs))
	n := 0
	for i, q := range qs {
		out[i] = q
		if p, ok := q.(*query.Point); ok {
			out[i] = unmarkedPoint{p}
			n++
		}
	}
	return out, n
}

// monitorShape is one slot of monitoring-heavy demand over an n-sensor
// fleet in the 50x50 working region: location-monitoring probes (points
// at a location, dmax 5), region-monitoring probes (points on a sensor's
// own position at RegionProbeDMax, the shape Algorithm 4 generates),
// trajectories, aggregates and a few plain points.
func monitorShape(seed int64, n int) ([]query.Query, []Offer) {
	s := rng.New(seed, "monitor-shape")
	grid := geo.NewUnitGrid(80, 80)
	loc := func() geo.Point { return geo.Pt(s.Uniform(15, 65), s.Uniform(15, 65)) }
	var positions []geo.Point
	for i := 0; i < n; i++ {
		positions = append(positions, loc())
	}
	offers := makeOffers(positions...)
	for _, o := range offers {
		o.Sensor.Inaccuracy = s.Uniform(0, 0.2)
	}
	var qs []query.Query
	for i := 0; i < 40; i++ {
		qs = append(qs, query.NewPoint(query.PointID(fmt.Sprintf("lm%d", i), 1, ""), loc(), s.Uniform(5, 25), 5))
	}
	for i := 0; i < 60; i++ {
		at := offers[s.Intn(n)].Sensor.Pos
		qs = append(qs, query.NewPoint(query.PointID(fmt.Sprintf("rm%d", i), 1, "s"), at, s.Uniform(2, 15), RegionProbeDMax))
	}
	for i := 0; i < 6; i++ {
		var path geo.Trajectory
		p := loc()
		for k := 0; k < 3; k++ {
			path.Waypoints = append(path.Waypoints, p)
			p = geo.Pt(p.X+s.Uniform(-10, 10), p.Y+s.Uniform(-10, 10))
		}
		qs = append(qs, query.NewTrajectory(fmt.Sprintf("tr%d", i), path, s.Uniform(60, 200), 5))
	}
	for i := 0; i < 4; i++ {
		x, y := s.Uniform(15, 50), s.Uniform(15, 50)
		qs = append(qs, query.NewAggregate(fmt.Sprintf("agg%d", i),
			geo.NewRect(x, y, x+s.Uniform(5, 15), y+s.Uniform(5, 15)), s.Uniform(100, 300), 5, grid))
	}
	for i := 0; i < 30; i++ {
		qs = append(qs, query.NewPoint(fmt.Sprintf("pt%d", i), loc(), s.Uniform(10, 30), 5))
	}
	return qs, offers
}

// TestMaxValuedFloorMatchesGainFrom: the per-query floor is the only
// thing MaxValued changes. With the marker hidden every stale point pair
// goes through GainFrom; with it the selection subtracts the floor. Both
// runs must return the same result to the bit and the same stats —
// valuation calls included — under both strategies. The lazy and serial
// loops share evalSensor, so the lazy-vs-serial suite alone cannot catch
// a wrong fast path; this comparison can.
func TestMaxValuedFloorMatchesGainFrom(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(seed int64) ([]query.Query, []Offer)
	}{
		{"urban", func(seed int64) ([]query.Query, []Offer) { return urbanShape(seed, 2000, 1) }},
		{"metro-lane", func(seed int64) ([]query.Query, []Offer) { return metroLaneShape(seed, 1950) }},
		{"monitor", func(seed int64) ([]query.Query, []Offer) { return monitorShape(seed, 1000) }},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			qs, offers := c.build(seed)
			hidden, wrapped := hideMaxValued(qs)
			if wrapped == 0 {
				t.Fatalf("%s: no point query to hide the marker from", c.name)
			}
			for _, strat := range []Strategy{StrategyLazy, StrategySerial} {
				label := fmt.Sprintf("%s seed %d %v", c.name, seed, strat)
				want := GreedySelectWith(hidden, offers, GreedyConfig{Strategy: strat})
				got := GreedySelectWith(qs, offers, GreedyConfig{Strategy: strat})
				if len(want.Selected) < 10 {
					t.Fatalf("%s: only %d sensors selected; the instance is too thin", label, len(want.Selected))
				}
				assertSameMultiResult(t, label, want, got)
				if got.Stats != want.Stats {
					t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestLazySkipsOffersThatCannotWin: offers no query finds relevant, at
// negative, zero and positive cost, interleaved among relevant ones. The
// lazy heap holds only the negative-cost ones — the others' net is
// -Cost <= 0 at every round — and must still return the serial
// reference's result, which commits exactly the negative-cost ones
// among them.
func TestLazySkipsOffersThatCannotWin(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := rng.New(seed, "zero-pair-offers")
		var positions []geo.Point
		far := map[int]float64{}
		costs := []float64{-2, 0, 3, -0.5, 10, -2}
		for i := 0; i < 240; i++ {
			if i%5 == 2 {
				// Far outside every query's reach.
				far[i] = costs[len(far)%len(costs)]
				positions = append(positions, geo.Pt(s.Uniform(200, 300), s.Uniform(200, 300)))
				continue
			}
			positions = append(positions, geo.Pt(s.Uniform(0, 40), s.Uniform(0, 40)))
		}
		offers := makeOffers(positions...)
		for i, c := range far {
			offers[i].Cost = c
		}
		var qs []query.Query
		for i := 0; i < 30; i++ {
			qs = append(qs, query.NewPoint(fmt.Sprintf("pt%d", i), geo.Pt(s.Uniform(0, 40), s.Uniform(0, 40)), s.Uniform(10, 30), 6))
		}
		qs = append(qs, query.NewMultiPoint("mp", geo.Pt(20, 20), 200, 8, 4))
		qs = append(qs, query.NewAggregate("agg", geo.NewRect(5, 5, 25, 25), 300, 6, geo.NewUnitGrid(40, 40)))

		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})
		label := fmt.Sprintf("seed %d", seed)
		assertSameMultiResult(t, label, serial, lazy)
		var farTaken, wantFar, near int
		for _, st := range lazy.Trace {
			if _, ok := far[st.Offer]; ok {
				farTaken++
			} else {
				near++
			}
		}
		for _, c := range far {
			if c < 0 {
				wantFar++
			}
		}
		if farTaken != wantFar || near == 0 {
			t.Fatalf("%s: committed %d unwanted offers (want the %d negative-cost ones) and %d wanted ones",
				label, farTaken, wantFar, near)
		}
	}
}
