package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// hiddenFootprint is a point query that does not advertise its footprint
// (but still seeds base values through RelevantBase): the relevance index
// must test it against every sensor, through its global list.
type hiddenFootprint struct{ p *query.Point }

func (h hiddenFootprint) QID() string                       { return h.p.QID() }
func (h hiddenFootprint) Budget() float64                   { return h.p.Budget() }
func (h hiddenFootprint) Relevant(s *sensornet.Sensor) bool { return h.p.Relevant(s) }
func (h hiddenFootprint) NewState() query.State             { return h.p.NewState() }
func (h hiddenFootprint) RelevantBase(s *sensornet.Sensor) (bool, float64) {
	return h.p.RelevantBase(s)
}

// relevanceInstance draws one random instance: n sensors (all on one
// position when stacked), a third of them fully accurate and trusted and
// the rest with inaccuracy and trust drawn from [0, 1], and a mix of
// footprinted queries, footprints that miss every sensor, and queries
// without a footprint — with and without seeded base values.
func relevanceInstance(seed int64, n int, stacked bool) ([]query.Query, []Offer) {
	s := rng.New(seed, "relevance-reference")
	grid := geo.NewUnitGrid(100, 100)
	pos := geo.Pt(s.Uniform(20, 80), s.Uniform(20, 80))
	var positions []geo.Point
	for i := 0; i < n; i++ {
		if !stacked {
			pos = geo.Pt(s.Uniform(10, 90), s.Uniform(10, 90))
		}
		positions = append(positions, pos)
	}
	offers := makeOffers(positions...)
	quality := rng.New(seed, "relevance-quality")
	for _, o := range offers {
		if quality.Intn(3) > 0 {
			o.Sensor.Inaccuracy, o.Sensor.Trust = quality.Uniform(0, 1), quality.Uniform(0, 1)
		}
	}
	near := func() geo.Point {
		if stacked && s.Bool(0.5) {
			return positions[0]
		}
		return geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100))
	}
	var qs []query.Query
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("q%d", i)
		switch s.Intn(7) {
		case 0:
			qs = append(qs, query.NewPoint(id, near(), s.Uniform(5, 30), s.Uniform(2, 12)))
		case 1:
			qs = append(qs, query.NewMultiPoint(id, near(), s.Uniform(20, 60), s.Uniform(2, 12), 1+s.Intn(3)))
		case 2:
			x, y := s.Uniform(0, 80), s.Uniform(0, 80)
			qs = append(qs, query.NewAggregate(id, geo.NewRect(x, y, x+s.Uniform(1, 30), y+s.Uniform(1, 30)), s.Uniform(50, 200), 8, grid))
		case 3:
			a, b := near(), near()
			qs = append(qs, query.NewTrajectory(id, geo.Trajectory{Waypoints: []geo.Point{a, b}}, s.Uniform(30, 90), 6))
		case 4: // footprint far off every sensor
			qs = append(qs, query.NewPoint(id, geo.Pt(400+s.Uniform(0, 50), -300), 20, 5))
		case 5: // no footprint, base values seeded
			qs = append(qs, hiddenFootprint{query.NewPoint(id, near(), s.Uniform(5, 30), s.Uniform(2, 12))})
		default: // no footprint, no base values
			qs = append(qs, &comboQuery{id: id, a: s.Intn(n), b: s.Intn(n), solo: 3, both: 9})
		}
	}
	return qs, offers
}

// TestRelevanceIndexMatchesBruteForce: the footprint-bucketed relevance
// index builds exactly the CSR rows, per-query counts and seeded base
// values of testing every (sensor, query) pair in ascending query order —
// on random instances from a handful of sensors up to many per grid cell,
// and with every sensor on one point (a zero-size bounding box).
func TestRelevanceIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, c := range []struct {
			n       int
			stacked bool
		}{{1, false}, {7, false}, {300, false}, {2500, false}, {1, true}, {40, true}} {
			qs, offers := relevanceInstance(seed, c.n, c.stacked)
			label := fmt.Sprintf("seed %d, %d sensors, stacked %v", seed, c.n, c.stacked)
			var relOff, relIdx []int32
			var base []float64
			count := make([]int32, len(qs))
			for _, o := range offers {
				relOff = append(relOff, int32(len(relIdx)))
				for qi, q := range qs {
					b, ok := math.NaN(), false
					if rb, isRB := q.(query.RelevanceBased); isRB {
						ok, b = rb.RelevantBase(o.Sensor)
					} else {
						ok = q.Relevant(o.Sensor)
					}
					if ok {
						relIdx = append(relIdx, int32(qi))
						base = append(base, b)
						count[qi]++
					}
				}
			}
			relOff = append(relOff, int32(len(relIdx)))

			s := newSelection(qs, offers)
			if len(relIdx) == 0 && c.n > 40 {
				t.Fatalf("%s: fixture has no relevant pair", label)
			}
			if !slices.Equal(s.relOff, relOff) || !slices.Equal(s.relIdx, relIdx) || !slices.Equal(s.relCount, count) {
				t.Fatalf("%s: CSR rows differ from the brute-force reference", label)
			}
			for i := range base {
				// buildGeometry overwrites the base of a masked pair with
				// the sensor's mask weight; compare the rest bit for bit.
				if s.geom[s.relIdx[i]] != nil {
					continue
				}
				if math.Float64bits(s.base[i]) != math.Float64bits(base[i]) {
					t.Fatalf("%s: pair %d base %v, reference %v", label, i, s.base[i], base[i])
				}
			}
			s.release()
		}
	}
}
