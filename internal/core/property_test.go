package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// TestGreedyBudgetBalanceProperty: for random mixed workloads, every
// selected sensor's payments sum to its cost and every query's payment
// stays below its value.
func TestGreedyBudgetBalanceProperty(t *testing.T) {
	grid := geo.NewUnitGrid(60, 60)
	f := func(seed uint16) bool {
		s := rng.New(int64(seed), "prop-mix")
		var offers []Offer
		for i := 0; i < 15; i++ {
			sensor := sensornet.NewSensor(i, geo.Pt(s.Uniform(0, 60), s.Uniform(0, 60)))
			offers = append(offers, Offer{Sensor: sensor, Cost: sensor.Cost(0)})
		}
		var qs []query.Query
		for i := 0; i < 4; i++ {
			x, y := s.Uniform(0, 40), s.Uniform(0, 40)
			qs = append(qs, query.NewAggregate(qid("agg", i), geo.NewRect(x, y, x+15, y+15), s.Uniform(50, 200), 10, grid))
		}
		for i := 0; i < 8; i++ {
			qs = append(qs, query.NewPoint(qid("pt", i), geo.Pt(s.Uniform(0, 60), s.Uniform(0, 60)), s.Uniform(8, 30), 8))
		}
		res := GreedySelect(qs, offers)

		paid := map[int]float64{}
		for i := range qs {
			out := &res.Outcomes[i]
			if out.Value < out.TotalPayment()-1e-9 {
				return false
			}
			for _, p := range out.Payments {
				if p.Amount < -1e-12 {
					return false
				}
				paid[p.SensorID] += p.Amount
			}
		}
		for _, sel := range res.Selected {
			if math.Abs(paid[sel.ID]-10) > 1e-6 { // cost is 10 for default sensors
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func qid(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}

// --- failure injection ----------------------------------------------------
