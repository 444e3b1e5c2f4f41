package core

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// forgedAnswer is one answered query of a hand-forged result: its budget
// and value, and the one sensor it pays.
type forgedAnswer struct {
	budget, value float64
	payee         int
	amount        float64
}

// TestConservationCountsViolations feeds the checker forged results, each
// row breaking Eq. 11 once (or not at all), through both the greedy and
// the single-sensor form. Sensors 1 and 4 are committed at costs 2 and 1.
func TestConservationCountsViolations(t *testing.T) {
	commits := []SelectionStep{{Offer: 0, SensorID: 4, Cost: 1}, {Offer: 1, SensorID: 1, Cost: 2}}
	rows := []struct {
		name    string
		answers []forgedAnswer
		want    int64
	}{
		{"conserving", []forgedAnswer{{5, 3, 1, 1.5}, {5, 1, 1, 0.5}, {2, 2, 4, 1}}, 0},
		{"half-paid sensor", []forgedAnswer{{5, 3, 1, 0.75}, {5, 1, 1, 0.25}, {2, 2, 4, 1}}, 1},
		{"uncommitted payee", []forgedAnswer{{5, 3, 1, 2}, {5, 1, 9, 0.5}, {2, 2, 4, 1}}, 1},
		{"payment above value", []forgedAnswer{{5, 3, 1, 1.5}, {5, 0.4, 1, 0.5}, {2, 2, 4, 1}}, 1},
		{"payment above budget", []forgedAnswer{{5, 3, 1, 1.5}, {0.4, 1, 1, 0.5}, {2, 2, 4, 1}}, 1},
	}
	sensors := map[int]*sensornet.Sensor{}
	for _, id := range []int{1, 4, 9} {
		sensors[id] = sensornet.NewSensor(id, geo.Pt(0, 0))
	}
	for _, row := range rows {
		queries := make([]query.Query, len(row.answers))
		outs := make([]MultiOutcome, len(row.answers))
		group := locationGroup{}
		points := map[string]PointOutcome{}
		for i, a := range row.answers {
			p := query.NewPoint(fmt.Sprintf("q%d", i), geo.Pt(0, 0), a.budget, 5)
			queries[i] = p
			group.queries = append(group.queries, p)
			outs[i] = MultiOutcome{Value: a.value, Payments: []Payment{{SensorID: a.payee, Amount: a.amount}}}
			points[p.ID] = PointOutcome{Sensor: sensors[a.payee], Payment: a.amount, Value: a.value}
		}
		var c conservation
		if got := c.multi(queries, outs, commits); got != row.want {
			t.Errorf("%s: greedy form counts %d violations, want %d", row.name, got, row.want)
		}
		if got := c.point([]locationGroup{group}, commits, points); got != row.want {
			t.Errorf("%s: point form counts %d violations, want %d", row.name, got, row.want)
		}
	}
}
