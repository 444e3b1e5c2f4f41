package core

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
)

// forgedAnswer is one answered query of a hand-forged result: its budget
// and value, and the one sensor it pays.
type forgedAnswer struct {
	budget, value float64
	payee         int
	amount        float64
}

// TestConservationCountsViolations feeds the checker forged results, each
// row breaking Eq. 11 once (or not at all). Sensors 1 and 4 are committed
// at costs 2 and 1.
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
	for _, row := range rows {
		queries := make([]query.Query, len(row.answers))
		outs := make([]MultiOutcome, len(row.answers))
		for i, a := range row.answers {
			p := query.NewPoint(fmt.Sprintf("q%d", i), geo.Pt(0, 0), a.budget, 5)
			queries[i] = p
			outs[i] = MultiOutcome{Value: a.value, Payments: []Payment{{SensorID: a.payee, Amount: a.amount}}}
		}
		if got := CheckConservation(queries, outs, commits); got != row.want {
			t.Errorf("%s: %d violations, want %d", row.name, got, row.want)
		}
	}
}
