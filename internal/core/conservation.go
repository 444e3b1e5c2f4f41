package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/query"
)

// conservationTol is the relative slack of the Eq. 11 checks. The
// proportionate shares of one sensor's cost sum back to it within a few
// ulps; 1e-9 leaves room for rounding and nothing else.
const conservationTol = 1e-9

// conservation checks Eq. 11 on one slot's published payments — what a
// solver handed out, not how it booked it:
//
//   - budget balance: every committed sensor is paid its announced cost,
//     summed over the queries it served, and nothing is paid to a sensor
//     that was not committed;
//   - individual rationality: no query pays more than its value or its
//     budget.
//
// Region-monitoring stage-4 contributions are outside the equation. A
// sensor's payments are summed in the order the results list them, so
// the verdict is reproducible, and a NaN anywhere fails its check. The
// zero value is ready to use; a reused one keeps its scratch.
type conservation struct {
	payees     []payee // the committed sensors, ascending by ID
	violations int64
}

// payee is one committed sensor: its announced cost and what the
// published payments credit it.
type payee struct {
	id         int
	cost, paid float64
}

// begin starts a slot's check over its committed sensors.
func (c *conservation) begin(commits []SelectionStep) {
	c.payees = c.payees[:0]
	for _, st := range commits {
		c.payees = append(c.payees, payee{id: st.SensorID, cost: st.Cost})
	}
	slices.SortFunc(c.payees, func(a, b payee) int { return cmp.Compare(a.id, b.id) })
	c.violations = 0
}

// pay credits one payment to its sensor.
func (c *conservation) pay(id int, amount float64) {
	i, ok := slices.BinarySearchFunc(c.payees, id, func(p payee, id int) int { return cmp.Compare(p.id, id) })
	if !ok {
		c.violations++
		return
	}
	c.payees[i].paid += amount
}

// charge checks one query's total payment against its value and budget.
func (c *conservation) charge(paid, value, budget float64) {
	if !(paid <= value+conservationTol*math.Abs(value)) || !(paid <= budget+conservationTol*math.Abs(budget)) {
		c.violations++
	}
}

// settle checks every committed sensor's balance and returns the slot's
// violation count.
func (c *conservation) settle() int64 {
	for _, p := range c.payees {
		if !(math.Abs(p.paid-p.cost) <= conservationTol*p.cost) {
			c.violations++
		}
	}
	return c.violations
}

// CheckConservation checks Eq. 11 on published payments and returns the
// number of failed checks: outs[i] answers queries[i], and commits lists
// the committed sensors. Selection runs check themselves; this is the same
// check for a schedule built elsewhere.
func CheckConservation(queries []query.Query, outs []MultiOutcome, commits []SelectionStep) int64 {
	var c conservation
	return c.multi(queries, outs, commits)
}

// multi checks one greedy run's published outcomes: outs[i] answers
// queries[i], and commits lists the committed sensors.
func (c *conservation) multi(queries []query.Query, outs []MultiOutcome, commits []SelectionStep) int64 {
	c.begin(commits)
	for i := range outs {
		out := &outs[i]
		for _, p := range out.Payments {
			c.pay(p.SensorID, p.Amount)
		}
		c.charge(out.TotalPayment(), out.Value, queries[i].Budget())
	}
	return c.settle()
}
