package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/query"
)

// scaledResult is r with every cost, net, value and payment multiplied by
// f, the result Algorithm 1 must return when every budget and every cost
// is multiplied by a power of two f.
func scaledResult(r *MultiResult, f float64) *MultiResult {
	out := &MultiResult{
		Selected:   r.Selected,
		TotalCost:  r.TotalCost * f,
		TotalValue: r.TotalValue * f,
		Outcomes:   make([]MultiOutcome, len(r.Outcomes)),
		Trace:      make([]SelectionStep, len(r.Trace)),
	}
	for i, o := range r.Outcomes {
		out.Outcomes[i] = MultiOutcome{Sensors: o.Sensors, Value: o.Value * f, Payments: make([]Payment, len(o.Payments))}
		for j, p := range o.Payments {
			out.Outcomes[i].Payments[j] = Payment{SensorID: p.SensorID, Amount: p.Amount * f}
		}
	}
	for i, st := range r.Trace {
		out.Trace[i] = SelectionStep{Offer: st.Offer, SensorID: st.SensorID, Cost: st.Cost * f, Net: st.Net * f}
	}
	return out
}

// diffTrace compares two commit traces by sensor ID, cost and net, bit for
// bit. Offer indices are not compared: deleting an offer shifts them.
func diffTrace(want, got []SelectionStep) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d commits, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.SensorID != w.SensorID || math.Float64bits(g.Cost) != math.Float64bits(w.Cost) ||
			math.Float64bits(g.Net) != math.Float64bits(w.Net) {
			return fmt.Sprintf("commit %d: sensor %d cost %v net %v, want sensor %d cost %v net %v",
				i, g.SensorID, g.Cost, g.Net, w.SensorID, w.Cost, w.Net)
		}
	}
	return ""
}

// diffMetamorphic is DiffMultiResults plus the commit trace's nets.
func diffMetamorphic(want, got *MultiResult) string {
	if d := DiffMultiResults(want, got); d != "" {
		return d
	}
	return diffTrace(want.Trace, got.Trace)
}

// TestGreedyMetamorphicRelations checks two exact relations of Algorithm 1
// on the one production path, the lazy greedy of GreedySelect, over
// randomMixedScenario seeds 1-20 at 60 and 300 offers:
//
//   - scaling: every budget and every cost times 2^k (k = -3, 2, 10) gives
//     the same commits in the same order, with every net, value, payment
//     and the total cost scaled exactly, since a power of two scales every
//     float the selection computes without rounding;
//   - deletion: removing any offer the selection never committed leaves
//     the commits (by sensor ID), nets, values and payments bit-identical,
//     since an uncommitted offer only ever lost the argmax.
//
// Neither relation consults the serial reference. The deletion sweep
// reruns the selection once per uncommitted offer; under -short (the race
// detector's runs) it deletes every tenth of them and the last.
func TestGreedyMetamorphicRelations(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 10
	}
	for _, n := range []int{60, 300} {
		for seed := int64(1); seed <= 20; seed++ {
			qs, offers := randomMixedScenario(seed, n)
			base := GreedySelect(qs, offers)
			if len(base.Trace) < 3 {
				t.Fatalf("n=%d seed %d: %d commits; the scenario is too thin to relate", n, seed, len(base.Trace))
			}
			for _, k := range []int{-3, 2, 10} {
				f := math.Ldexp(1, k)
				sq, so := scaledMixedScenario(seed, n, f)
				if d := diffMetamorphic(scaledResult(base, f), GreedySelect(sq, so)); d != "" {
					t.Errorf("n=%d seed %d, budgets and costs x2^%d: %s", n, seed, k, d)
				}
			}
			committed := make([]bool, len(offers))
			for _, st := range base.Trace {
				committed[st.Offer] = true
			}
			var uncommitted []int
			for oi := range offers {
				if !committed[oi] {
					uncommitted = append(uncommitted, oi)
				}
			}
			for j, oi := range uncommitted {
				if j%stride != 0 && j != len(uncommitted)-1 {
					continue
				}
				rest := slices.Delete(slices.Clone(offers), oi, oi+1)
				if d := diffMetamorphic(base, GreedySelect(qs, rest)); d != "" {
					t.Errorf("n=%d seed %d, offer %d (sensor %d) deleted: %s", n, seed, oi, offers[oi].Sensor.ID, d)
				}
			}
		}
	}
}

// TestDefaultSelectionPrunesBelow256Offers: the default selection is the
// lazy greedy at every size, so below the 256 offers where a size-based
// policy once ran the serial scan it still skips valuation calls, and
// still returns the serial reference's exact result.
func TestDefaultSelectionPrunesBelow256Offers(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		qs, offers := randomMixedScenario(seed, 120)
		got := GreedySelect(qs, offers)
		if got.Stats.SavedCalls() <= 0 {
			t.Errorf("seed %d: default selection on 120 offers saved %d of %d valuation calls, want > 0",
				seed, got.Stats.SavedCalls(), got.Stats.SerialEquivCalls)
		}
		want := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		if d := DiffMultiResults(want, got); d != "" {
			t.Errorf("seed %d: default selection differs from the serial reference: %s", seed, d)
		}
	}
}

// TestGreedyBudgetMonotonicity: raising the budget of an answered point
// query that shares none of its relevant offers with another query leaves
// it answered. Such a query's nets are its own value of a sensor less the
// sensor's cost, and a larger budget only raises that value, so the
// sensor that served it stays profitable. Checked on randomMixedScenario
// seeds 1-20 at 60, 120 and 300 offers, budgets times 1.01, 1.5, 2 and 8.
func TestGreedyBudgetMonotonicity(t *testing.T) {
	isolated := 0
	for _, n := range []int{60, 120, 300} {
		for seed := int64(1); seed <= 20; seed++ {
			qs, offers := randomMixedScenario(seed, n)
			base := GreedySelect(qs, offers)
			for qi, q := range qs {
				p, ok := q.(*query.Point)
				if !ok || base.Outcomes[qi].Value <= 0 || !isolatedQuery(qs, qi, offers) {
					continue
				}
				isolated++
				for _, f := range []float64{1.01, 1.5, 2, 8} {
					raised := *p
					raised.B *= f
					rq := slices.Clone(qs)
					rq[qi] = &raised
					if v := GreedySelect(rq, offers).Outcomes[qi].Value; v <= 0 {
						t.Errorf("n=%d seed %d: %s answered at budget %v, unanswered at %v", n, seed, p.ID, p.B, raised.B)
					}
				}
			}
		}
	}
	if isolated < 100 {
		t.Fatalf("only %d answered point queries with offers of their own; the relation checks too little", isolated)
	}
	t.Logf("%d answered point queries with offers of their own, each raised 4 times", isolated)
}

// isolatedQuery reports whether no query but qs[qi] finds any offer that
// qs[qi] finds relevant relevant.
func isolatedQuery(qs []query.Query, qi int, offers []Offer) bool {
	for _, o := range offers {
		if !qs[qi].Relevant(o.Sensor) {
			continue
		}
		for j, other := range qs {
			if j != qi && other.Relevant(o.Sensor) {
				return false
			}
		}
	}
	return true
}
