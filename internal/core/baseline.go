package core

import (
	"repro/internal/query"
)

// BaselinePoint is the evaluation's baseline for single-sensor point
// queries (§4.3): it "takes queries one by one and for each query selects
// the sensor with maximum utility. A sensor that is selected to answer a
// query at a certain location is also assigned to all other queries at
// that location. The cost of the selected sensors is set to zero for the
// remaining queries." It resembles execution on query arrival with data
// buffering for the duration of a time slot.
func BaselinePoint() PointSolver {
	return func(queries []*query.Point, offers []Offer) *PointResult {
		return baselinePointSolve(queries, offers, nil)
	}
}

// baselinePointSolve runs the baseline with an optional set of sensors
// already paid for earlier in the slot (their cost is zero), which the
// baseline query-mix pipeline uses after executing aggregates.
func baselinePointSolve(queries []*query.Point, offers []Offer, preSelected map[int]bool) *PointResult {
	res := &PointResult{Outcomes: make(map[string]PointOutcome), Exact: true}
	selected := make(map[int]bool, len(preSelected)) // sensor ID -> already paid for
	for id := range preSelected {
		selected[id] = true
	}
	// effective cost: zero once selected.
	cost := func(o Offer) float64 {
		if selected[o.Sensor.ID] {
			return 0
		}
		return o.Cost
	}
	for _, q := range queries {
		if _, done := res.Outcomes[q.QID()]; done {
			continue
		}
		bestU, bestI := 0.0, -1
		for i, o := range offers {
			v := q.ValueSingle(o.Sensor)
			if v <= 0 {
				continue
			}
			if u := v - cost(o); u > bestU {
				bestU, bestI = u, i
			}
		}
		if bestI == -1 {
			continue // unanswered: every sensor's utility non-positive
		}
		o := offers[bestI]
		pay := cost(o)
		if !selected[o.Sensor.ID] {
			selected[o.Sensor.ID] = true
			res.Selected = append(res.Selected, o.Sensor)
			res.TotalCost += o.Cost
		}
		// The paying query and every other query at the same location get
		// the sensor; later queries see cost zero.
		v := q.ValueSingle(o.Sensor)
		res.Outcomes[q.QID()] = PointOutcome{Sensor: o.Sensor, Payment: pay, Value: v, Theta: q.Theta(o.Sensor)}
		res.TotalValue += v
		for _, other := range queries {
			if other == q || other.Loc != q.Loc {
				continue
			}
			if _, done := res.Outcomes[other.QID()]; done {
				continue
			}
			ov := other.ValueSingle(o.Sensor)
			if ov <= 0 {
				continue
			}
			res.Outcomes[other.QID()] = PointOutcome{Sensor: o.Sensor, Payment: 0, Value: ov, Theta: other.Theta(o.Sensor)}
			res.TotalValue += ov
		}
	}
	return res
}

// BaselineMultiSelect is the evaluation's baseline for multiple-sensor
// one-shot queries (§4.4): sequential per-query greedy selection with data
// buffering — "it takes the queries one by one and for each query selects
// the sensors that result in best utility. The cost of the selected
// sensors is set to zero for the subsequent queries in the time slot."
func BaselineMultiSelect(queries []query.Query, offers []Offer) *MultiResult {
	res := &MultiResult{
		Outcomes: make(map[string]*MultiOutcome, len(queries)),
		States:   make(map[string]query.State, len(queries)),
	}
	selected := make(map[int]bool)
	selectedOffers := make(map[int]Offer)
	for _, q := range queries {
		st := q.NewState()
		out := &MultiOutcome{Payments: []Payment{}}
		res.Outcomes[q.QID()] = out
		res.States[q.QID()] = st

		// Per-query greedy: repeatedly add the sensor with the best
		// marginal utility deltav - effectiveCost while positive.
		used := make(map[int]bool)
		for {
			bestI, bestNet := -1, 0.0
			for i, o := range offers {
				if used[o.Sensor.ID] || !q.Relevant(o.Sensor) {
					continue
				}
				c := o.Cost
				if selected[o.Sensor.ID] {
					c = 0
				}
				if net := st.Gain(o.Sensor) - c; net > bestNet {
					bestNet, bestI = net, i
				}
			}
			if bestI == -1 {
				break
			}
			o := offers[bestI]
			used[o.Sensor.ID] = true
			pay := o.Cost
			if selected[o.Sensor.ID] {
				pay = 0
			} else {
				selected[o.Sensor.ID] = true
				selectedOffers[o.Sensor.ID] = o
				res.Selected = append(res.Selected, o.Sensor)
				res.TotalCost += o.Cost
			}
			st.Add(o.Sensor)
			out.Sensors = append(out.Sensors, o.Sensor)
			out.Payments = append(out.Payments, Payment{SensorID: o.Sensor.ID, Amount: pay})
		}
		out.Payments = sortPayments(out.Payments)
		out.Value = st.Value()
		res.TotalValue += out.Value
	}
	return res
}
