package sim

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// BaselinePoint is the evaluation's baseline for single-sensor point
// queries (§4.3): it "takes queries one by one and for each query selects
// the sensor with maximum utility. A sensor that is selected to answer a
// query at a certain location is also assigned to all other queries at
// that location. The cost of the selected sensors is set to zero for the
// remaining queries." It resembles execution on query arrival with data
// buffering for the duration of a time slot.
func BaselinePoint() PointSolver {
	return func(queries []*query.Point, offers []core.Offer) *PointResult {
		return baselinePointSolve(queries, offers, nil)
	}
}

// baselinePointSolve runs the baseline with an optional set of sensors
// already paid for earlier in the slot (their cost is zero), which the
// baseline query-mix pipeline uses after executing aggregates.
func baselinePointSolve(queries []*query.Point, offers []core.Offer, preSelected map[int]bool) *PointResult {
	res := &PointResult{Outcomes: make(map[string]PointOutcome), Exact: true}
	selected := make(map[int]bool, len(preSelected)) // sensor ID -> already paid for
	for id := range preSelected {
		selected[id] = true
	}
	// effective cost: zero once selected.
	cost := func(o core.Offer) float64 {
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
func BaselineMultiSelect(queries []query.Query, offers []core.Offer) *core.MultiResult {
	res := &core.MultiResult{Outcomes: make([]core.MultiOutcome, len(queries))}
	selected := make(map[int]bool)
	for qi, q := range queries {
		st := q.NewState()
		out := &res.Outcomes[qi]
		out.Payments = []core.Payment{}

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
				res.Selected = append(res.Selected, o.Sensor)
				res.TotalCost += o.Cost
			}
			st.Add(o.Sensor)
			out.Sensors = append(out.Sensors, o.Sensor)
			out.Payments = append(out.Payments, core.Payment{SensorID: o.Sensor.ID, Amount: pay})
		}
		// A query pays each sensor once, so ordering by ID is all
		// the payment order of core.MultiOutcome asks for.
		slices.SortFunc(out.Payments, func(a, b core.Payment) int { return cmp.Compare(a.SensorID, b.SensorID) })
		out.Value = st.Value()
		res.TotalValue += out.Value
	}
	return res
}

// RunMixSlotBaseline is the §4.7 baseline: aggregate queries are executed
// first with the sequential baseline, the selected sensors' costs drop to
// zero, then the continuous queries' (desired-time-only) point queries and
// the user point queries run through the baseline point algorithm. Its
// Multi.Outcomes list the aggregates, the user points and the extras in
// their MixQueries order, as Algorithm 5's do; it leaves Queries and
// Continuous nil.
func RunMixSlotBaseline(t int, qs core.MixQueries, offers []core.Offer) *core.MixSlotResult {
	res := &core.MixSlotResult{}

	multiQs := make([]query.Query, 0, len(qs.Aggregates)+len(qs.Extra))
	for _, q := range qs.Aggregates {
		multiQs = append(multiQs, q)
	}
	multiQs = append(multiQs, qs.Extra...)
	agg := BaselineMultiSelect(multiQs, offers)
	for i := range qs.Aggregates {
		res.AggValue += agg.Outcomes[i].Value
	}
	for i := range qs.Extra {
		res.ExtraValue += agg.Outcomes[len(qs.Aggregates)+i].Value
	}
	res.TotalCost = agg.TotalCost
	pre := make(map[int]bool)
	for _, s := range agg.Selected {
		pre[s.ID] = true
	}

	// Point queries for continuous queries: desired sampling times only.
	pts := append([]*query.Point(nil), qs.Points...)
	type lmProbe struct {
		q   *query.LocationMonitoring
		pid string
	}
	var lmActive []*query.LocationMonitoring
	var lmBefore []float64
	var lmProbes []lmProbe
	for _, q := range qs.LocMon {
		if !q.Active(t) {
			continue
		}
		lmActive = append(lmActive, q)
		lmBefore = append(lmBefore, q.Value())
		if p, ok := q.CreatePointQueryBaseline(t); ok {
			pts = append(pts, p)
			lmProbes = append(lmProbes, lmProbe{q: q, pid: p.QID()})
		}
	}

	ptRes := baselinePointSolve(pts, offers, pre)
	res.TotalCost += ptRes.TotalCost
	points := make([]core.MultiOutcome, len(qs.Points))
	for i, q := range qs.Points {
		if o, ok := ptRes.Outcomes[q.QID()]; ok {
			res.PointValue += o.Value
			points[i] = core.MultiOutcome{
				Sensors:  []*sensornet.Sensor{o.Sensor},
				Payments: []core.Payment{{SensorID: o.Sensor.ID, Amount: o.Payment}},
				Value:    o.Value,
			}
		}
	}
	for _, lp := range lmProbes {
		if o, ok := ptRes.Outcomes[lp.pid]; ok {
			lp.q.ApplyResults(t, true, o.Payment, o.Theta)
		} else {
			lp.q.ApplyResults(t, false, 0, 0)
		}
	}
	for i, q := range lmActive {
		res.LocMonValue += q.Value() - lmBefore[i]
	}

	// Merge selected sensors for the caller's Commit.
	na := len(qs.Aggregates)
	res.Multi = &core.MultiResult{
		Selected:   append(append([]*sensornet.Sensor(nil), agg.Selected...), ptRes.Selected...),
		TotalCost:  res.TotalCost,
		TotalValue: res.AggValue + res.ExtraValue + res.PointValue,
		Outcomes:   slices.Concat(agg.Outcomes[:na], points, agg.Outcomes[na:]),
	}
	return res
}
