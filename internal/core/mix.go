package core

import (
	"repro/internal/query"
	"repro/internal/sensornet"
)

// RegionProbeDMax is the sensing reach of the point probes Algorithm 4
// generates for region monitoring: each probe asks for a reading at a
// planned sensor's position and accepts any sensor within this distance.
// The sharded execution layer pads region-monitoring footprints by it
// (ps.RegionMonitoringSpec), so routing and probe relevance must agree.
const RegionProbeDMax = 1.5

// MixQueries is the per-slot input of Algorithm 5: the available queries
// of each type plus the slot's sensor offers.
type MixQueries struct {
	Aggregates []*query.Aggregate
	Points     []*query.Point
	LocMon     []*query.LocationMonitoring
	RegMon     []*query.RegionMonitoring
	// Extra carries any further one-shot queries with black-box valuations
	// (trajectories, multi-sensor point queries, event-detection probes);
	// they join the joint Algorithm 1 pass.
	Extra []query.Query
}

// MixSlotResult is the outcome of one slot of Algorithm 5.
type MixSlotResult struct {
	// Multi is the joint Algorithm 1 result over all (generated) queries.
	Multi *MultiResult
	// Per-type value obtained this slot.
	PointValue  float64
	AggValue    float64
	LocMonValue float64 // increase of locmon valuations
	RegMonValue float64 // increase of regmon valuations
	ExtraValue  float64 // value of Extra queries
	// PointOutcomes projects the user point queries' results.
	PointOutcomes map[string]PointOutcome
	// Continuous projects the slot's outcome of each active continuous
	// query (location/region monitoring) under its *parent* query ID —
	// the probes Algorithm 5 generates carry derived IDs, so without
	// this projection per-query reporting cannot see continuous results.
	Continuous map[string]ContinuousOutcome
	// TotalCost is the cost of all selected sensors.
	TotalCost float64
}

// ContinuousOutcome is one continuous query's slot outcome.
type ContinuousOutcome struct {
	// Satisfied reports whether any probe of the query was answered.
	Satisfied bool
	// ValueDelta is the increase of the query's valuation this slot.
	ValueDelta float64
	// Payment is what the query paid this slot (probe payments plus, for
	// region monitoring, the stage-4 sharing contributions).
	Payment float64
}

// Welfare is the slot's social-welfare contribution.
func (r *MixSlotResult) Welfare() float64 {
	return r.PointValue + r.AggValue + r.LocMonValue + r.RegMonValue + r.ExtraValue - r.TotalCost
}

// RunMixSlot is Algorithm 5 (Data Acquisition for Query Mix):
//
//  1. point-query creation for continuous queries (CreatePointQuery /
//     CreatePointQueries),
//  2. joint sensor selection over Q_agg ∪ Q_p ∪ Q_p^lm ∪ Q_p^rm with
//     Algorithm 1,
//  3. applying results back into the continuous queries (Algorithms 2/3),
//  4. payment adjustment from region queries' cost contributions,
//  5. data acquisition and accounting (done by the caller committing the
//     selected sensors).
func RunMixSlot(t int, qs MixQueries, offers []Offer) *MixSlotResult {
	return RunMixSlotWith(t, qs, offers, GreedyConfig{})
}

// RunMixSlotWith is RunMixSlot with explicit control over the joint
// Algorithm 1 pass's candidate-evaluation strategy (see GreedyConfig);
// the mix result is bit-identical across strategies, only
// Multi.Stats differs.
func RunMixSlotWith(t int, qs MixQueries, offers []Offer, cfg GreedyConfig) *MixSlotResult {
	res := &MixSlotResult{
		PointOutcomes: make(map[string]PointOutcome),
		Continuous:    make(map[string]ContinuousOutcome),
	}

	// Stage 1a: location monitoring point queries.
	lmOwners := make(map[string]*query.LocationMonitoring)
	lmBefore := make(map[string]float64)
	var generated []query.Query
	for _, q := range qs.LocMon {
		if !q.Active(t) {
			continue
		}
		lmBefore[q.ID] = q.Value()
		if p, ok := q.CreatePointQuery(t); ok {
			generated = append(generated, p)
			lmOwners[p.QID()] = q
		}
	}

	// Stage 1b: region monitoring point queries (Algorithm 4 planning with
	// Eq. 18 cost weighting).
	rm, rmPoints := planRegionMonitoring(t, qs.RegMon, offers, WeightEq18, 0)
	for _, p := range rmPoints {
		generated = append(generated, p)
	}

	// Stage 2: joint sensor selection with Algorithm 1.
	all := make([]query.Query, 0, len(qs.Aggregates)+len(qs.Points)+len(qs.Extra)+len(generated))
	for _, q := range qs.Aggregates {
		all = append(all, q)
	}
	for _, q := range qs.Points {
		all = append(all, q)
	}
	all = append(all, qs.Extra...)
	all = append(all, generated...)
	multi := GreedySelectWith(all, offers, cfg)
	multi.Stats.PosteriorAppends += rm.appended
	multi.Stats.PosteriorRebuilds += rm.rebuilt
	res.Multi = multi
	res.TotalCost = multi.TotalCost

	// Per-type accounting for user queries.
	for _, q := range qs.Aggregates {
		res.AggValue += multi.Outcomes[q.QID()].Value
	}
	for _, q := range qs.Extra {
		res.ExtraValue += multi.Outcomes[q.QID()].Value
	}
	for _, q := range qs.Points {
		out := multi.Outcomes[q.QID()]
		res.PointValue += out.Value
		if out.Value > 0 {
			if po, ok := projectPointOutcome(q, out); ok {
				res.PointOutcomes[q.QID()] = po
			}
		}
	}

	// Stage 3a: apply location monitoring results (Algorithm 2).
	for pid, q := range lmOwners {
		out := multi.Outcomes[pid]
		co := res.Continuous[q.ID]
		if out != nil && out.Value > 0 {
			theta := bestThetaFor(pid, out, lmOwners)
			paid := out.TotalPayment()
			q.ApplyResults(t, true, paid, theta)
			co.Satisfied = true
			co.Payment += paid
		} else {
			q.ApplyResults(t, false, 0, 0)
		}
		res.Continuous[q.ID] = co
	}

	// Stage 3b: apply region monitoring results (Algorithm 3), including
	// the sharing contributions that feed stage 4. The observation recorded
	// for a probe is the first sensor of its joint outcome, paid the
	// outcome's total; RunRegionMonitoringSlot records its point solver's
	// sensor instead, and each path keeps its own choice.
	rm.apply(func(pid string) (*sensornet.Sensor, float64, bool) {
		out := multi.Outcomes[pid]
		if out == nil || out.Value <= 0 || len(out.Sensors) == 0 {
			return nil, 0, false
		}
		return out.Sensors[0], out.TotalPayment(), true
	}, multi.Selected, true)
	for _, plan := range rm.plans {
		co := res.Continuous[plan.q.ID]
		co.Satisfied = co.Satisfied || plan.satisfied
		co.Payment += plan.paid
		res.Continuous[plan.q.ID] = co
	}

	// Value deltas of continuous queries.
	for _, q := range qs.LocMon {
		if before, ok := lmBefore[q.ID]; ok {
			delta := q.Value() - before
			res.LocMonValue += delta
			co := res.Continuous[q.ID]
			co.ValueDelta = delta
			res.Continuous[q.ID] = co
		}
	}
	for qi, q := range rm.active {
		delta := q.Value() - rm.before[qi]
		res.RegMonValue += delta
		co := res.Continuous[q.ID]
		co.ValueDelta = delta
		res.Continuous[q.ID] = co
	}
	return res
}

// RunMixSlotBaseline is the §4.7 baseline: aggregate queries are executed
// first with the sequential baseline, the selected sensors' costs drop to
// zero, then the continuous queries' (desired-time-only) point queries and
// the user point queries run through the baseline point algorithm.
func RunMixSlotBaseline(t int, qs MixQueries, offers []Offer) *MixSlotResult {
	res := &MixSlotResult{
		PointOutcomes: make(map[string]PointOutcome),
		Continuous:    make(map[string]ContinuousOutcome),
	}

	multiQs := make([]query.Query, 0, len(qs.Aggregates)+len(qs.Extra))
	for _, q := range qs.Aggregates {
		multiQs = append(multiQs, q)
	}
	multiQs = append(multiQs, qs.Extra...)
	agg := BaselineMultiSelect(multiQs, offers)
	for _, q := range qs.Aggregates {
		res.AggValue += agg.Outcomes[q.QID()].Value
	}
	for _, q := range qs.Extra {
		res.ExtraValue += agg.Outcomes[q.QID()].Value
	}
	res.TotalCost = agg.TotalCost
	pre := make(map[int]bool)
	for _, s := range agg.Selected {
		pre[s.ID] = true
	}

	// Point queries for continuous queries: desired sampling times only.
	pts := append([]*query.Point(nil), qs.Points...)
	lmOwners := make(map[string]*query.LocationMonitoring)
	lmBefore := make(map[string]float64)
	for _, q := range qs.LocMon {
		if !q.Active(t) {
			continue
		}
		lmBefore[q.ID] = q.Value()
		if p, ok := q.CreatePointQueryBaseline(t); ok {
			pts = append(pts, p)
			lmOwners[p.QID()] = q
		}
	}

	ptRes := baselinePointSolve(pts, offers, pre)
	res.TotalCost += ptRes.TotalCost
	for _, q := range qs.Points {
		if o, ok := ptRes.Outcomes[q.QID()]; ok {
			res.PointValue += o.Value
			res.PointOutcomes[q.QID()] = o
		}
	}
	for pid, q := range lmOwners {
		co := res.Continuous[q.ID]
		if o, ok := ptRes.Outcomes[pid]; ok {
			q.ApplyResults(t, true, o.Payment, o.Theta)
			co.Satisfied = true
			co.Payment += o.Payment
		} else {
			q.ApplyResults(t, false, 0, 0)
		}
		res.Continuous[q.ID] = co
	}
	for _, q := range qs.LocMon {
		if before, ok := lmBefore[q.ID]; ok {
			delta := q.Value() - before
			res.LocMonValue += delta
			co := res.Continuous[q.ID]
			co.ValueDelta = delta
			res.Continuous[q.ID] = co
		}
	}
	// Merge selected sensors for the caller's Commit.
	res.Multi = &MultiResult{
		Selected:   append(append([]*sensornet.Sensor(nil), agg.Selected...), ptRes.Selected...),
		TotalCost:  res.TotalCost,
		TotalValue: res.AggValue + res.ExtraValue + res.PointValue,
		Outcomes:   agg.Outcomes,
		States:     agg.States,
	}
	return res
}

// projectPointOutcome converts a MultiOutcome of a point query into the
// PointOutcome shape.
func projectPointOutcome(q *query.Point, out *MultiOutcome) (PointOutcome, bool) {
	var best *sensornet.Sensor
	bestV := 0.0
	for _, s := range out.Sensors {
		if v := q.ValueSingle(s); v > bestV {
			bestV, best = v, s
		}
	}
	if best == nil {
		return PointOutcome{}, false
	}
	return PointOutcome{Sensor: best, Payment: out.TotalPayment(), Value: out.Value, Theta: q.Theta(best)}, true
}

// bestThetaFor extracts the quality delivered to a generated locmon point
// query.
func bestThetaFor(pid string, out *MultiOutcome, owners map[string]*query.LocationMonitoring) float64 {
	q := owners[pid]
	var best float64
	for _, s := range out.Sensors {
		if th := s.Quality(q.Loc, q.DMax); th > best {
			best = th
		}
	}
	return best
}
