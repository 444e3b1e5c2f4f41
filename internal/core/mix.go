package core

import (
	"slices"
	"strings"

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
	// Queries lists the joint pass's queries, aligned with
	// Multi.Outcomes. RunMixSlotWith lists the aggregates, the points and
	// the extras in their MixQueries order, then the probes it generated
	// for continuous queries.
	Queries []query.Query
	// Per-type value obtained this slot.
	PointValue  float64
	AggValue    float64
	LocMonValue float64 // increase of locmon valuations
	RegMonValue float64 // increase of regmon valuations
	ExtraValue  float64 // value of Extra queries
	// Continuous projects the slot's outcome of each active continuous
	// query (location/region monitoring) under its *parent* query ID —
	// the probes Algorithm 5 generates carry derived IDs, so without
	// this projection per-query reporting cannot see continuous results.
	// One entry per ID, ascending by ID; never nil.
	Continuous []ContinuousOutcome
	// TotalCost is the cost of all selected sensors.
	TotalCost float64
}

// ContinuousOutcome is one continuous query's slot outcome.
type ContinuousOutcome struct {
	// ID is the continuous query's own ID.
	ID string
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

// RunMixSlotWith is RunMixSlot with the joint Algorithm 1 pass's
// candidate evaluation chosen by cfg (see GreedyConfig); the mix result
// is bit-identical against the serial reference, only Multi.Stats
// differs.
func RunMixSlotWith(t int, qs MixQueries, offers []Offer, cfg GreedyConfig) *MixSlotResult {
	res := &MixSlotResult{}

	// The joint pass's queries: the user queries first, then each probe
	// appended at the offset its continuous query remembers.
	pointsAt := len(qs.Aggregates)
	extraAt := pointsAt + len(qs.Points)
	all := make([]query.Query, 0, extraAt+len(qs.Extra)+len(qs.LocMon))
	for _, q := range qs.Aggregates {
		all = append(all, q)
	}
	for _, q := range qs.Points {
		all = append(all, q)
	}
	all = append(all, qs.Extra...)

	// Stage 1a: location monitoring point queries.
	type lmProbe struct {
		q  *query.LocationMonitoring
		li int // index of q in lmActive
		at int // offset of the probe in all
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
		if p, ok := q.CreatePointQuery(t); ok {
			lmProbes = append(lmProbes, lmProbe{q: q, li: len(lmActive) - 1, at: len(all)})
			all = append(all, p)
		}
	}

	// Stage 1b: region monitoring point queries (Algorithm 4 planning with
	// Eq. 18 cost weighting).
	rm, rmPoints := PlanRegionMonitoring(t, qs.RegMon, offers, WeightEq18)
	rmAt := len(all)
	for _, p := range rmPoints {
		all = append(all, p)
	}

	// Stage 2: joint sensor selection with Algorithm 1.
	multi := GreedySelectWith(all, offers, cfg)
	multi.Stats.PosteriorAppends += rm.appended
	multi.Stats.PosteriorRebuilds += rm.rebuilt
	res.Multi = multi
	res.Queries = all
	res.TotalCost = multi.TotalCost

	// Per-type accounting for user queries.
	for i := range qs.Aggregates {
		res.AggValue += multi.Outcomes[i].Value
	}
	for i := range qs.Extra {
		res.ExtraValue += multi.Outcomes[extraAt+i].Value
	}
	for i := range qs.Points {
		res.PointValue += multi.Outcomes[pointsAt+i].Value
	}

	// The continuous outcomes by position: each active location monitor,
	// then each active region monitor.
	cont := make([]ContinuousOutcome, len(lmActive)+len(rm.active))
	lmCont, rmCont := cont[:len(lmActive)], cont[len(lmActive):]

	// Stage 3a: apply location monitoring results (Algorithm 2).
	for _, lp := range lmProbes {
		q, out, co := lp.q, &multi.Outcomes[lp.at], &lmCont[lp.li]
		if out.Value > 0 {
			paid := out.TotalPayment()
			q.ApplyResults(t, true, paid, bestTheta(q, out))
			co.Satisfied = true
			co.Payment += paid
		} else {
			q.ApplyResults(t, false, 0, 0)
		}
	}

	// Stage 3b: apply region monitoring results (Algorithm 3), including
	// the sharing contributions that feed stage 4. The observation recorded
	// for a probe is the first sensor of its joint outcome, paid the
	// outcome's total; the §4.6 Algorithm 3 driver in internal/sim records
	// its point solver's sensor instead, and each path keeps its own choice.
	rm.Apply(func(k int) (*sensornet.Sensor, float64, bool) {
		out := &multi.Outcomes[rmAt+k]
		if out.Value <= 0 || len(out.Sensors) == 0 {
			return nil, 0, false
		}
		return out.Sensors[0], out.TotalPayment(), true
	}, multi.Selected, true)
	for _, plan := range rm.plans {
		co := &rmCont[plan.active]
		co.Satisfied = co.Satisfied || plan.satisfied
		co.Payment += plan.paid
	}

	// Value deltas of continuous queries.
	for i, q := range lmActive {
		delta := q.Value() - lmBefore[i]
		res.LocMonValue += delta
		lmCont[i].ID, lmCont[i].ValueDelta = q.ID, delta
	}
	for qi, q := range rm.active {
		delta := q.Value() - rm.before[qi]
		res.RegMonValue += delta
		rmCont[qi].ID, rmCont[qi].ValueDelta = q.ID, delta
	}
	res.Continuous = continuousByID(cont)
	return res
}

// continuousByID sorts a slot's continuous outcomes by ID, stably, and
// merges the outcomes of queries that share an ID into one, the way a
// single entry per ID would have accumulated them in the same order:
// satisfied when any was, payments summed in order, the last value delta.
func continuousByID(cs []ContinuousOutcome) []ContinuousOutcome {
	if len(cs) == 0 {
		return cs
	}
	slices.SortStableFunc(cs, func(a, b ContinuousOutcome) int { return strings.Compare(a.ID, b.ID) })
	w := 0
	for _, c := range cs[1:] {
		if c.ID != cs[w].ID {
			w++
			cs[w] = c
			continue
		}
		cs[w].Satisfied = cs[w].Satisfied || c.Satisfied
		cs[w].Payment += c.Payment
		cs[w].ValueDelta = c.ValueDelta
	}
	return cs[:w+1]
}

// bestTheta is the quality a location monitoring query's probe obtained:
// the best of the sensors committed to it.
func bestTheta(q *query.LocationMonitoring, out *MultiOutcome) float64 {
	var best float64
	for _, s := range out.Sensors {
		if th := s.Quality(q.Loc, q.DMax); th > best {
			best = th
		}
	}
	return best
}
