// Package core implements the paper's contribution: utility-driven sensor
// selection for participatory sensing under multi-query optimization
// (§3). It contains
//
//   - optimal single-sensor point scheduling via the BILP of problem (9)
//     (optimal.go),
//   - the 1/3-approximate Local Search of [Feige et al.] over the
//     submodular utility of Eq. 12 (localsearch.go),
//   - Algorithm 1, greedy multi-sensor selection with proportionate cost
//     sharing (greedy.go),
//   - Algorithm 2 for location monitoring and Algorithms 3-4 for region
//     monitoring (locmon.go, regmon.go),
//   - Algorithm 5 for the query mix (mix.go),
//   - the evaluation's baseline algorithms (baseline.go), and
//   - the egalitarian objective mentioned in §2 as an extension
//     (egalitarian.go).
package core

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// Offer is a sensor's per-slot announcement (position is in Sensor.Pos).
type Offer = sensornet.Offer

// PointOutcome records how one point query was answered.
type PointOutcome struct {
	// Sensor is the best sensor that served the query. The single-sensor
	// solvers commit one per query; a greedy schedule can serve a query
	// with several, and Sensor is then the best of them, not the only
	// payee.
	Sensor *sensornet.Sensor
	// Payment is the query's total payment: the sum of pi_{q,s} of
	// Eq. 11 over every sensor s that served it.
	Payment float64
	Value   float64 // v_q of the sensors that served it
	Theta   float64 // Sensor's reading quality
}

// PointResult is the outcome of scheduling a batch of single-sensor point
// queries in one time slot.
type PointResult struct {
	// Selected lists the sensors asked to take a measurement.
	Selected []*sensornet.Sensor
	// TotalCost is the sum of selected sensors' announced costs.
	TotalCost float64
	// TotalValue is the sum of valuations over all answered queries.
	TotalValue float64
	// Outcomes maps answered query IDs to their outcome; unanswered
	// queries are absent.
	Outcomes map[string]PointOutcome
	// Exact is false if an exact solver hit its node budget.
	Exact bool
	// Stats instruments greedy-based solvers. The optimal, local-search
	// and egalitarian solvers fill only ConservationViolations.
	Stats SelectionStats
}

// Welfare returns total value minus total cost (the objective of Eq. 2).
func (r *PointResult) Welfare() float64 { return r.TotalValue - r.TotalCost }

// PointSolver schedules a batch of single-sensor point queries against the
// slot's sensor offers.
type PointSolver func(queries []*query.Point, offers []Offer) *PointResult

// locationGroup aggregates the point queries issued at one exact location:
// v_l(s) = sum_{q in Q_l} v_q(s) (§3.1.1).
type locationGroup struct {
	loc     geo.Point
	queries []*query.Point
}

// groupByLocation buckets queries by exact queried location with a
// deterministic order (map iteration order must not leak into results).
func groupByLocation(queries []*query.Point) []locationGroup {
	byLoc := make(map[geo.Point][]*query.Point)
	for _, q := range queries {
		byLoc[q.Loc] = append(byLoc[q.Loc], q)
	}
	groups := make([]locationGroup, 0, len(byLoc))
	for loc, qs := range byLoc {
		groups = append(groups, locationGroup{loc: loc, queries: qs})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].loc.X != groups[j].loc.X {
			return groups[i].loc.X < groups[j].loc.X
		}
		return groups[i].loc.Y < groups[j].loc.Y
	})
	return groups
}

// groupValue returns v_l(s): the total valuation the group's queries give
// sensor s.
func (g *locationGroup) groupValue(s *sensornet.Sensor) float64 {
	var sum float64
	for _, q := range g.queries {
		sum += q.ValueSingle(s)
	}
	return sum
}

// settle commits, in offer order, every offer with assigned location
// groups and charges the groups' queries by Eq. 11 (settlePayments). It
// then checks the published payments (conservation), counting failures
// in Stats.
func (res *PointResult) settle(offers []Offer, groups []locationGroup, assigned map[int][]*locationGroup) {
	var commits []SelectionStep
	for i, o := range offers {
		gs := assigned[i]
		if len(gs) == 0 {
			continue
		}
		value := settlePayments(o.Sensor, o.Cost, gs, res.Outcomes)
		res.Selected = append(res.Selected, o.Sensor)
		res.TotalCost += o.Cost
		res.TotalValue += value
		commits = append(commits, SelectionStep{Offer: i, SensorID: o.Sensor.ID, Cost: o.Cost})
	}
	var c conservation
	res.Stats.ConservationViolations = c.point(groups, commits, res.Outcomes)
}

// settlePayments applies the proportionate cost allocation of Eq. 11 for
// a sensor s answering the given groups: each query q at an assigned
// location pays v_q(s) * c_s / sum of values s yields across its assigned
// locations. It fills outcomes and returns the total value produced by s.
func settlePayments(s *sensornet.Sensor, cost float64, groups []*locationGroup, outcomes map[string]PointOutcome) float64 {
	var denom float64
	for _, g := range groups {
		denom += g.groupValue(s)
	}
	if denom <= 0 {
		return 0
	}
	var total float64
	for _, g := range groups {
		for _, q := range g.queries {
			v := q.ValueSingle(s)
			if v <= 0 {
				continue
			}
			outcomes[q.QID()] = PointOutcome{
				Sensor:  s,
				Payment: v * cost / denom,
				Value:   v,
				Theta:   q.Theta(s),
			}
			total += v
		}
	}
	return total
}
