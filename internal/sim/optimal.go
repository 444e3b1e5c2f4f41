package sim

import (
	"repro/internal/bilp"
	"repro/internal/core"
	"repro/internal/query"
)

// OptimalOptions tunes the exact scheduler.
type OptimalOptions struct {
	// MaxNodesPerComponent caps branch-and-bound effort per connected
	// component (0 = solver default). When exceeded the result is the best
	// incumbent and PointResult.Exact is false.
	MaxNodesPerComponent int
	// WarmStartWithLocalSearch seeds the incumbent with the Local Search
	// solution, which prunes most of the search tree on the evaluation's
	// instance sizes.
	WarmStartWithLocalSearch bool
}

// OptimalPoint returns the exact scheduler of §3.1.1: it expresses the
// slot's single-sensor point queries as the BILP of problem (9) —
// facilities are sensors with opening cost c_i, clients are queried
// locations with profits v_l(s_i) — and solves it with the exact
// branch-and-bound of internal/bilp. Payments follow Eq. 11.
func OptimalPoint(opts OptimalOptions) PointSolver {
	return func(queries []*query.Point, offers []core.Offer) *PointResult {
		res := &PointResult{Outcomes: make(map[string]PointOutcome), Exact: true}
		if len(queries) == 0 || len(offers) == 0 {
			return res
		}
		groups := groupByLocation(queries)

		prob := &bilp.FLProblem{
			OpenCost: make([]float64, len(offers)),
			Profits:  make([][]bilp.FLProfit, len(groups)),
		}
		for i, o := range offers {
			prob.OpenCost[i] = o.Cost
		}
		for l := range groups {
			for i, o := range offers {
				if v := groups[l].groupValue(o.Sensor); v > 0 {
					prob.Profits[l] = append(prob.Profits[l], bilp.FLProfit{Facility: i, Profit: v})
				}
			}
		}

		flOpts := bilp.FLOptions{MaxNodesPerComponent: opts.MaxNodesPerComponent}
		if opts.WarmStartWithLocalSearch {
			ls := LocalSearchPoint(DefaultLocalSearchEpsilon)(queries, offers)
			warm := make([]bool, len(offers))
			selected := make(map[int]bool, len(ls.Selected))
			for _, s := range ls.Selected {
				selected[s.ID] = true
			}
			for i, o := range offers {
				warm[i] = selected[o.Sensor.ID]
			}
			flOpts.WarmStart = warm
		}

		sol := bilp.SolveFL(prob, flOpts)
		res.Exact = sol.Exact

		// Collect assigned groups per opened sensor for Eq. 11 payments.
		assignedGroups := make(map[int][]*locationGroup)
		for l, f := range sol.Assign {
			if f >= 0 {
				assignedGroups[f] = append(assignedGroups[f], &groups[l])
			}
		}
		res.settle(offers, groups, assignedGroups)
		return res
	}
}
