package sim

import (
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// RegMonOptions configures the standalone region-monitoring driver.
type RegMonOptions struct {
	// Solver schedules the generated point queries (Optimal in §4.6).
	Solver PointSolver
	// CostWeighting enables the w(k) discount of Eq. 18 on sensors shared
	// by several region queries.
	CostWeighting bool
	// ShareSensors enables using sensors selected for other queries that
	// happen to fall inside a query's region (the A_{r,t} stage of
	// Algorithm 3's ApplyResults).
	ShareSensors bool
}

// RegMonSlotResult is the outcome of one slot of Algorithm 3.
type RegMonSlotResult struct {
	Point *PointResult
	// ValueGained sums the per-query increases of the Eq. 7 valuation.
	ValueGained float64
	// Issued counts the generated point queries.
	Issued int
}

// Welfare returns the slot's contribution to social welfare; cost
// contributions are transfers between queries, not welfare.
func (r *RegMonSlotResult) Welfare() float64 { return r.ValueGained - r.Point.TotalCost }

// RunRegionMonitoringSlot is Algorithm 3 with Algorithm 4 as the
// query-specific sampling-point selector f_q: each active region
// monitoring query plans its best sampling locations under the remaining
// budget, materializes one point query per planned location valued at its
// marginal contribution v_q(S_t) - v_q(S_t \ {s}) (CreatePointQueries),
// all point queries are scheduled jointly by opts.Solver, results are
// applied, and each query may opportunistically contribute to sensors
// selected for other queries inside its region, capped at
// alpha*(C_t - C-hat_t) (ApplyResults).
func RunRegionMonitoringSlot(t int, queries []*query.RegionMonitoring, offers []core.Offer, opts RegMonOptions) *RegMonSlotResult {
	var weight func(int) float64
	if opts.CostWeighting {
		weight = core.WeightEq18
	}
	rs, pts := core.PlanRegionMonitoring(t, queries, offers, weight)
	res := opts.Solver(pts, offers)

	// The observation recorded for a probe is the point solver's sensor for
	// it. Algorithm 5 records the first sensor of the probe's joint outcome
	// instead; the two are kept as they were, since either choice moves the
	// other path's welfare.
	rs.Apply(func(k int) (*sensornet.Sensor, float64, bool) {
		o, ok := res.Outcomes[pts[k].QID()]
		return o.Sensor, o.Payment, ok
	}, res.Selected, opts.ShareSensors)
	return &RegMonSlotResult{Point: res, ValueGained: rs.ValueGained(), Issued: len(pts)}
}

// RunRegionMonitoringSlotBaseline is the §4.6 baseline: no cost weighting,
// no sensor sharing, and the baseline point algorithm for the generated
// point queries.
func RunRegionMonitoringSlotBaseline(t int, queries []*query.RegionMonitoring, offers []core.Offer) *RegMonSlotResult {
	return RunRegionMonitoringSlot(t, queries, offers, RegMonOptions{Solver: BaselinePoint()})
}
