package sim

import (
	"repro/internal/core"
	"repro/internal/query"
)

// LocMonSlotResult is the outcome of one time slot of location-monitoring
// data acquisition.
type LocMonSlotResult struct {
	// Point is the underlying point-query scheduling result.
	Point *PointResult
	// ValueGained sums, over the monitoring queries, the increase of
	// v_q(T', Theta) realized this slot; welfare per slot is
	// ValueGained - Point.TotalCost.
	ValueGained float64
	// Issued counts the point queries generated this slot.
	Issued int
}

// Welfare returns the slot's contribution to social welfare.
func (r *LocMonSlotResult) Welfare() float64 { return r.ValueGained - r.Point.TotalCost }

// RunLocationMonitoringSlot is Algorithm 2: at slot t, every active
// location monitoring query materializes (at most) one point query via
// CreatePointQuery; the batch is scheduled with the supplied point solver
// (Optimal or Local Search in the evaluation); ApplyResults feeds
// payments and reading qualities back into each query's state.
func RunLocationMonitoringSlot(t int, queries []*query.LocationMonitoring, offers []core.Offer, solve PointSolver) *LocMonSlotResult {
	return runLocMonSlot(t, queries, offers, solve, false)
}

// RunLocationMonitoringSlotBaseline is the §4.5 baseline: point queries
// are generated only at the desired sampling times and scheduled with the
// baseline point algorithm.
func RunLocationMonitoringSlotBaseline(t int, queries []*query.LocationMonitoring, offers []core.Offer) *LocMonSlotResult {
	return runLocMonSlot(t, queries, offers, BaselinePoint(), true)
}

func runLocMonSlot(t int, queries []*query.LocationMonitoring, offers []core.Offer, solve PointSolver, baseline bool) *LocMonSlotResult {
	var pts []*query.Point
	owners := make(map[string]*query.LocationMonitoring)
	valueBefore := make(map[string]float64)
	for _, q := range queries {
		if !q.Active(t) {
			continue
		}
		valueBefore[q.ID] = q.Value()
		var (
			p  *query.Point
			ok bool
		)
		if baseline {
			p, ok = q.CreatePointQueryBaseline(t)
		} else {
			p, ok = q.CreatePointQuery(t)
		}
		if !ok {
			continue
		}
		pts = append(pts, p)
		owners[p.QID()] = q
	}

	res := solve(pts, offers)

	out := &LocMonSlotResult{Point: res, Issued: len(pts)}
	for _, p := range pts {
		q := owners[p.QID()]
		if o, ok := res.Outcomes[p.QID()]; ok {
			q.ApplyResults(t, true, o.Payment, o.Theta)
		} else {
			q.ApplyResults(t, false, 0, 0)
		}
	}
	for _, q := range queries {
		if !q.Active(t) {
			continue
		}
		out.ValueGained += q.Value() - valueBefore[q.ID]
	}
	return out
}
