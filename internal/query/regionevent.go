package query

import (
	"repro/internal/geo"
)

// RegionEvent is the Q4 query of §2.3: "notify me when avg(phenomenon) > x
// with confidence > alpha in region R in the period [t1, t2]". Like
// EventDetection it is the redundant-sampling extension the paper leaves
// as future work, lifted from a single location to a region: each active
// slot the query materializes a spatial-aggregate probe; the fused
// detection confidence combines reading trustworthiness with how much of
// the region the readings actually covered (an uncovered region can hide
// a counter-example to the average).
type RegionEvent struct {
	ID     string
	Region geo.Rect
	Start  int
	End    int
	// Threshold is x: the event is the regional average exceeding it.
	Threshold float64
	// Confidence is alpha, the required detection confidence in (0,1).
	Confidence float64
	// BudgetPerSlot bounds the per-slot spend on probes.
	BudgetPerSlot float64
	// SensingRange is the coverage radius used by the aggregate probe.
	SensingRange float64
	// Grid discretizes coverage computation.
	Grid geo.Grid

	// cells and cols are Grid.CellBlock(Region), derived once: every
	// slot's probe states and coverage count read them, none writes.
	cells []geo.Point
	cols  int
}

// NewRegionEvent builds a region event-detection query.
func NewRegionEvent(id string, region geo.Rect, start, end int, threshold, confidence, budgetPerSlot, sensingRange float64, grid geo.Grid) *RegionEvent {
	if confidence <= 0 {
		confidence = 0.9
	}
	if confidence >= 1 {
		confidence = 0.999
	}
	e := &RegionEvent{
		ID:            id,
		Region:        region,
		Start:         start,
		End:           end,
		Threshold:     threshold,
		Confidence:    confidence,
		BudgetPerSlot: budgetPerSlot,
		SensingRange:  sensingRange,
		Grid:          grid,
	}
	e.cells, e.cols = grid.CellBlock(region)
	return e
}

// Active reports whether the query runs during slot t.
func (e *RegionEvent) Active(t int) bool { return t >= e.Start && t <= e.End }

// CreateProbe materializes this slot's aggregate probe: an Aggregate query
// whose coverage-weighted valuation makes the joint scheduler prefer
// well-spread, trustworthy sensors — exactly what regional event
// confidence needs.
func (e *RegionEvent) CreateProbe(t int) (*Aggregate, bool) {
	if !e.Active(t) {
		return nil, false
	}
	a := NewAggregate(PointID(e.ID, t, "rev"), e.Region, e.BudgetPerSlot, e.SensingRange, e.Grid)
	a.cells, a.cols = e.cells, e.cols
	return a, true
}

// Coverage returns the fraction of the region's grid cells within
// sensing range of a reading's position (geo.CoverageFraction), the
// coverage DetectionConfidence fuses.
func (e *RegionEvent) Coverage(positions []geo.Point) float64 {
	return geo.CoverageFraction(e.cells, positions, e.SensingRange)
}

// DetectionConfidence fuses reading qualities and achieved coverage:
// coverage * (1 - prod(1 - theta_i)). Full trust cannot compensate for an
// unobserved half of the region, and full coverage cannot compensate for
// untrustworthy readings.
func (e *RegionEvent) DetectionConfidence(thetas []float64, coverage float64) float64 {
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	miss := 1.0
	for _, t := range thetas {
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		miss *= 1 - t
	}
	return coverage * (1 - miss)
}

// Evaluate fuses the probe's readings (values with matching qualities) and
// the achieved coverage fraction; it reports whether the quality-weighted
// regional average exceeds the threshold with sufficient confidence.
func (e *RegionEvent) Evaluate(values, thetas []float64, coverage float64) (detected bool, confidence float64, avg float64) {
	if len(values) == 0 || len(values) != len(thetas) {
		return false, 0, 0
	}
	confidence = e.DetectionConfidence(thetas, coverage)
	var wsum, wv float64
	for i, v := range values {
		w := thetas[i]
		if w <= 0 {
			continue
		}
		wsum += w
		wv += w * v
	}
	if wsum == 0 {
		return false, 0, 0
	}
	avg = wv / wsum
	detected = avg > e.Threshold && confidence >= e.Confidence
	return detected, confidence, avg
}
