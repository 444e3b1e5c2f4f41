package query

import (
	"math/bits"

	"repro/internal/geo"
	"repro/internal/sensornet"
)

// Aggregate is a spatial aggregate query (§2.2.2): the issuer wants an
// aggregate (avg/min/max) of a phenomenon over a region. Its valuation is
// Eq. 5:
//
//	v_q(S) = B_q * G_q(S) * (sum_s theta_s) / |S|
//
// where G_q is the fraction of the region covered by the sensors'
// sensing disks and theta_s is the reading quality of Eq. 4 relative to
// the sensor's own position inside the region (distance term vanishes, so
// theta_s = (1-gamma_s)*tau_s for in-range sensors).
type Aggregate struct {
	ID     string
	Region geo.Rect
	B      float64
	// SensingRange is the coverage radius of a sensor reading (10 units in
	// the evaluation).
	SensingRange float64
	// Grid discretizes coverage computation.
	Grid geo.Grid
	// MaxDist is how far outside the region a sensor may sit while still
	// contributing coverage; sensors farther than this are irrelevant.
	MaxDist float64
}

// NewAggregate builds a spatial aggregate query over region.
func NewAggregate(id string, region geo.Rect, budget, sensingRange float64, grid geo.Grid) *Aggregate {
	return &Aggregate{
		ID:           id,
		Region:       region,
		B:            budget,
		SensingRange: sensingRange,
		Grid:         grid,
		MaxDist:      sensingRange,
	}
}

// QID implements Query.
func (a *Aggregate) QID() string { return a.ID }

// Budget implements Query.
func (a *Aggregate) Budget() float64 { return a.B }

// Relevant implements Query: a sensor can contribute iff its sensing disk
// reaches the region.
func (a *Aggregate) Relevant(s *sensornet.Sensor) bool {
	return a.Region.DistToPoint(s.Pos) <= a.MaxDist
}

// RelevanceFootprint implements Footprinted: Relevant tests
// DistToPoint <= MaxDist, so the region expanded by MaxDist contains
// every relevant sensor position.
func (a *Aggregate) RelevanceFootprint() geo.Rect {
	return a.Region.Expand(a.MaxDist)
}

// NewState implements Query. The state is the shared Eq. 5 coverage
// kernel over the region's grid-cell centers.
//
// Aggregate deliberately does NOT implement Submodular: the coverage
// term G_q alone would be, but Eq. 5 multiplies it by the *mean* reading
// quality, so committing a low-quality high-coverage sensor can raise a
// high-quality sensor's later marginal gain. The lazy-greedy strategy
// therefore re-evaluates aggregate gains eagerly rather than trusting
// cached bounds.
func (a *Aggregate) NewState() State {
	cells, cols := a.Grid.CellBlock(a.Region)
	return newCoverageState(a, a.B, cells, cols, a.SensingRange)
}

// Trajectory is a query over a trajectory (§2.2.3), "a special case of
// spatial aggregate query in which instead of providing a region of
// interest, a trajectory is specified". Coverage is the fraction of the
// trajectory's sample points within sensing range of a selected sensor.
type Trajectory struct {
	ID           string
	Path         geo.Trajectory
	B            float64
	SensingRange float64
	// SampleStep is the spacing of coverage sample points along the path.
	SampleStep float64

	samples []geo.Point
}

// NewTrajectory builds a trajectory query.
func NewTrajectory(id string, path geo.Trajectory, budget, sensingRange float64) *Trajectory {
	t := &Trajectory{ID: id, Path: path, B: budget, SensingRange: sensingRange, SampleStep: 1}
	t.samples = path.SamplePoints(t.SampleStep)
	return t
}

// QID implements Query.
func (t *Trajectory) QID() string { return t.ID }

// Budget implements Query.
func (t *Trajectory) Budget() float64 { return t.B }

// Relevant implements Query.
func (t *Trajectory) Relevant(s *sensornet.Sensor) bool {
	r2 := t.SensingRange * t.SensingRange
	for _, p := range t.samples {
		if p.Dist2(s.Pos) <= r2 {
			return true
		}
	}
	return false
}

// RelevanceFootprint implements Footprinted: a relevant sensor is within
// SensingRange of some sample point, all of which lie inside the path's
// bounding rectangle.
func (t *Trajectory) RelevanceFootprint() geo.Rect {
	return t.Path.BoundingRect().Expand(t.SensingRange)
}

// NewState implements Query; the valuation mirrors Eq. 5 with polyline
// coverage (the same kernel over the path's sample points).
func (t *Trajectory) NewState() State {
	return newCoverageState(t, t.B, t.samples, 0, t.SensingRange)
}

// coverageState is the valuation state of Eq. 5 for both coverage-based
// query kinds: targets are an aggregate's grid-cell centers or a
// trajectory's sample points, and
//
//	v_q(S) = B_q * (covered targets / targets) * (sum_s theta_s) / |S|
//
// with theta_s = (1-gamma_s)*tau_s: inaccuracy and trust matter, the
// distance term of Eq. 4 is 1 because the sensor measures at its own
// location.
//
// Coverage is a bitset: covered holds one bit per target, and a sensor's
// in-range set is a mask of the same width, so the newly-covered count of
// a gain is popcount(mask &^ covered) and a commit is covered |= mask. A
// sensor's mask depends on its position alone and sensors do not move
// within a slot, so a selection run builds each relevant sensor's mask
// once and hands it back with every evaluation (GeomCached). The state
// itself keeps no per-sensor memory: plain Gain and Add walk the sensor's
// disk, and no gain evaluation writes to the state.
type coverageState struct {
	q      Query
	budget float64
	// targets are the coverage targets. cols > 0 says they form a
	// row-major block of grid-cell centers with rows of cols points
	// (geo.Grid.CellBlock); 0 means no such structure (a polyline).
	targets []geo.Point
	cols    int
	r2      float64

	// covered has bit i set once targets[i] is within range of a
	// committed sensor. Its length is the width of every mask.
	covered    []uint64
	coveredCnt int
	sumTheta   float64
	n          int
	// value caches Value() of the committed set: every gain subtracts it.
	value float64
}

func newCoverageState(q Query, budget float64, targets []geo.Point, cols int, sensingRange float64) *coverageState {
	return &coverageState{
		q: q, budget: budget, targets: targets, cols: cols,
		r2: sensingRange * sensingRange, covered: make([]uint64, (len(targets)+63)/64),
	}
}

func (st *coverageState) Query() Query { return st.q }

func (st *coverageState) Value() float64 { return st.value }

func (st *coverageState) valueOf(coveredCnt int, sumTheta float64, n int) float64 {
	if n == 0 || len(st.targets) == 0 {
		return 0
	}
	g := float64(coveredCnt) / float64(len(st.targets))
	return st.budget * g * sumTheta / float64(n)
}

func theta(s *sensornet.Sensor) float64 { return (1 - s.Inaccuracy) * s.Trust }

// walk visits the targets within sensing range of pos — exactly those
// with Dist2(pos) <= r2 — sets their bits in dst when dst is non-nil, and
// returns how many of them are not yet covered. On a grid block it only
// tests the rows and columns the disk's bounding box reaches: a target
// whose dy*dy (or dx*dx) alone exceeds r2 cannot pass the full test,
// because adding a non-negative term never rounds a float sum below
// either term.
func (st *coverageState) walk(pos geo.Point, dst []uint64) (fresh int) {
	visit := func(i int) {
		w, b := i>>6, uint64(1)<<(i&63)
		if st.covered[w]&b == 0 {
			fresh++
		}
		if dst != nil {
			dst[w] |= b
		}
	}
	if st.cols == 0 {
		for i, p := range st.targets {
			if p.Dist2(pos) <= st.r2 {
				visit(i)
			}
		}
		return fresh
	}
	outside := func(d float64) bool { return !(d*d <= st.r2) }
	lo, hi := 0, st.cols
	for lo < hi && outside(st.targets[lo].X-pos.X) {
		lo++
	}
	for hi > lo && outside(st.targets[hi-1].X-pos.X) {
		hi--
	}
	for row := 0; row < len(st.targets); row += st.cols {
		if outside(st.targets[row].Y - pos.Y) {
			continue
		}
		for i := row + lo; i < row+hi; i++ {
			if st.targets[i].Dist2(pos) <= st.r2 {
				visit(i)
			}
		}
	}
	return fresh
}

// gain is Eq. 5's marginal value of a sensor that newly covers nc targets.
func (st *coverageState) gain(nc int, s *sensornet.Sensor) float64 {
	return st.valueOf(st.coveredCnt+nc, st.sumTheta+theta(s), st.n+1) - st.value
}

func (st *coverageState) Gain(s *sensornet.Sensor) float64 {
	return st.gain(st.walk(s.Pos, nil), s)
}

func (st *coverageState) Add(s *sensornet.Sensor) {
	st.commit(st.walk(s.Pos, st.covered), s)
}

func (st *coverageState) commit(nc int, s *sensornet.Sensor) {
	st.coveredCnt += nc
	st.sumTheta += theta(s)
	st.n++
	st.value = st.valueOf(st.coveredCnt, st.sumTheta, st.n)
}

// GeomWords implements GeomCached.
func (st *coverageState) GeomWords() int { return len(st.covered) }

// BuildGeom implements GeomCached.
func (st *coverageState) BuildGeom(s *sensornet.Sensor, mask []uint64) { st.walk(s.Pos, mask) }

// GainGeom implements GeomCached.
func (st *coverageState) GainGeom(mask []uint64, s *sensornet.Sensor) float64 {
	nc := 0
	for w, m := range mask {
		nc += bits.OnesCount64(m &^ st.covered[w])
	}
	return st.gain(nc, s)
}

// AddGeom implements GeomCached.
func (st *coverageState) AddGeom(mask []uint64, s *sensornet.Sensor) {
	nc := 0
	for w, m := range mask {
		nc += bits.OnesCount64(m &^ st.covered[w])
		st.covered[w] |= m
	}
	st.commit(nc, s)
}
