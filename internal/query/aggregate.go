package query

import (
	"math"
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
// therefore refreshes aggregate gains after every commit rather than
// trusting cached ones, settling most refreshes with GainBound.
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
// once and hands it back with every evaluation (GeomCached), together
// with theta_s as the sensor's weight. The state itself keeps no
// per-sensor memory: plain Gain and Add walk the sensor's disk, and no
// gain evaluation writes to the state.
type coverageState struct {
	q      Query
	budget float64
	// targets are the coverage targets. cols > 0 says they form a
	// row-major block of grid-cell centers with rows of cols points
	// (geo.Grid.CellBlock); 0 means no such structure (a polyline).
	targets []geo.Point
	cols    int
	r, r2   float64
	// colAxis and rowAxis turn a coordinate into a column or row index
	// estimate of the grid block (walk); unused on a polyline.
	colAxis, rowAxis axis

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
	st := &coverageState{
		q: q, budget: budget, targets: targets, cols: cols,
		r: sensingRange, r2: sensingRange * sensingRange, covered: make([]uint64, (len(targets)+63)/64),
	}
	if cols > 0 {
		rows := len(targets) / cols
		st.colAxis = newAxis(targets[0].X, targets[cols-1].X, cols)
		st.rowAxis = newAxis(targets[0].Y, targets[(rows-1)*cols].Y, rows)
	}
	return st
}

// axis estimates indices along one side of a grid block whose n cell
// centers run from first to last at an even step.
type axis struct {
	origin, inv float64
}

func newAxis(first, last float64, n int) axis {
	inv := float64(n-1) / (last - first)
	if math.IsInf(inv, 0) || math.IsNaN(inv) {
		inv = 0 // one center, or centers too close to tell apart: estimate 0
	}
	return axis{origin: first, inv: inv}
}

// near estimates the index of the center nearest v, clamped to [lo, hi].
// It is only a hint: walk fixes every estimate with the exact test.
func (a axis) near(v float64, lo, hi int) int {
	f := math.Round((v - a.origin) * a.inv)
	if !(f > float64(lo)) { // also NaN
		return lo
	}
	if f >= float64(hi) {
		return hi
	}
	return int(f)
}

// run returns the run [lo, hi] of indices in [0, n) on which in holds,
// given that in holds on one run only and at anchor. lo and hi start at
// estimates with lo <= anchor <= hi; each moves outward while in holds
// past it, or inward until it does.
func run(anchor, lo, hi, n int, in func(int) bool) (int, int) {
	if in(lo) {
		for lo > 0 && in(lo-1) {
			lo--
		}
	} else {
		for lo++; lo < anchor && !in(lo); lo++ {
		}
	}
	if in(hi) {
		for hi+1 < n && in(hi+1) {
			hi++
		}
	} else {
		for hi--; hi > anchor && !in(hi); hi-- {
		}
	}
	return lo, hi
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
// returns how many of them are not yet covered.
//
// A polyline tests every sample. A grid block is walked by row spans.
// Along a row dx grows with the column index and Dist2 grows with |dx|
// (rounding keeps order), so Dist2 first falls and then rises, and a
// row's in-range targets are one run of columns around the column
// nearest pos.X — the same column in every row. For a fixed column
// Dist2 grows with |dy| in the same way, and |dy| only grows away from
// the row nearest pos.Y, so each row's run lies inside the run of the
// row before it. walk finds the nearest row's run from index estimates
// fixed by the exact test, then walks outward in both directions,
// shrinking the run from both ends with the exact test until a row has
// none, and fills each run a word at a time.
func (st *coverageState) walk(pos geo.Point, dst []uint64) (fresh int) {
	if st.cols == 0 {
		for i, p := range st.targets {
			if p.Dist2(pos) <= st.r2 {
				w, b := i>>6, uint64(1)<<(i&63)
				if st.covered[w]&b == 0 {
					fresh++
				}
				if dst != nil {
					dst[w] |= b
				}
			}
		}
		return fresh
	}
	cols, rows := st.cols, len(st.targets)/st.cols
	mc := nearest(st.colAxis.near(pos.X, 0, cols-1), cols, pos.X, func(i int) float64 { return st.targets[i].X })
	mr := nearest(st.rowAxis.near(pos.Y, 0, rows-1), rows, pos.Y, func(j int) float64 { return st.targets[j*cols].Y })
	// Dist2 is smallest at (mr, mc): nothing is in range if that is not.
	t, r2 := st.targets, st.r2
	row := t[mr*cols : (mr+1)*cols]
	if !(row[mc].Dist2(pos) <= r2) {
		return 0
	}
	lo, hi := run(mc, st.colAxis.near(pos.X-st.r, 0, mc), st.colAxis.near(pos.X+st.r, mc, cols-1), cols,
		func(i int) bool { return row[i].Dist2(pos) <= r2 })
	fresh = st.fill(mr*cols+lo, mr*cols+hi+1, dst)
	for _, step := range [2]int{-1, 1} {
		l, h := lo, hi
	outward:
		for j := mr + step; j >= 0 && j < rows; j += step {
			row := t[j*cols : (j+1)*cols]
			for !(row[l].Dist2(pos) <= r2) {
				if l == mc {
					break outward // this row and every one beyond it is out of range
				}
				l++
			}
			for !(row[h].Dist2(pos) <= r2) {
				h--
			}
			fresh += st.fill(j*cols+l, j*cols+h+1, dst)
		}
	}
	return fresh
}

// nearest returns the index in [0, n) whose coordinate at(i) is nearest
// v, by |at(i) - v| as Dist2 rounds it, for ascending coordinates; i is
// an estimate.
func nearest(i, n int, v float64, at func(int) float64) int {
	// Move i to the first index whose coordinate is at least v.
	for i > 0 && at(i-1) >= v {
		i--
	}
	for i < n && at(i) < v {
		i++
	}
	if i == n || (i > 0 && v-at(i-1) < at(i)-v) {
		return i - 1
	}
	return i
}

// fill sets bits [a, b) of dst when dst is non-nil and returns how many of
// them are not yet covered.
func (st *coverageState) fill(a, b int, dst []uint64) (fresh int) {
	for a < b {
		w := a >> 6
		end := min(b, (w+1)<<6)
		m := ^uint64(0) >> (64 - (end - a)) << (a & 63)
		fresh += bits.OnesCount64(m &^ st.covered[w])
		if dst != nil {
			dst[w] |= m
		}
		a = end
	}
	return fresh
}

// gain is Eq. 5's marginal value of a sensor of quality th that newly
// covers nc targets. Both the exact gains and GainBound's bound go
// through it.
func (st *coverageState) gain(nc int, th float64) float64 {
	return st.valueOf(st.coveredCnt+nc, st.sumTheta+th, st.n+1) - st.value
}

func (st *coverageState) Gain(s *sensornet.Sensor) float64 {
	return st.gain(st.walk(s.Pos, nil), theta(s))
}

func (st *coverageState) Add(s *sensornet.Sensor) {
	st.commit(st.walk(s.Pos, st.covered), theta(s))
}

func (st *coverageState) commit(nc int, th float64) {
	st.coveredCnt += nc
	st.sumTheta += th
	st.n++
	st.value = st.valueOf(st.coveredCnt, st.sumTheta, st.n)
}

// GeomWords implements GeomCached.
func (st *coverageState) GeomWords() int { return len(st.covered) }

// BuildGeom implements GeomCached: the weight is theta_s.
func (st *coverageState) BuildGeom(s *sensornet.Sensor, mask []uint64) float64 {
	st.walk(s.Pos, mask)
	return theta(s)
}

// GainGeom implements GeomCached.
func (st *coverageState) GainGeom(mask []uint64, th float64) (float64, int) {
	nc := 0
	for w, m := range mask {
		nc += bits.OnesCount64(m &^ st.covered[w])
	}
	return st.gain(nc, th), nc
}

// GainBound implements GeomCached. gain(nc, th) is a chain of roundings
// that each keep order as nc grows — int to float, /targets, *B,
// *(sumTheta+th), /(n+1), -value — provided B and sumTheta+th are finite
// and non-negative; and with value below +Inf no step makes a NaN. Under
// those conditions the gain at an earlier, larger count bounds the
// current one.
func (st *coverageState) GainBound(nc int, th float64) (float64, bool) {
	t := st.sumTheta + th
	ok := st.budget >= 0 && st.budget <= math.MaxFloat64 &&
		t >= 0 && t <= math.MaxFloat64 && st.value <= math.MaxFloat64
	return st.gain(nc, th), ok
}

// AddGeom implements GeomCached.
func (st *coverageState) AddGeom(mask []uint64, th float64) {
	nc := 0
	for w, m := range mask {
		nc += bits.OnesCount64(m &^ st.covered[w])
		st.covered[w] |= m
	}
	st.commit(nc, th)
}
