package query

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/sensornet"
)

// Point is a single-sensor point query (§2.2.1): "the value of a
// phenomenon at a certain location", answered by one sensor reading. Its
// valuation is Eq. 3:
//
//	v_q(s) = B_q * theta_{q,s}   if theta_min <= theta_{q,s} <= 1
//	v_q(s) = 0                   otherwise
//
// with theta from Eq. 4 (distance, inaccuracy, trust).
type Point struct {
	ID  string
	Loc geo.Point
	// B is the query budget B_q.
	B float64
	// ThetaMin is the minimum acceptable quality (0.2 in the evaluation).
	ThetaMin float64
	// DMax is the maximum distance at which sensors can provide data
	// (5 for RWM, 10 for RNC in the evaluation).
	DMax float64
}

// NewPoint builds a point query with the evaluation defaults for
// theta_min (0.2).
func NewPoint(id string, loc geo.Point, budget, dmax float64) *Point {
	return &Point{ID: id, Loc: loc, B: budget, ThetaMin: 0.2, DMax: dmax}
}

// QID implements Query.
func (p *Point) QID() string { return p.ID }

// Budget implements Query.
func (p *Point) Budget() float64 { return p.B }

// Theta returns the reading quality theta_{q,s} of Eq. 4 for sensor s.
func (p *Point) Theta(s *sensornet.Sensor) float64 { return s.Quality(p.Loc, p.DMax) }

// ValueSingle returns v_q(s) of Eq. 3 for a single sensor.
func (p *Point) ValueSingle(s *sensornet.Sensor) float64 {
	theta := p.Theta(s)
	if theta < p.ThetaMin {
		return 0
	}
	return p.B * theta
}

// Relevant implements Query.
func (p *Point) Relevant(s *sensornet.Sensor) bool {
	return p.ValueSingle(s) > 0
}

// RelevantBase implements RelevanceBased: the relevance test evaluates
// v_q(s) (Eq. 3), which is exactly the pointState base value. A sensor
// beyond DMax has theta 0 and so no value; outOfRange rejects most of
// them before Quality's square root.
func (p *Point) RelevantBase(s *sensornet.Sensor) (bool, float64) {
	if outOfRange(s.Pos, p.Loc, p.DMax) {
		return false, 0
	}
	v := p.ValueSingle(s)
	return v > 0, v
}

// RelevanceFootprint implements Footprinted: quality (Eq. 4) is zero for
// sensors farther than DMax from the query location, so the footprint is
// the DMax box around Loc.
func (p *Point) RelevanceFootprint() geo.Rect {
	return geo.Rect{MinX: p.Loc.X - p.DMax, MinY: p.Loc.Y - p.DMax,
		MaxX: p.Loc.X + p.DMax, MaxY: p.Loc.Y + p.DMax}
}

// NewState implements Query. As a set valuation a point query is worth the
// best of its sensors: v_q(S) = max_{s in S} v_q(s).
func (p *Point) NewState() State { return &pointState{q: p} }

// SubmodularValuation implements Submodular: a max over singletons has
// non-increasing marginal gains.
func (p *Point) SubmodularValuation() bool { return true }

type pointState struct {
	q    *Point
	best float64
}

func (st *pointState) Query() Query   { return st.q }
func (st *pointState) Value() float64 { return st.best }

func (st *pointState) Gain(s *sensornet.Sensor) float64 {
	return st.GainFrom(st.BaseValue(s))
}

// BaseValue implements PairCached: v_q(s) depends only on the fixed
// sensor attributes and the query location, never on the selection state.
func (st *pointState) BaseValue(s *sensornet.Sensor) float64 {
	return st.q.ValueSingle(s)
}

// GainFrom implements PairCached.
func (st *pointState) GainFrom(v float64) float64 { return v - st.best }

func (st *pointState) Add(s *sensornet.Sensor) {
	if v := st.q.ValueSingle(s); v > st.best {
		st.best = v
	}
}

// outOfRange reports that sensor position pos is certainly farther than
// dmax from loc, so that Sensor.Quality(loc, dmax) is 0, without the
// square root Quality takes. Quality compares the rounded square root of
// the same dx*dx + dy*dy with dmax, and a Dist2 above dmax² puts that
// root at or above dmax, where the quality is 0. The margin of 2⁻⁴⁰
// absorbs a compiler that fuses the multiply-add in Dist2 differently
// from the one in Dist, as Go allows; a relative margin covers that only
// while dmax² is a normal float, so below that the test defers to
// Quality.
func outOfRange(pos, loc geo.Point, dmax float64) bool {
	lim := dmax * dmax * (1 + 0x1p-40)
	return lim >= 0x1p-1022 && pos.Dist2(loc) > lim
}

// MultiPoint is a multiple-sensor point query (§2.2.1): it asks for up to K
// redundant readings at one location, e.g. to assess trustworthiness. Its
// valuation averages the K best reading qualities:
//
//	v_q(S) = B_q * (sum of top-K theta_{q,s}) / K,
//
// which is submodular and rewards redundancy with diminishing returns.
type MultiPoint struct {
	ID       string
	Loc      geo.Point
	B        float64
	ThetaMin float64
	DMax     float64
	K        int
}

// NewMultiPoint builds a multiple-sensor point query asking for k readings.
func NewMultiPoint(id string, loc geo.Point, budget, dmax float64, k int) *MultiPoint {
	if k < 1 {
		k = 1
	}
	return &MultiPoint{ID: id, Loc: loc, B: budget, ThetaMin: 0.2, DMax: dmax, K: k}
}

// QID implements Query.
func (m *MultiPoint) QID() string { return m.ID }

// Budget implements Query.
func (m *MultiPoint) Budget() float64 { return m.B }

// Relevant implements Query.
func (m *MultiPoint) Relevant(s *sensornet.Sensor) bool {
	return s.Quality(m.Loc, m.DMax) >= m.ThetaMin
}

// RelevantBase implements RelevanceBased: the relevance threshold test
// computes the thresholded quality that is the multiPointState base. A
// sensor beyond DMax has quality 0, below a positive ThetaMin; outOfRange
// rejects most of them before Quality's square root.
func (m *MultiPoint) RelevantBase(s *sensornet.Sensor) (bool, float64) {
	if m.ThetaMin > 0 && outOfRange(s.Pos, m.Loc, m.DMax) {
		return false, 0
	}
	t := s.Quality(m.Loc, m.DMax)
	if !(t >= m.ThetaMin) { // Relevant's test, NaN included
		return false, 0
	}
	return true, t
}

// RelevanceFootprint implements Footprinted: quality is zero beyond DMax
// of the query location.
func (m *MultiPoint) RelevanceFootprint() geo.Rect {
	return geo.Rect{MinX: m.Loc.X - m.DMax, MinY: m.Loc.Y - m.DMax,
		MaxX: m.Loc.X + m.DMax, MaxY: m.Loc.Y + m.DMax}
}

// NewState implements Query.
func (m *MultiPoint) NewState() State {
	return &multiPointState{q: m, top: make([]float64, 0, m.K)}
}

// SubmodularValuation implements Submodular: a top-K sum has
// non-increasing marginal gains.
func (m *MultiPoint) SubmodularValuation() bool { return true }

type multiPointState struct {
	q   *MultiPoint
	top []float64 // qualities of the best readings so far, ascending, len <= K
}

func (st *multiPointState) Query() Query { return st.q }

func (st *multiPointState) Value() float64 {
	var sum float64
	for _, t := range st.top {
		sum += t
	}
	return st.q.B * sum / float64(st.q.K)
}

func (st *multiPointState) theta(s *sensornet.Sensor) float64 {
	t := s.Quality(st.q.Loc, st.q.DMax)
	if t < st.q.ThetaMin {
		return 0
	}
	return t
}

func (st *multiPointState) Gain(s *sensornet.Sensor) float64 {
	return st.GainFrom(st.BaseValue(s))
}

// BaseValue implements PairCached: the thresholded reading quality is a
// pure function of the sensor and the query.
func (st *multiPointState) BaseValue(s *sensornet.Sensor) float64 {
	return st.theta(s)
}

// GainFrom implements PairCached.
func (st *multiPointState) GainFrom(t float64) float64 {
	if t == 0 {
		return 0
	}
	if len(st.top) < st.q.K {
		return st.q.B * t / float64(st.q.K)
	}
	if t > st.top[0] {
		return st.q.B * (t - st.top[0]) / float64(st.q.K)
	}
	return 0
}

func (st *multiPointState) Add(s *sensornet.Sensor) {
	t := st.theta(s)
	if t > 0 {
		if len(st.top) < st.q.K {
			st.top = append(st.top, t)
		} else if t > st.top[0] {
			st.top[0] = t
		}
		// Keep ascending order; K is small so insertion sort suffices.
		for i := 1; i < len(st.top); i++ {
			for j := i; j > 0 && st.top[j] < st.top[j-1]; j-- {
				st.top[j], st.top[j-1] = st.top[j-1], st.top[j]
			}
		}
	}
}

// PointID formats the conventional identifier for machine-generated point
// queries (from monitoring queries), keeping payment traces readable.
func PointID(parent string, slot int, extra string) string {
	if extra == "" {
		return fmt.Sprintf("%s@t%d", parent, slot)
	}
	return fmt.Sprintf("%s@t%d/%s", parent, slot, extra)
}
