package query

import (
	"math"

	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/regression"
	"repro/internal/sensornet"
)

// LocationMonitoring is a continuous query monitoring a phenomenon at one
// location over [Start, End] (§2.3, query Q1). The application provides
// desired sampling times T and the valuation of Eqs. 16-17:
//
//	v_q(T', Theta) = B_q * G(T') * avg(Theta)
//	G(T') = sum_i r_i^2|T / sum_i r_i^2|T'
//
// where residuals come from a linear model over the location's historical
// trace. The runtime fields implement the state of Algorithm 2
// (T', C-hat, last/next sampling time).
type LocationMonitoring struct {
	ID       string
	Loc      geo.Point
	Start    int
	End      int
	B        float64
	DMax     float64
	ThetaMin float64
	// Alpha is the fraction of the accumulated extra budget an
	// opportunistic (off-schedule) sample may consume (§3.3; 0.5 in §4.5).
	Alpha float64
	// History is the location's historical trace driving the residual
	// model; Desired is T, the desired sampling times (slot numbers).
	History *regression.Series
	Desired []float64

	// ExpectedTheta is the assumed quality of a prospective reading when
	// valuing a sample before sensor selection ("vq considers ... the
	// expected quality of a sensor reading before the actual sensor
	// selection", §3.3).
	ExpectedTheta float64

	// Runtime state of Algorithm 2.
	Sampled []float64 // T': slots at which a sample was obtained
	Thetas  []float64 // qualities of the obtained samples
	Spent   float64   // C-hat: payments made so far
	nstIdx  int       // index into Desired of the next unsatisfied time
	inited  bool
}

// NewLocationMonitoring builds a location monitoring query; desired
// sampling times are selected from the history with the OptiMoS-style
// technique of [19] (numSamples fixed, §4.5 uses duration/3).
func NewLocationMonitoring(id string, loc geo.Point, start, end int, budget, dmax float64, history *regression.Series, numSamples int) *LocationMonitoring {
	// Desired times must lie inside the query window, so the OptiMoS-style
	// selection runs on the window-restricted history ("the data values for
	// the current time interval are almost the same as the data values in
	// the same time interval in the past", §4.5).
	var wTimes, wVals []float64
	for i, tm := range history.Times {
		if tm >= float64(start) && tm <= float64(end) {
			wTimes = append(wTimes, tm)
			wVals = append(wVals, history.Values[i])
		}
	}
	var inWindow []float64
	if len(wTimes) > 0 {
		windowed := &regression.Series{Times: wTimes, Values: wVals}
		inWindow = regression.SelectSamplingTimes(windowed, numSamples)
	} else {
		// No history inside the window: fall back to evenly spaced slots.
		if numSamples > end-start+1 {
			numSamples = end - start + 1
		}
		for k := 0; k < numSamples; k++ {
			inWindow = append(inWindow, float64(start+k*(end-start)/maxInt(1, numSamples-1)))
		}
	}
	sortFloats(inWindow)
	return &LocationMonitoring{
		ID:            id,
		Loc:           loc,
		Start:         start,
		End:           end,
		B:             budget,
		DMax:          dmax,
		ThetaMin:      0.2,
		Alpha:         0.5,
		History:       history,
		Desired:       inWindow,
		ExpectedTheta: 0.7,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Active reports whether the query runs during slot t.
func (q *LocationMonitoring) Active(t int) bool { return t >= q.Start && t <= q.End }

// avgTheta returns the average collected quality, or the expected quality
// when nothing was sampled yet.
func (q *LocationMonitoring) avgTheta() float64 {
	if len(q.Thetas) == 0 {
		return q.ExpectedTheta
	}
	var sum float64
	for _, t := range q.Thetas {
		sum += t
	}
	return sum / float64(len(q.Thetas))
}

// Value returns v_q(T', Theta) of Eq. 16 for the samples obtained so far.
func (q *LocationMonitoring) Value() float64 {
	if len(q.Sampled) == 0 {
		return 0
	}
	return q.B * regression.Quality(q.History, q.Desired, q.Sampled) * q.avgTheta()
}

// valueWith returns the valuation if a sample at slot t with expected
// quality were added.
func (q *LocationMonitoring) valueWith(t int) float64 {
	sampled := append(append([]float64(nil), q.Sampled...), float64(t))
	thetaSum := q.ExpectedTheta
	for _, th := range q.Thetas {
		thetaSum += th
	}
	avg := thetaSum / float64(len(q.Thetas)+1)
	return q.B * regression.Quality(q.History, q.Desired, sampled) * avg
}

// isDesired reports whether slot t is one of the desired sampling times.
func (q *LocationMonitoring) isDesired(t int) bool {
	for _, d := range q.Desired {
		if d == float64(t) {
			return true
		}
	}
	return false
}

// missedPending reports whether a desired sampling time has passed without
// being satisfied ("sampling at the last sampling time has been failed").
func (q *LocationMonitoring) missedPending(t int) bool {
	return q.nstIdx < len(q.Desired) && q.Desired[q.nstIdx] < float64(t)
}

// pastSchedule reports whether t is past the final requested sampling time
// (the "q.nst = infinity" condition).
func (q *LocationMonitoring) pastSchedule() bool { return q.nstIdx >= len(q.Desired) }

// CreatePointQuery implements the paper's CreatePointQuery(t, q): it
// returns the point query to issue at slot t, or ok=false when no sampling
// is worthwhile this slot. Urgent slots (desired time, missed desired
// time, or past the schedule) may spend the full marginal value Delta-v_t;
// opportunistic slots spend at most alpha times the accumulated surplus.
func (q *LocationMonitoring) CreatePointQuery(t int) (*Point, bool) {
	if !q.inited || t == q.Start {
		q.Sampled = nil
		q.Thetas = nil
		q.Spent = 0
		q.nstIdx = 0
		q.inited = true
	}
	dvt := q.valueWith(t) - q.Value()
	var dv float64
	if q.isDesired(t) || q.pastSchedule() || q.missedPending(t) {
		dv = dvt
	} else {
		surplus := q.Alpha * (q.Value() - q.Spent)
		dv = math.Min(surplus, dvt)
	}
	if dv <= 0 {
		return nil, false
	}
	p := NewPoint(PointID(q.ID, t, ""), q.Loc, dv, q.DMax)
	p.ThetaMin = q.ThetaMin
	return p, true
}

// CreatePointQueryBaseline is the baseline generator of §4.5: "point
// queries are generated only at the desired sampling times", always with
// the full marginal value, with no opportunistic sampling and no
// extra-budget control.
func (q *LocationMonitoring) CreatePointQueryBaseline(t int) (*Point, bool) {
	if !q.inited || t == q.Start {
		q.Sampled = nil
		q.Thetas = nil
		q.Spent = 0
		q.nstIdx = 0
		q.inited = true
	}
	if !q.isDesired(t) {
		return nil, false
	}
	dv := q.valueWith(t) - q.Value()
	if dv <= 0 {
		return nil, false
	}
	p := NewPoint(PointID(q.ID, t, ""), q.Loc, dv, q.DMax)
	p.ThetaMin = q.ThetaMin
	return p, true
}

// ApplyResults implements the paper's ApplyResults(t, q, pi): records the
// outcome of the point query issued at slot t. satisfied=false corresponds
// to pi = -infinity. theta is the quality of the obtained reading.
func (q *LocationMonitoring) ApplyResults(t int, satisfied bool, payment, theta float64) {
	if !satisfied {
		return
	}
	q.Sampled = append(q.Sampled, float64(t))
	q.Thetas = append(q.Thetas, theta)
	q.Spent += payment
	for q.nstIdx < len(q.Desired) && q.Desired[q.nstIdx] <= float64(t) {
		q.nstIdx++
	}
}

// Quality returns the end-of-life result quality: achieved valuation over
// budget, the metric plotted in Fig. 8(b).
func (q *LocationMonitoring) Quality() float64 {
	if q.B == 0 {
		return 0
	}
	return q.Value() / q.B
}

// RegionMonitoring is a continuous query monitoring a region over
// [Start, End] (§2.3, query Q2) valued by expected variance reduction of a
// Gaussian-process phenomenon model (Eqs. 6-7):
//
//	v_q(S) = B_q * F(S) * (sum_s theta_s)/|S|.
//
// F is the GP variance reduction over the region's grid cells, normalized
// by RefFraction of the total prior variance; because F is "not bounded
// by 1" (§4.6) the result quality can exceed 1 when shared sensors push
// the explained variance beyond the reference level.
type RegionMonitoring struct {
	ID     string
	Region geo.Rect
	Start  int
	End    int
	B      float64
	Model  *gp.GP
	Grid   geo.Grid
	// Alpha is the share of unspent expected cost available for
	// opportunistic sensor sharing (§3.3; 0.5 in §4.6).
	Alpha float64
	// RefFraction is the fraction of total prior variance whose removal
	// counts as F = 1.
	RefFraction float64

	targets []geo.Point

	// Runtime state of Algorithm 3: the accumulated observation set q.S
	// and spending q.C-hat.
	ObsPoints []geo.Point
	Thetas    []float64
	Spent     float64
	inited    bool

	// basePost caches the posterior conditioned on ObsPoints[:baseObs],
	// so each slot's planning appends only the observations recorded
	// since the previous slot instead of replaying the whole history.
	// Invalidated by ResetIfNeeded and by factorization degradation.
	basePost *gp.Posterior
	baseObs  int

	// kb holds the kernel entries of ObsPoints[:kb.Len()] over the
	// targets, valid while kbOK, so Value and PlanMarginals evaluate the
	// kernel only for points it does not hold yet: the observations
	// Record appended since the last use, and a candidate plan, which
	// PlanMarginals appends and truncates again. ResetIfNeeded drops it,
	// as it drops basePost; its buffers stay for the next window, or go
	// to the next query's when Release retires this one.
	kb   gp.KernelBlocks
	kbOK bool

	// value memoises Value() for the current ObsPoints: the valuation is
	// asked for several times a slot (before planning, after applying
	// results, by every sharing candidate) and only Record and
	// ResetIfNeeded change its answer.
	value   float64
	valueOK bool
}

// NewRegionMonitoring builds a region monitoring query.
func NewRegionMonitoring(id string, region geo.Rect, start, end int, budget float64, model *gp.GP, grid geo.Grid) *RegionMonitoring {
	q := &RegionMonitoring{
		ID:          id,
		Region:      region,
		Start:       start,
		End:         end,
		B:           budget,
		Model:       model,
		Grid:        grid,
		Alpha:       0.5,
		RefFraction: 0.7,
	}
	q.targets = grid.CellsIn(region)
	return q
}

// Active reports whether the query runs during slot t.
func (q *RegionMonitoring) Active(t int) bool { return t >= q.Start && t <= q.End }

// Targets returns the region's grid-cell centers (the unobserved-location
// set V of Eq. 6).
func (q *RegionMonitoring) Targets() []geo.Point { return q.targets }

// F computes the normalized variance-reduction term of Eq. 7 for an
// observation point set.
func (q *RegionMonitoring) F(obs []geo.Point) float64 {
	if len(obs) == 0 {
		return 0
	}
	return q.fOn(q.Model.NewKernelBlocks(q.targets, obs), nil)
}

// fOn is F for the points idx selects from kb's point set (nil: all), at
// least one.
func (q *RegionMonitoring) fOn(kb *gp.KernelBlocks, idx []int) float64 {
	if len(q.targets) == 0 {
		return 0
	}
	norm, err := kb.NormalizedVarianceReduction(idx)
	if err != nil {
		return 0
	}
	return norm / q.RefFraction
}

// Theta returns the reading quality of sensor s for this query (own
// location, so only inaccuracy and trust matter).
func (q *RegionMonitoring) Theta(s *sensornet.Sensor) float64 {
	return (1 - s.Inaccuracy) * s.Trust
}

// ValueOf evaluates Eq. 7 on an arbitrary observation set.
func (q *RegionMonitoring) ValueOf(obs []geo.Point, thetas []float64) float64 {
	if len(obs) == 0 {
		return 0
	}
	var sum float64
	for _, t := range thetas {
		sum += t
	}
	return q.B * q.F(obs) * sum / float64(len(obs))
}

// Value returns the valuation of everything observed so far: ValueOf
// the accumulated observations, on the query's own kernel blocks.
func (q *RegionMonitoring) Value() float64 {
	if !q.valueOK {
		q.value, q.valueOK = 0, true
		if n := len(q.ObsPoints); n > 0 {
			var sum float64
			for _, t := range q.Thetas {
				sum += t
			}
			q.value = q.B * q.fOn(q.obsBlocks(), nil) * sum / float64(n)
		}
	}
	return q.value
}

// obsBlocks returns the query's kernel blocks over all of ObsPoints,
// extended by the observations recorded since their last use.
func (q *RegionMonitoring) obsBlocks() *gp.KernelBlocks {
	if !q.kbOK {
		q.kb.Reset(q.Model, q.targets)
		q.kbOK = true
	}
	q.kb.Extend(q.ObsPoints[q.kb.Len():]...)
	return &q.kb
}

// withPlan returns the accumulated observations (q.S of Algorithm 3)
// followed by a candidate plan, points and qualities, written over pts
// and thetas (nil: new slices).
func (q *RegionMonitoring) withPlan(pts []geo.Point, thetas []float64, planPts []geo.Point, planThetas []float64) ([]geo.Point, []float64) {
	pts = append(append(pts[:0], q.ObsPoints...), planPts...)
	thetas = append(append(thetas[:0], q.Thetas...), planThetas...)
	return pts, thetas
}

// PlanValue evaluates Eq. 7 on the union of the already-acquired
// observations and a candidate plan. Conditioning plan marginals on the
// accumulated state keeps a saturated query from re-buying information it
// already holds.
func (q *RegionMonitoring) PlanValue(planPts []geo.Point, planThetas []float64) float64 {
	if len(planPts) == 0 {
		return q.Value()
	}
	return q.ValueOf(q.withPlan(nil, nil, planPts, planThetas))
}

// PlanScratch holds PlanMarginals' buffers between calls: the qualities
// of the plan joined to the accumulated observations, the normalized
// reductions of the plan and its leave-one-out subsets, and the
// marginals. The zero value is ready. Not safe for concurrent use.
type PlanScratch struct {
	thetas []float64
	norms  []float64
	out    []float64
}

// PlanMarginals returns, for each point i of a plan, the value the plan
// loses without it: PlanValue(plan) - PlanValue(plan \ {i}), the worth
// CreatePointQueries gives the point query generated for i. The
// query's kernel blocks, extended by the plan, give the plan's Eq. 6
// reduction and each leave-one-out subset's from one forward sweep
// (gp.KernelBlocks.LeaveOneOut): the subsets share the plan's factor,
// forward rows and sums up to the dropped point, and the kernel is
// evaluated for the plan's points alone. Every valuation is still the
// float PlanValue computes. The work happens in sc (a fresh scratch
// when nil), and the result is sc's buffer, valid until sc's next use.
func (q *RegionMonitoring) PlanMarginals(planPts []geo.Point, planThetas []float64, sc *PlanScratch) []float64 {
	if sc == nil {
		sc = &PlanScratch{}
	}
	kb := q.obsBlocks()
	nObs := kb.Len()
	kb.Extend(planPts...)
	sc.norms, _ = kb.LeaveOneOut(sc.norms, nObs) // a failed factorization values its set at 0, as fOn does
	kb.Truncate(nObs)
	sc.thetas = append(append(sc.thetas[:0], q.Thetas...), planThetas...)
	// valueWithout is Eq. 7 for every point but skip (-1: none), whose
	// normalized reduction is norm.
	valueWithout := func(skip int, norm float64) float64 {
		var sum float64
		n := 0
		for i, th := range sc.thetas {
			if i != skip {
				sum += th
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return q.B * (norm / q.RefFraction) * sum / float64(n)
	}
	full := valueWithout(-1, sc.norms[0])
	sc.out = sc.out[:0]
	for i := range planPts {
		sc.out = append(sc.out, full-valueWithout(nObs+i, sc.norms[1+i]))
	}
	return sc.out
}

// ResetIfNeeded initializes runtime state at the query's first active slot
// (the "if t = q.t1" branches of Algorithm 3).
func (q *RegionMonitoring) ResetIfNeeded(t int) {
	if !q.inited || t == q.Start {
		q.ObsPoints = nil
		q.Thetas = nil
		q.Spent = 0
		q.inited = true
		q.basePost = nil
		q.baseObs = 0
		q.kbOK = false
		q.valueOK = false
	}
}

// Release hands the query's kernel blocks on to the next region-monitoring
// query that starts (gp.KernelBlocks.Release); the aggregator calls it
// when it drops the query. A later Value rebuilds the blocks rather than
// read buffers another query now owns.
func (q *RegionMonitoring) Release() {
	q.kb.Release()
	q.kbOK = false
}

// BasePosterior returns the GP posterior over Targets() conditioned on
// all of ObsPoints, reusing the cached factorization from the previous
// slot: only observations recorded since the last call are appended
// (rank-1 updates, O(m·|targets|) each) instead of replaying the whole
// history (O(m²·|targets|) total). Because gp.Posterior.Add is a pure
// append — row m of the Cholesky factor depends only on rows 0..m-1 and
// the new point — the incremental result is bit-identical to a
// from-scratch build over the same ObsPoints sequence. When the cached
// factorization reports Degraded (an ill-conditioned row that would
// amplify rounding in later appends), the cache falls back to an exact
// from-scratch recompute and stays on that path until reset.
//
// The returned posterior is owned by the query: callers must Clone it
// before calling Add. appended and rebuilt report how many observations
// were rank-1-appended vs replayed by a from-scratch rebuild, for
// SelectionStats.
func (q *RegionMonitoring) BasePosterior() (base *gp.Posterior, appended, rebuilt int64) {
	if q.basePost == nil || q.baseObs > len(q.ObsPoints) || q.basePost.Degraded() {
		q.basePost = q.Model.NewPosterior(q.targets)
		q.baseObs = 0
		rebuilt = int64(len(q.ObsPoints))
	} else {
		appended = int64(len(q.ObsPoints) - q.baseObs)
	}
	for _, p := range q.ObsPoints[q.baseObs:] {
		q.basePost.Add(p)
	}
	q.baseObs = len(q.ObsPoints)
	return q.basePost, appended, rebuilt
}

// Record adds an obtained observation.
func (q *RegionMonitoring) Record(p geo.Point, theta, payment float64) {
	q.ObsPoints = append(q.ObsPoints, p)
	q.Thetas = append(q.Thetas, theta)
	q.Spent += payment
	q.valueOK = false
}

// RemainingBudget returns B_q minus payments so far.
func (q *RegionMonitoring) RemainingBudget() float64 { return q.B - q.Spent }

// Quality returns achieved valuation over budget (Fig. 9(b)); it can
// exceed 1 because F is unbounded.
func (q *RegionMonitoring) Quality() float64 {
	if q.B == 0 {
		return 0
	}
	return q.Value() / q.B
}
