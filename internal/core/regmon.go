package core

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// WeightEq18 is the cost-weighting function w(k) of Eq. 18 applied to a
// sensor that falls into the region of k region-monitoring queries. The
// paper defines w as returning "a real value between 0 and 1" and prints
// the table {11-k for k<10, 0.1 otherwise}; we read it on the 0..1 scale
// as (11-k)/10: no discount for a single query, down to 10% of the cost
// at ten or more sharing queries.
func WeightEq18(k int) float64 {
	if k <= 1 {
		return 1
	}
	if k >= 10 {
		return 0.1
	}
	return float64(11-k) / 10
}

// RegMonOptions configures region-monitoring acquisition.
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
	// Weight overrides WeightEq18 when non-nil.
	Weight func(k int) float64
	// MaxPlanningTimes caps the future time instants Algorithm 4 considers
	// (the paper iterates t = tc..q.t2; we subsample to bound planning
	// cost). 0 means 8.
	MaxPlanningTimes int
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

// regPlan is one query's sampling plan for the current slot and, once
// applied, what the query paid on it.
type regPlan struct {
	q            *query.RegionMonitoring
	expectedCost float64  // C_t: announced (weighted) cost of planned sensors
	pointIDs     []string // generated point query IDs
	spent        float64  // payments for the answered point queries
	paid         float64  // spent plus the sharing-stage contributions
	satisfied    bool     // some observation was recorded
}

// regmonSlot is one slot of Algorithm 3 over the active region queries,
// between planning (planRegionMonitoring) and applying the joint
// selection's results (apply).
type regmonSlot struct {
	active []*query.RegionMonitoring
	before []float64 // Eq. 7 valuation of each active query before the slot
	plans  []*regPlan
	// Posterior cache accounting of the planning calls, for SelectionStats.
	appended, rebuilt int64
}

// planRegionMonitoring is the planning half of Algorithm 3: every active
// query picks its sampling locations with Algorithm 4 under its remaining
// budget, on costs weighted by weight(k(s)) (Eq. 18; nil charges the full
// cost), and CreatePointQueries turns each planned location into a point
// query worth its leave-one-out marginal v_q(S_t) - v_q(S_t \ {s}).
func planRegionMonitoring(t int, queries []*query.RegionMonitoring, offers []Offer, weight func(k int) float64, maxTimes int) (*regmonSlot, []*query.Point) {
	rs := &regmonSlot{}
	for _, q := range queries {
		if q.Active(t) {
			q.ResetIfNeeded(t)
			rs.active = append(rs.active, q)
		}
	}
	if len(rs.active) == 0 {
		return rs, nil
	}

	// k(s): how many active query regions contain each sensor (Eq. 18).
	shareCount := make(map[int]int)
	for _, o := range offers {
		for _, q := range rs.active {
			if q.Region.Contains(o.Sensor.Pos) {
				shareCount[o.Sensor.ID]++
			}
		}
	}

	var pts []*query.Point
	rs.before = make([]float64, len(rs.active))
	for qi, q := range rs.active {
		rs.before[qi] = q.Value()
		// S_{r,t} and SC_{r,t}: in-region sensors with (weighted) costs.
		var inRegion []Offer
		var costs []float64
		for _, o := range offers {
			if !q.Region.Contains(o.Sensor.Pos) {
				continue
			}
			c := o.Cost
			if weight != nil {
				c *= weight(shareCount[o.Sensor.ID])
			}
			inRegion = append(inRegion, o)
			costs = append(costs, c)
		}
		planned, appended, rebuilt := selectSamplingPoints(q, inRegion, costs, q.RemainingBudget(), t, maxTimes)
		rs.appended += appended
		rs.rebuilt += rebuilt
		if len(planned) == 0 {
			continue
		}
		plan := &regPlan{q: q}
		pos := make([]geo.Point, len(planned))
		thetas := make([]float64, len(planned))
		for i, pi := range planned {
			pos[i] = inRegion[pi].Sensor.Pos
			thetas[i] = q.Theta(inRegion[pi].Sensor)
		}
		for i, marginal := range q.PlanMarginals(pos, thetas) {
			if marginal <= 0 {
				continue
			}
			s := inRegion[planned[i]].Sensor
			p := query.NewPoint(query.PointID(q.ID, t, "s"+strconv.Itoa(s.ID)), s.Pos, marginal, RegionProbeDMax)
			p.ThetaMin = 0.01
			pts = append(pts, p)
			plan.pointIDs = append(plan.pointIDs, p.QID())
			plan.expectedCost += costs[planned[i]]
		}
		rs.plans = append(rs.plans, plan)
	}
	return rs, pts
}

// apply is ApplyResults of Algorithm 3. answered reports the sensor and
// payment that satisfied a generated point query; each plan records those
// observations. With share set, a query then contributes to sensors
// selected for other queries inside its region, best marginal first, up
// to alpha*(C_t - C-hat_t); each contribution is booked in the plan's paid.
func (rs *regmonSlot) apply(answered func(pid string) (*sensornet.Sensor, float64, bool), selected []*sensornet.Sensor, share bool) {
	recorded := make(map[*regPlan]map[int]bool, len(rs.plans))
	for _, plan := range rs.plans {
		recorded[plan] = make(map[int]bool)
		for _, pid := range plan.pointIDs {
			s, paid, ok := answered(pid)
			if !ok {
				continue
			}
			plan.q.Record(s.Pos, plan.q.Theta(s), paid)
			recorded[plan][s.ID] = true
			plan.spent += paid
		}
		plan.paid = plan.spent
		plan.satisfied = plan.spent > 0
	}
	if !share {
		return
	}
	for _, plan := range rs.plans {
		q := plan.q
		budget := q.Alpha * (plan.expectedCost - plan.spent)
		if budget <= 0 {
			continue
		}
		type cand struct {
			s  *sensornet.Sensor
			dv float64
		}
		var cands []cand
		for _, s := range selected {
			if !q.Region.Contains(s.Pos) || recorded[plan][s.ID] {
				continue
			}
			if dv := marginalRegionValue(q, s); dv > 0 {
				cands = append(cands, cand{s: s, dv: dv})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dv != cands[j].dv {
				return cands[i].dv > cands[j].dv
			}
			return cands[i].s.ID < cands[j].s.ID
		})
		for _, c := range cands {
			if budget <= 0 {
				break
			}
			pay := math.Min(c.dv, budget)
			q.Record(c.s.Pos, q.Theta(c.s), pay)
			budget -= pay
			plan.paid += pay
			plan.satisfied = true
		}
	}
}

// RunRegionMonitoringSlot is Algorithm 3 with Algorithm 4 as the
// query-specific sampling-point selector f_q: each active region
// monitoring query plans its best sampling locations under the remaining
// budget, materializes one point query per planned location valued at its
// marginal contribution v_q(S_t) - v_q(S_t \ {s}) (CreatePointQueries),
// all point queries are scheduled jointly, results are applied, and each
// query may opportunistically contribute to sensors selected for other
// queries inside its region, capped at alpha*(C_t - C-hat_t)
// (ApplyResults).
func RunRegionMonitoringSlot(t int, queries []*query.RegionMonitoring, offers []Offer, opts RegMonOptions) *RegMonSlotResult {
	if opts.Solver == nil {
		opts.Solver = OptimalPoint(OptimalOptions{})
	}
	var weight func(int) float64
	if opts.CostWeighting {
		weight = opts.Weight
		if weight == nil {
			weight = WeightEq18
		}
	}

	out := &RegMonSlotResult{}
	rs, pts := planRegionMonitoring(t, queries, offers, weight, opts.MaxPlanningTimes)
	if len(rs.active) == 0 {
		out.Point = &PointResult{Outcomes: map[string]PointOutcome{}, Exact: true}
		return out
	}
	out.Issued = len(pts)

	res := opts.Solver(pts, offers)
	out.Point = res
	out.Point.Stats.PosteriorAppends += rs.appended
	out.Point.Stats.PosteriorRebuilds += rs.rebuilt

	// The observation recorded for a probe is the point solver's sensor for
	// it. RunMixSlotWith records the first sensor of the probe's joint
	// outcome instead; the two are kept as they were, since either choice
	// moves the other path's welfare.
	rs.apply(func(pid string) (*sensornet.Sensor, float64, bool) {
		o, ok := res.Outcomes[pid]
		return o.Sensor, o.Payment, ok
	}, res.Selected, opts.ShareSensors)

	for qi, q := range rs.active {
		out.ValueGained += q.Value() - rs.before[qi]
	}
	return out
}

// RunRegionMonitoringSlotBaseline is the §4.6 baseline: no cost weighting,
// no sensor sharing, and the baseline point algorithm for the generated
// point queries.
func RunRegionMonitoringSlotBaseline(t int, queries []*query.RegionMonitoring, offers []Offer) *RegMonSlotResult {
	return RunRegionMonitoringSlot(t, queries, offers, RegMonOptions{
		Solver:        BaselinePoint(),
		CostWeighting: false,
		ShareSensors:  false,
	})
}

// marginalRegionValue computes v_q(S ∪ {s}) - v_q(S) on the query's
// accumulated observation state.
func marginalRegionValue(q *query.RegionMonitoring, s *sensornet.Sensor) float64 {
	afterPts := make([]geo.Point, 0, len(q.ObsPoints)+1)
	afterPts = append(afterPts, q.ObsPoints...)
	afterPts = append(afterPts, s.Pos)
	afterThetas := make([]float64, 0, len(q.Thetas)+1)
	afterThetas = append(afterThetas, q.Thetas...)
	afterThetas = append(afterThetas, q.Theta(s))
	return q.ValueOf(afterPts, afterThetas) - q.Value()
}

// selectSamplingPoints is Algorithm 4: greedy sampling-point selection for
// a region monitoring query at time tc. It keeps one candidate observation
// set per (subsampled) future time instant; each step adds the
// (sensor, time) pair maximizing
//
//	delta_{s,t} = (F(S_t ∪ {s}) - F(S_t)) * theta_s * (t2 - t)/(t2 - t1)
//
// and charges the sensor's (weighted) cost against the budget; only
// current-time selections are returned. The time-discount factor "is an
// attempt to increase the chance of selecting sensors for the current
// time" (§3.3). Marginal F evaluations use the incremental GP posterior.
// It returns the selected in-region offer indices plus the posterior
// cache accounting of this call: how many accumulated observations were
// folded in by rank-1 append vs replayed by a from-scratch rebuild
// (see query.RegionMonitoring.BasePosterior).
func selectSamplingPoints(q *query.RegionMonitoring, inRegion []Offer, costs []float64, budget float64, tc, maxTimes int) (sel []int, appended, rebuilt int64) {
	if len(inRegion) == 0 || budget <= 0 {
		return nil, 0, 0
	}
	if maxTimes <= 0 {
		maxTimes = 8
	}
	horizon := q.End - tc
	times := []int{tc}
	if horizon > 0 {
		step := 1
		if horizon+1 > maxTimes {
			step = (horizon + maxTimes - 1) / maxTimes
		}
		for tm := tc + step; tm <= q.End; tm += step {
			times = append(times, tm)
		}
	}
	duration := float64(q.End - q.Start)
	if duration <= 0 {
		duration = 1
	}

	// Every time instant's set starts from the query's accumulated
	// observations, so marginals measure genuinely new information. (The
	// paper's pseudocode resets S_t to empty each slot; conditioning on
	// q.S keeps a saturated query from re-buying what it already knows,
	// which matches the intent of the budget control C-hat.) The base
	// factorization is cached on the query across slots and extended by
	// rank-1 appends; it stays owned by the query, so a time instant gets
	// a clone of it, never the base itself.
	//
	// A time instant's marginals F(S_t ∪ {s}) - F(S_t) change only when S_t
	// does, so they are kept in a table, one row per time instant, and a
	// step refreshes the one row it committed to. Until its first commit a
	// row's S_t is the base set: such rows share one row of probes and
	// marginals, computed once, and have no tracker of their own yet.
	base, appended, rebuilt := q.BasePosterior()
	first := planRow{probes: make([]gp.Probe, len(inRegion)), marginal: make([]float64, len(inRegion)), used: make([]bool, len(inRegion))}
	thetas := make([]float64, len(inRegion))
	for si, o := range inRegion {
		first.probes[si] = base.NewProbe(o.Sensor.Pos)
		first.marginal[si] = first.probes[si].Reduction()
		thetas[si] = q.Theta(o.Sensor)
	}
	rows := make([]planRow, len(times))
	for ti, tm := range times {
		rows[ti] = first
		rows[ti].timeFactor = float64(q.End-tm) / duration
		if tm == tc {
			// The current slot is never zero-weighted, even for queries
			// ending this very slot.
			rows[ti].timeFactor = math.Max(rows[ti].timeFactor, 1/duration)
		}
	}

	var currentSel []int
	var spent float64
	for iter := 0; iter < 200 && spent < budget; iter++ {
		bestDelta := 1e-9
		bestS, bestT := -1, -1
		for ti := range rows {
			row := &rows[ti]
			if row.timeFactor <= 0 {
				continue
			}
			for si, m := range row.marginal {
				if row.used[si] {
					continue
				}
				delta := m * thetas[si] * row.timeFactor
				if delta > bestDelta {
					bestDelta, bestS, bestT = delta, si, ti
				}
			}
		}
		if bestS < 0 {
			break
		}
		rows[bestT].commit(base, bestS)
		spent += costs[bestS]
		if times[bestT] == tc {
			currentSel = append(currentSel, bestS)
		}
	}
	return currentSel, appended, rebuilt
}

// planRow is one time instant of Algorithm 4: its observation set S_t as
// a posterior tracker, and per candidate a probe following the tracker
// and the marginal F(S_t ∪ {s}) - F(S_t) the probe reports.
type planRow struct {
	timeFactor float64
	tracker    *gp.Posterior // nil while S_t is still the base set
	// Per candidate; shared with the other untouched rows, and not to be
	// written, while tracker is nil.
	probes   []gp.Probe
	marginal []float64
	used     []bool // candidates already in S_t
}

// commit adds candidate si to the row's set and brings the row's other
// marginals up to date with it.
func (r *planRow) commit(base *gp.Posterior, si int) {
	if r.tracker == nil {
		r.tracker = base.Clone()
		shared := r.probes
		r.probes = make([]gp.Probe, len(shared))
		for i := range shared {
			r.probes[i] = shared[i].Clone()
		}
		r.marginal = append([]float64(nil), r.marginal...)
		r.used = make([]bool, len(shared))
	}
	r.tracker.AddProbe(&r.probes[si])
	r.used[si] = true
	for i := range r.probes {
		if pr := &r.probes[i]; !r.used[i] {
			r.tracker.Extend(pr)
			r.marginal[i] = pr.Reduction()
		}
	}
}
