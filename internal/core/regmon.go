package core

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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

// regPlan is one query's sampling plan for the current slot and, once
// applied, what the query paid on it.
type regPlan struct {
	q            *query.RegionMonitoring
	active       int     // index of q in RegMonSlot.active
	expectedCost float64 // C_t: announced (weighted) cost of planned sensors
	probes       []int   // indices of the plan's point queries among the slot's probes
	spent        float64 // payments for the answered point queries
	paid         float64 // spent plus the sharing-stage contributions
	satisfied    bool    // some observation was recorded
}

// maxPlanningTimes caps the future time instants Algorithm 4 considers:
// the paper iterates t = tc..q.t2, and planning subsamples that horizon to
// this many instants to bound its cost.
const maxPlanningTimes = 8

// RegMonSlot is one slot of Algorithm 3 over the active region queries,
// between planning (PlanRegionMonitoring) and applying a selection's
// results (Apply). Algorithm 5 plans and applies it around its joint
// pass; the paper's standalone Algorithm 3 driver (internal/sim) around
// a point solver.
type RegMonSlot struct {
	active []*query.RegionMonitoring
	before []float64 // Eq. 7 valuation of each active query before the slot
	plans  []*regPlan
	// Posterior cache accounting of the planning calls, for SelectionStats.
	appended, rebuilt int64
}

// plannedQuery is what planning one active query produced. The worker
// that planned the query fills it; PlanRegionMonitoring reads it back in
// query order.
type plannedQuery struct {
	before float64
	plan   *regPlan // nil when Algorithm 4 selected nothing
	// points are the plan's probes; plan.probes index them until the
	// assembly offsets the indices into the slot's probe list.
	points            []*query.Point
	appended, rebuilt int64
}

// PlanRegionMonitoring is the planning half of Algorithm 3: every active
// query picks its sampling locations with Algorithm 4 under its remaining
// budget, on costs weighted by weight(k(s)) (Eq. 18; nil charges the full
// cost), and CreatePointQueries turns each planned location into a point
// query worth its leave-one-out marginal v_q(S_t) - v_q(S_t \ {s}).
//
// The queries are independent of each other, so they are planned on
// min(GOMAXPROCS, active) workers, each pulling query indices and owning
// a planning arena. Planning mutates the query (its base-posterior cache
// and value memo), so each query is planned by exactly one worker; its
// results land in its own plannedQuery and are assembled here in query
// order. Probe order, probe IDs and every sum are therefore those of a
// serial pass, whatever GOMAXPROCS is. With one worker no goroutine
// starts.
func PlanRegionMonitoring(t int, queries []*query.RegionMonitoring, offers []Offer, weight func(k int) float64) (*RegMonSlot, []*query.Point) {
	rs := &RegMonSlot{}
	for _, q := range queries {
		if q.Active(t) {
			q.ResetIfNeeded(t)
			rs.active = append(rs.active, q)
		}
	}
	if len(rs.active) == 0 {
		return rs, nil
	}
	ar := getPlanArena()
	defer putPlanArena(ar)

	// k(s): how many active query regions contain each sensor (Eq. 18).
	shareCount := ar.shareCount
	clear(shareCount)
	for _, o := range offers {
		for _, q := range rs.active {
			if q.Region.Contains(o.Sensor.Pos) {
				shareCount[o.Sensor.ID]++
			}
		}
	}

	planned := make([]plannedQuery, len(rs.active))
	var next atomic.Int32
	work := func(ar *planArena) {
		for {
			qi := int(next.Add(1)) - 1
			if qi >= len(planned) {
				return
			}
			planQuery(ar, &planned[qi], rs.active[qi], t, offers, shareCount, weight)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(planned)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			war := getPlanArena()
			defer putPlanArena(war)
			work(war)
		}()
	}
	work(ar)
	wg.Wait()

	var pts []*query.Point
	rs.before = make([]float64, len(planned))
	for qi := range planned {
		pq := &planned[qi]
		rs.before[qi] = pq.before
		rs.appended += pq.appended
		rs.rebuilt += pq.rebuilt
		if pq.plan == nil {
			continue
		}
		pq.plan.active = qi
		for k := range pq.plan.probes {
			pq.plan.probes[k] += len(pts)
		}
		pts = append(pts, pq.points...)
		rs.plans = append(rs.plans, pq.plan)
	}
	return rs, pts
}

// planQuery plans one active query into pq on ar: Algorithm 4 over the
// offers inside its region (S_{r,t}) at their weighted costs (SC_{r,t}),
// then CreatePointQueries over the current-slot selections. shareCount is
// k(s) by sensor ID, read only.
func planQuery(ar *planArena, pq *plannedQuery, q *query.RegionMonitoring, t int, offers []Offer, shareCount map[int]int, weight func(k int) float64) {
	pq.before = q.Value()
	inRegion, costs := ar.inRegion[:0], ar.costs[:0]
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
	ar.inRegion, ar.costs = inRegion, costs
	sel, appended, rebuilt := selectSamplingPoints(ar, q, inRegion, costs, q.RemainingBudget(), t)
	pq.appended, pq.rebuilt = appended, rebuilt
	if len(sel) == 0 {
		return
	}
	pos, thetas := ar.planPos[:0], ar.planThetas[:0]
	for _, si := range sel {
		pos = append(pos, inRegion[si].Sensor.Pos)
		thetas = append(thetas, q.Theta(inRegion[si].Sensor))
	}
	ar.planPos, ar.planThetas = pos, thetas
	plan := &regPlan{q: q, probes: make([]int, 0, len(sel))}
	pq.points = make([]*query.Point, 0, len(sel))
	for i, marginal := range q.PlanMarginals(pos, thetas, &ar.marginals) {
		if marginal <= 0 {
			continue
		}
		s := inRegion[sel[i]].Sensor
		p := query.NewPoint(query.PointID(q.ID, t, "s"+strconv.Itoa(s.ID)), s.Pos, marginal, RegionProbeDMax)
		p.ThetaMin = 0.01
		plan.probes = append(plan.probes, len(pq.points))
		pq.points = append(pq.points, p)
		plan.expectedCost += costs[sel[i]]
	}
	pq.plan = plan
}

// planArena is one planning worker's scratch: what planQuery, Algorithm 4
// and CreatePointQueries build for a query and drop before the next one,
// kept across queries and slots so that warm planning allocates only what
// it returns. It serves one goroutine at a time.
type planArena struct {
	shareCount map[int]int // k(s) of Eq. 18, in the arena of the calling goroutine

	// planQuery: one query's in-region offers with their weighted costs,
	// and its plan's locations and qualities for PlanMarginals.
	inRegion   []Offer
	costs      []float64
	planPos    []geo.Point
	planThetas []float64
	marginals  query.PlanScratch

	// selectSamplingPoints: the time instants, their rows and trackers,
	// and per candidate its quality. probes, marginal and used hold one
	// block of candidates for the shared first row, then one block per
	// time instant for the row that commits there. slab holds the
	// probes' and the trackers' new rows' vectors.
	times    []int
	rows     []planRow
	trackers []gp.Posterior
	probes   []gp.Probe
	marginal []float64
	used     []bool
	thetas   []float64
	sel      []int
	slab     gp.Slab
}

// idlePlanArenas holds the arenas of finished planning workers for the
// next ones, a free list for the reason idleArenas is one: a sync.Pool
// empties at every GC. It holds at most as many arenas as planning
// workers ever ran at once.
var idlePlanArenas struct {
	sync.Mutex
	free []*planArena
}

// getPlanArena takes an idle planning arena, or makes one.
func getPlanArena() *planArena {
	idlePlanArenas.Lock()
	defer idlePlanArenas.Unlock()
	n := len(idlePlanArenas.free)
	if n == 0 {
		return &planArena{shareCount: make(map[int]int)}
	}
	ar := idlePlanArenas.free[n-1]
	idlePlanArenas.free = idlePlanArenas.free[:n-1]
	return ar
}

// putPlanArena returns an arena to idlePlanArenas.
func putPlanArena(ar *planArena) {
	idlePlanArenas.Lock()
	idlePlanArenas.free = append(idlePlanArenas.free, ar)
	idlePlanArenas.Unlock()
}

// Apply is ApplyResults of Algorithm 3. answered reports the sensor and
// payment that satisfied the k-th generated point query (k indexes the
// probes PlanRegionMonitoring returned); each plan records those
// observations. With share set, a query then contributes to sensors
// selected for other queries inside its region, best marginal first, up
// to alpha*(C_t - C-hat_t); each contribution is booked in the plan's paid.
func (rs *RegMonSlot) Apply(answered func(k int) (*sensornet.Sensor, float64, bool), selected []*sensornet.Sensor, share bool) {
	recorded := make(map[*regPlan]map[int]bool, len(rs.plans))
	for _, plan := range rs.plans {
		recorded[plan] = make(map[int]bool)
		for _, k := range plan.probes {
			s, paid, ok := answered(k)
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
	var sc query.PlanScratch
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
			if dv := marginalRegionValue(q, s, &sc); dv > 0 {
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

// ValueGained sums, over the slot's active queries, the increase of the
// Eq. 7 valuation since planning.
func (rs *RegMonSlot) ValueGained() float64 {
	var sum float64
	for qi, q := range rs.active {
		sum += q.Value() - rs.before[qi]
	}
	return sum
}

// marginalRegionValue computes v_q(S ∪ {s}) - v_q(S) on the query's
// accumulated observation state: the marginal of a one-point plan, on
// the query's kept kernel blocks, in sc.
func marginalRegionValue(q *query.RegionMonitoring, s *sensornet.Sensor, sc *query.PlanScratch) float64 {
	return q.PlanMarginals([]geo.Point{s.Pos}, []float64{q.Theta(s)}, sc)[0]
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
// It works in ar and returns the selected in-region offer indices, in
// ar's buffer until ar's next use, plus the posterior cache accounting of
// this call: how many accumulated observations were folded in by rank-1
// append vs replayed by a from-scratch rebuild (see
// query.RegionMonitoring.BasePosterior).
func selectSamplingPoints(ar *planArena, q *query.RegionMonitoring, inRegion []Offer, costs []float64, budget float64, tc int) (sel []int, appended, rebuilt int64) {
	if len(inRegion) == 0 || budget <= 0 {
		return nil, 0, 0
	}
	horizon := q.End - tc
	times := append(ar.times[:0], tc)
	if horizon > 0 {
		step := 1
		if horizon+1 > maxPlanningTimes {
			step = (horizon + maxPlanningTimes - 1) / maxPlanningTimes
		}
		for tm := tc + step; tm <= q.End; tm += step {
			times = append(times, tm)
		}
	}
	ar.times = times
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
	ar.slab.Reset()
	n, blocks := len(inRegion), 1+len(times)
	ar.probes = grow(ar.probes, blocks*n)
	ar.marginal = grow(ar.marginal, blocks*n)
	ar.used = grow(ar.used, blocks*n)
	ar.thetas = grow(ar.thetas, n)
	for len(ar.trackers) < len(times) {
		ar.trackers = append(ar.trackers, gp.Posterior{})
	}
	first := planRow{probes: ar.probes[:n:n], marginal: ar.marginal[:n:n], used: ar.used[:n:n]}
	clear(first.used)
	thetas := ar.thetas
	for si, o := range inRegion {
		first.probes[si] = base.NewProbe(o.Sensor.Pos, &ar.slab)
		first.marginal[si] = first.probes[si].Reduction()
		thetas[si] = q.Theta(o.Sensor)
	}
	ar.rows = grow(ar.rows, len(times))
	rows := ar.rows
	for ti, tm := range times {
		rows[ti] = first
		rows[ti].timeFactor = float64(q.End-tm) / duration
		if tm == tc {
			// The current slot is never zero-weighted, even for queries
			// ending this very slot.
			rows[ti].timeFactor = math.Max(rows[ti].timeFactor, 1/duration)
		}
	}

	currentSel := ar.sel[:0]
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
		rows[bestT].commit(ar, base, bestT, bestS)
		spent += costs[bestS]
		if times[bestT] == tc {
			currentSel = append(currentSel, bestS)
		}
	}
	ar.sel = currentSel
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

// commit adds candidate si to row ti's set and brings the row's other
// marginals up to date with it. A row's first commit moves it off the
// shared first row onto its own tracker and candidate block in ar.
func (r *planRow) commit(ar *planArena, base *gp.Posterior, ti, si int) {
	if r.tracker == nil {
		r.tracker = base.Clone(&ar.trackers[ti])
		n := len(r.probes)
		lo, hi := (1+ti)*n, (2+ti)*n
		shared := r.probes
		r.probes = ar.probes[lo:hi:hi]
		for i := range shared {
			r.probes[i] = shared[i].Clone(&ar.slab)
		}
		r.marginal = append(ar.marginal[lo:lo:hi], r.marginal...)
		r.used = ar.used[lo:hi:hi]
		clear(r.used)
	}
	r.tracker.AddProbe(&r.probes[si], &ar.slab)
	r.used[si] = true
	for i := range r.probes {
		if pr := &r.probes[i]; !r.used[i] {
			r.tracker.Extend(pr)
			r.marginal[i] = pr.Reduction()
		}
	}
}
