package sim

import (
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/rng"
)

// DefaultLocalSearchEpsilon is the improvement threshold of the Local
// Search algorithm: a move must improve u by a factor (1 + eps/n^2) to be
// taken, yielding the 1/(3+eps)-approximation of [Feige et al., FOCS'07].
const DefaultLocalSearchEpsilon = 0.01

// lsInstance precomputes, for each location group, the candidate sensors
// and their group values, so u(S') of Eq. 12 and its marginals evaluate
// fast:
//
//	u(S') = sum_l max_{s in S'} v_l(s) - sum_{s in S'} c_s.
type lsInstance struct {
	offers []core.Offer
	groups []locationGroup
	// value[l][i] is v_l(offers[i].Sensor); cand[l] lists i with value>0.
	value [][]float64
	cand  [][]int
}

func newLSInstance(queries []*query.Point, offers []core.Offer) *lsInstance {
	inst := &lsInstance{offers: offers, groups: groupByLocation(queries)}
	inst.value = make([][]float64, len(inst.groups))
	inst.cand = make([][]int, len(inst.groups))
	for l := range inst.groups {
		inst.value[l] = make([]float64, len(offers))
		for i, o := range offers {
			v := inst.groups[l].groupValue(o.Sensor)
			inst.value[l][i] = v
			if v > 0 {
				inst.cand[l] = append(inst.cand[l], i)
			}
		}
	}
	return inst
}

// utility evaluates u(S') for the member bitmap.
func (inst *lsInstance) utility(member []bool) float64 {
	var u float64
	for l := range inst.groups {
		best := 0.0
		for _, i := range inst.cand[l] {
			if member[i] && inst.value[l][i] > best {
				best = inst.value[l][i]
			}
		}
		u += best
	}
	for i, m := range member {
		if m {
			u -= inst.offers[i].Cost
		}
	}
	return u
}

// LocalSearchPoint returns the heuristic scheduler of §3.1.2: the
// deterministic Local Search for non-monotone submodular maximization.
// Starting from the best singleton it adds any sensor improving u by more
// than the (1+eps/n^2) threshold, then deletes obsolete sensors, repeating
// until stable; finally it returns the better of W and its complement
// (or the empty set when both have negative utility).
func LocalSearchPoint(eps float64) PointSolver {
	return func(queries []*query.Point, offers []core.Offer) *PointResult {
		inst := newLSInstance(queries, offers)
		member := localSearch(inst, eps, nil)
		return inst.finish(member)
	}
}

// RandomizedLocalSearchPoint is the randomized variant mentioned (but not
// used) in §3.1.2. Instead of the exact smooth-local-search construction
// we run the deterministic search from `restarts` random starting sensors
// with randomized improvement order and keep the best result — a practical
// randomization that explores different local optima.
func RandomizedLocalSearchPoint(eps float64, restarts int, seed int64) PointSolver {
	if restarts < 1 {
		restarts = 3
	}
	return func(queries []*query.Point, offers []core.Offer) *PointResult {
		inst := newLSInstance(queries, offers)
		rnd := rng.New(seed, "randomized-local-search")
		var best []bool
		bestU := 0.0
		for r := 0; r < restarts; r++ {
			member := localSearch(inst, eps, rnd)
			if u := inst.utility(member); u > bestU {
				bestU = u
				best = append(best[:0:0], member...)
			}
		}
		if best == nil {
			best = make([]bool, len(offers))
		}
		return inst.finish(best)
	}
}

// localSearch runs one local-search pass. A nil rnd gives the
// deterministic variant (best-singleton start, first-improvement scans in
// index order); with rnd, the start and scan order are randomized.
func localSearch(inst *lsInstance, eps float64, rnd *rng.Stream) []bool {
	n := len(inst.offers)
	member := make([]bool, n)
	if n == 0 {
		return member
	}
	threshold := func(u float64) float64 {
		t := u * eps / float64(n*n)
		if t < 0 {
			t = 0
		}
		return t + 1e-12
	}

	// Start from the best (or a random positive) singleton.
	start, bestU := -1, 0.0
	if rnd == nil {
		for i := 0; i < n; i++ {
			member[i] = true
			if u := inst.utility(member); u > bestU {
				bestU, start = u, i
			}
			member[i] = false
		}
	} else {
		perm := rnd.Perm(n)
		for _, i := range perm {
			member[i] = true
			if u := inst.utility(member); u > 0 {
				start = i
				member[i] = false
				break
			}
			member[i] = false
		}
	}
	if start == -1 {
		return member // no profitable singleton: empty allocation
	}
	member[start] = true
	cur := inst.utility(member)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for changed := true; changed; {
		changed = false
		// Add phase.
		for again := true; again; {
			again = false
			if rnd != nil {
				rnd.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for _, i := range order {
				if member[i] {
					continue
				}
				member[i] = true
				if u := inst.utility(member); u > cur+threshold(cur) {
					cur = u
					again = true
					changed = true
				} else {
					member[i] = false
				}
			}
		}
		// Delete phase: remove obsolete sensors.
		for _, i := range order {
			if !member[i] {
				continue
			}
			member[i] = false
			if u := inst.utility(member); u > cur+threshold(cur) {
				cur = u
				changed = true
			} else {
				member[i] = true
			}
		}
	}

	// Compare with the complement (the 1/3 guarantee needs max(u(W),
	// u(S\W))) and with the empty set.
	comp := make([]bool, n)
	for i := range comp {
		comp[i] = !member[i]
	}
	switch {
	case inst.utility(comp) > cur && inst.utility(comp) > 0:
		return comp
	case cur <= 0:
		return make([]bool, n)
	default:
		return member
	}
}

// finish converts a member bitmap into a PointResult with Eq. 11 payments.
// Sensors that end up serving no location are dropped (they would only
// cost).
func (inst *lsInstance) finish(member []bool) *PointResult {
	res := &PointResult{Outcomes: make(map[string]PointOutcome), Exact: true}
	assigned := make(map[int][]*locationGroup)
	for l := range inst.groups {
		best, bestI := 0.0, -1
		for _, i := range inst.cand[l] {
			if member[i] && inst.value[l][i] > best {
				best, bestI = inst.value[l][i], i
			}
		}
		if bestI >= 0 {
			assigned[bestI] = append(assigned[bestI], &inst.groups[l])
		}
	}
	res.settle(inst.offers, inst.groups, assigned)
	return res
}
