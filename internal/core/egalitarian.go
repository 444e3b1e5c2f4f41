package core

import (
	"repro/internal/query"
)

// EgalitarianPoint is the alternative objective sketched in §2:
// "an egalitarian approach could be followed, where the number of users
// with positive utility is maximized". This scheduler greedily picks the
// sensor answering the most not-yet-answered queries per unit cost, as
// long as the value it yields covers its cost so that proportionate cost
// sharing (Eq. 11) keeps every answered user's utility positive.
//
// It is not part of the paper's evaluation; the ablation bench compares it
// against the welfare-maximizing schedulers (satisfaction up, welfare
// down).
func EgalitarianPoint() PointSolver {
	return func(queries []*query.Point, offers []Offer) *PointResult {
		res := &PointResult{Outcomes: make(map[string]PointOutcome), Exact: true}
		groups := groupByLocation(queries)

		answered := make([]bool, len(groups))
		taken := make(map[int]bool, len(offers))
		assigned := make(map[int][]*locationGroup)

		for {
			bestI := -1
			var bestScore float64
			var bestCount int
			for i, o := range offers {
				if taken[o.Sensor.ID] {
					continue
				}
				count := 0
				var value float64
				for l := range groups {
					if answered[l] {
						continue
					}
					if v := groups[l].groupValue(o.Sensor); v > 0 {
						count += len(groups[l].queries)
						value += v
					}
				}
				// Only sensors whose value covers their cost keep all
				// users' utilities positive under Eq. 11.
				if count == 0 || value < o.Cost {
					continue
				}
				score := float64(count) / o.Cost
				if score > bestScore {
					bestScore, bestI, bestCount = score, i, count
				}
			}
			if bestI == -1 || bestCount == 0 {
				break
			}
			o := offers[bestI]
			taken[o.Sensor.ID] = true
			for l := range groups {
				if answered[l] {
					continue
				}
				if groups[l].groupValue(o.Sensor) > 0 {
					answered[l] = true
					assigned[bestI] = append(assigned[bestI], &groups[l])
				}
			}
		}

		res.settle(offers, groups, assigned)
		return res
	}
}
