package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// makeOffers builds stationary sensors at the given positions with the
// experiment-default cost of 10.
func makeOffers(positions ...geo.Point) []Offer {
	offers := make([]Offer, len(positions))
	for i, p := range positions {
		s := sensornet.NewSensor(i, p)
		offers[i] = Offer{Sensor: s, Cost: s.Cost(0)}
	}
	return offers
}

func makePoints(budget, dmax float64, locs ...geo.Point) []*query.Point {
	out := make([]*query.Point, len(locs))
	for i, l := range locs {
		out[i] = query.NewPoint(fmt.Sprintf("q%d", i), l, budget, dmax)
	}
	return out
}
