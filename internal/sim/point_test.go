package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// randomScenario builds a deterministic random point-query instance:
// sensors at the experiment-default cost of 10 and queries on integer
// locations, on a 30x30 field.
func randomScenario(seed int64, nSensors, nQueries int, budget float64) ([]*query.Point, []core.Offer) {
	s := rng.New(seed, "core-scenario")
	offers := make([]core.Offer, nSensors)
	for i := range offers {
		sn := sensornet.NewSensor(i, geo.Pt(s.Uniform(0, 30), s.Uniform(0, 30)))
		offers[i] = core.Offer{Sensor: sn, Cost: sn.Cost(0)}
	}
	queries := make([]*query.Point, nQueries)
	for i := range queries {
		loc := geo.Pt(float64(s.Intn(30)), float64(s.Intn(30)))
		queries[i] = query.NewPoint(fmt.Sprintf("q%d", i), loc, budget, 5)
	}
	return queries, offers
}

// TestUtilityEq12Submodular verifies the claim of §3.1.2 that
// u(S') = sum_l max_{s in S'} v_l(s) - sum costs is submodular: for random
// instances and random A ⊆ B and x ∉ B,
// u(A ∪ {x}) - u(A) >= u(B ∪ {x}) - u(B).
func TestUtilityEq12Submodular(t *testing.T) {
	f := func(seed uint32, mask uint16, pick uint8) bool {
		queries, offers := randomScenario(int64(seed%1000), 12, 20, 15)
		inst := newLSInstance(queries, offers)
		n := len(offers)
		x := int(pick) % n
		inB := make([]bool, n)
		inA := make([]bool, n)
		for i := 0; i < n; i++ {
			if i == x {
				continue
			}
			if mask&(1<<(uint(i)%16)) != 0 {
				inB[i] = true
				// A is a sub-sample of B.
				if i%2 == 0 {
					inA[i] = true
				}
			}
		}
		uA := inst.utility(inA)
		uB := inst.utility(inB)
		inA[x] = true
		inB[x] = true
		gainA := inst.utility(inA) - uA
		gainB := inst.utility(inB) - uB
		return gainA >= gainB-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
