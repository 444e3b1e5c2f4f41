// Package core is the serving path's selection: utility-driven sensor
// selection for participatory sensing under multi-query optimization
// (§3), as every Aggregator slot, shard lane and cluster node runs it. It
// contains
//
//   - Algorithm 1, greedy multi-sensor selection with proportionate cost
//     sharing (Eq. 11), as the lazy greedy and its serial reference scan
//     (greedy.go, lazygreedy.go),
//   - Algorithms 3-4, region-monitoring planning and result application
//     (regmon.go),
//   - Algorithm 5 for the query mix, which generates the location and
//     region monitoring probes and answers every query in one joint
//     Algorithm 1 pass (mix.go), and
//   - the Eq. 11 check of every slot's published payments
//     (conservation.go).
//
// The paper's comparators — the exact BILP scheduler, Local Search, the
// baselines, the egalitarian objective and the standalone Algorithm 2/3
// drivers — live with the experiments in internal/sim.
package core

import "repro/internal/sensornet"

// Offer is a sensor's per-slot announcement (position is in Sensor.Pos).
type Offer = sensornet.Offer
