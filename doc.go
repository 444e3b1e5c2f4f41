// Package ps is the public API of this reproduction of "Utility-driven
// Data Acquisition in Participatory Sensing" (Riahi, Papaioannou, Trummer,
// Aberer — EDBT 2013).
//
// A participatory-sensing deployment is modeled as a World: a fleet of
// mobile, priced, partially trusted sensors roaming a region. Applications
// describe what they want as query specs — PointSpec, MultiPointSpec,
// AggregateSpec, TrajectorySpec, LocationMonitoringSpec,
// RegionMonitoringSpec, EventDetectionSpec, RegionEventSpec — and submit
// them to an Aggregator, which once per time slot selects the sensors
// that maximize social welfare (total query valuation minus total sensor
// cost), shares sensors across queries, and splits each sensor's cost
// among the queries it serves so that every answered query keeps positive
// utility.
//
// Quick start:
//
//	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
//	agg := ps.NewAggregator(world)
//	agg.Submit(ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15})
//	report := agg.RunSlot()
//	fmt.Println(report.Welfare, report.Answered("q1"))
//
// Every slot runs one selection, Algorithm 5's greedy over the whole
// query mix, whatever kinds of query the slot holds, so a query's outcome
// never depends on which algorithm its neighbours' demand would pick. The
// paper's other point schedulers (the exact BILP of §3.1.1, local search,
// the evaluation's baseline, the egalitarian objective) are evaluation
// solvers in internal/sim, which cmd/psbench runs. Continuous queries
// persist across slots and are re-planned every slot per Algorithms 2-5.
//
// For serving live traffic, Engine wraps an Aggregator into a
// concurrent, slot-clocked streaming layer: submissions from any
// goroutine become non-blocking enqueues returning a QueryHandle whose
// subscription streams typed events (Accepted, one SlotUpdate per
// active slot, then Final or Canceled) out of the query's one bounded
// event log — every subscription is a cursor into it, and a Gap frame
// summarizes what the log dropped ahead of a slow reader — a real-time
// or virtual clock drives the slots, additional observers attach with
// Engine.Watch or QueryHandle.Watch, and cmd/psserve exposes the whole
// thing over HTTP — including server-pushed /watch streams:
//
//	eng := ps.NewEngine(ps.NewAggregator(world), ps.WithSlotInterval(time.Second))
//	eng.Start()
//	h, _ := eng.Submit(ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15})
//	for ev := range h.Events() {
//		if ev.Type == ps.EventSlotUpdate {
//			fmt.Println(ev.Slot, ev.Result.Value)
//		}
//	}
//	eng.Stop()
//
// Package wire defines the JSON wire format of that HTTP API, and
// package psclient is the matching Go SDK.
//
// Selection performance never affects results: every aggregator and
// shard lane selects with the lazy (CELF) greedy, which prunes valuation
// calls but is bit-identical in welfare, values and payments to the
// exhaustive serial scan the strategy-equivalence tests keep as the
// reference. See PERFORMANCE.md for the cost model and the valuation
// caches and their invalidation rules.
//
// See DESIGN.md for the package inventory and the engine architecture
// (ingest, event loop, slot clock, fan-out, geo-sharded lanes).
// cmd/psbench regenerates the paper's figures (internal/sim's
// benchmarks track their speed and solution quality) and runs single
// point-query simulations with -algorithm; the benchmark program
// (./benchmark) measures the serving stack end to end.
package ps
