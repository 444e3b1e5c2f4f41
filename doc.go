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
// The scheduling policies of the paper are selectable via
// WithScheduling: SchedulingOptimal (the exact BILP of §3.1.1, default),
// SchedulingLocalSearch (the 1/3-approximation of §3.1.2),
// SchedulingBaseline (the evaluation's baseline) and
// SchedulingEgalitarian. Continuous queries persist across slots and are
// re-planned every slot per Algorithms 2-5.
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
// Selection performance never affects results: the greedy core's
// candidate-evaluation strategy (WithGreedyStrategy — the serial
// reference scan or lazy-greedy/CELF pruning; by default serial below
// 256 offers and lazy from there up, resolved by every aggregator and
// shard lane against its own offer count) changes only how much work a
// slot does; both are bit-identical in welfare, values and payments, and
// the strategy-equivalence tests gate that. See PERFORMANCE.md for the
// cost model, the valuation caches and their invalidation rules, and
// strategy-selection guidance.
//
// See DESIGN.md for the package inventory and the engine architecture
// (ingest, event loop, slot clock, fan-out, geo-sharded lanes).
// cmd/psbench regenerates the paper's figures, bench_test.go tracks both
// speed and solution quality, and the benchmark program (./benchmark)
// measures the serving stack end to end.
package ps
