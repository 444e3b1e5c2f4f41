package main

import (
	"math"

	"repro/internal/stats"
)

// metricDef names one metric the benchmark emits. The tables below are
// the single source of names, units, directions and regression bounds;
// BENCHMARK.json repeats them for the driver and bench_test.go keeps the
// two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"urban-select", "4000 sensors, points+multipoints+aggregates through Aggregator only: the greedy core and valuations do the work, wire/serve/hub/cluster do none"},
	{"monitor-mix", "1000 sensors, standing monitoring demand with GP region monitoring and trajectories: the same selection layer on continuous state, the only workload that appends GP posteriors"},
	{"metro-sharded", "20000 sensors on 4 in-process shard lanes: route/lanes/spanning/reconcile do the work with no bytes on a socket; the control for metro-cluster"},
	{"metro-cluster", "metro-sharded's exact world and demand through cluster.New and four loopback node servers: the difference to metro-sharded is the price of the wire"},
	{"serve-stream", "open-loop HTTP submit and /watch at fixed rates against engine+serve+psclient with 25 ms slots: codecs, handlers, ingest, hub and client dominate, selection is small"},
}

// endToEndDefs are the metrics a user of the system sees, each with one
// definition that holds on all five workloads (README.md). The bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression: three times the widest spread ten runs in
// a row showed on the reference box, or the driver's limit of a quarter,
// which every wall time reaches (README.md, "Measured spread").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"slot_ms_p50", "ms", "lower", 0.25},
	{"slot_ms_p75", "ms", "lower", 0.25},
	{"query_slots_per_s", "1/s", "higher", 0.25},
	{"result_ms_p50", "ms", "lower", 0.25},
	{"result_ms_p75", "ms", "lower", 0.25},
	{"allocs_per_slot", "count", "lower", 0.08},
	{"alloc_kb_per_slot", "KiB", "lower", 0.15},
	{"welfare_per_slot", "utility", "higher", 0.04},
}

// perLayerDefs are the single-layer metrics of the traced run, grouped by
// module. A metric whose layer does no work on a workload reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "core.valuation_calls", Unit: "count", Better: "lower"},
	{Name: "core.exhaustive_equiv_calls", Unit: "count", Better: "lower"},
	{Name: "core.prune_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.lazy_reevals", Unit: "count", Better: "lower"},
	{Name: "core.fallback_rescans", Unit: "count", Better: "lower"},
	{Name: "core.submodularity_violations", Unit: "count", Better: "lower"},
	{Name: "core.geom_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.ns_per_valuation", Unit: "ns", Better: "lower"},
	{Name: "core.greedy_select_ms.serial", Unit: "ms", Better: "lower"},
	{Name: "core.greedy_select_ms.lazy", Unit: "ms", Better: "lower"},

	{Name: "query.gain_ns.point", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.multipoint", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.aggregate", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.trajectory", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.locmon", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.regmon", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.eventdet", Unit: "ns", Better: "lower"},
	{Name: "query.gain_ns.regionevent", Unit: "ns", Better: "lower"},

	{Name: "gp.posterior_appends", Unit: "count", Better: "higher"},
	{Name: "gp.posterior_rebuilds", Unit: "count", Better: "lower"},
	{Name: "gp.append_us", Unit: "us", Better: "lower"},
	{Name: "gp.reduction_us", Unit: "us", Better: "lower"},

	{Name: "aggregator.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "aggregator.offer_gather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "aggregator.selection_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "aggregator.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "aggregator.accounting_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "aggregator.self_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "shard.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "shard.route_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.shard_select_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.spanning_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.reconcile_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.lane_select_ms_max_p50", Unit: "ms", Better: "lower"},
	{Name: "shard.lane_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.critical_path_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "cluster.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "cluster.lane_rpc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.gather_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.membership_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.rpc_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.degraded_slots", Unit: "count", Better: "lower"},
	{Name: "cluster.lane_run_ms_inproc_p50", Unit: "ms", Better: "lower"},

	{Name: "wire.spec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.spec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.event_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.event_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.partial_encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.partial_decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.partial_bytes", Unit: "bytes", Better: "lower"},

	{Name: "serve.batch_handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_handler_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.watch_write_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.watch_write_lag_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.watch_requests", Unit: "count", Better: "lower"},
	{Name: "serve.admission_rejects", Unit: "count", Better: "lower"},

	{Name: "psclient.submit_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "psclient.stream_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "psclient.retries", Unit: "count", Better: "lower"},
	{Name: "psclient.reconnects", Unit: "count", Better: "lower"},

	{Name: "engine.ingest_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_depth_p95", Unit: "count", Better: "lower"},
	{Name: "engine.queue_depth_end", Unit: "count", Better: "lower"},
	{Name: "engine.rejected", Unit: "count", Better: "lower"},
	{Name: "engine.shed", Unit: "count", Better: "lower"},
	{Name: "engine.submit_us", Unit: "us", Better: "lower"},

	{Name: "hub.publish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hub.events_delivered", Unit: "count", Better: "higher"},
	{Name: "hub.events_dropped", Unit: "count", Better: "lower"},
	{Name: "hub.gap_events", Unit: "count", Better: "lower"},
	{Name: "hub.watch_lag_us_p50", Unit: "us", Better: "lower"},
	{Name: "hub.fanout_publish_us_per_sub.1", Unit: "us", Better: "lower"},
	{Name: "hub.fanout_publish_us_per_sub.16", Unit: "us", Better: "lower"},
	{Name: "hub.fanout_publish_us_per_sub.256", Unit: "us", Better: "lower"},

	{Name: "geo.shard_of_ns", Unit: "ns", Better: "lower"},
	{Name: "geo.shards_of_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.vec_with_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.write_prometheus_us", Unit: "us", Better: "lower"},

	{Name: "gen.late_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "gen.late_attach", Unit: "count", Better: "lower"},
	{Name: "rate.low.result_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "rate.mid.result_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "rate.high.result_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "rate.low.achieved_qps", Unit: "1/s", Better: "higher"},
	{Name: "rate.mid.achieved_qps", Unit: "1/s", Better: "higher"},
	{Name: "rate.high.achieved_qps", Unit: "1/s", Better: "higher"},

	// Headline numbers that carry no bound: the 95th percentiles and submit
	// latency are too unsteady on the reference box (README.md, "Measured
	// spread"), the highest sustained rate exists on serve-stream only, and
	// failed_share reads 0.
	{Name: "slot_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "result_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "submit_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "max_rate_qps", Unit: "1/s", Better: "higher"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; emit fills in units from a def table
// and zero for every name the workload did not set, so each run carries
// exactly the table's names.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// samples is a bag of measurements with percentile access.
type samples []float64

// pct returns the p-quantile (0..1) by linear interpolation between order
// statistics, 0 for an empty bag.
func (s samples) pct(p float64) float64 { return stats.Quantile(s, p) }

func (s samples) median() float64 { return s.pct(0.5) }

// mean is for counts, which no stall of the machine inflates.
func (s samples) mean() float64 { return stats.Mean(s) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
