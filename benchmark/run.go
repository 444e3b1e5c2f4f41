package main

import (
	"fmt"
	"math"
	"time"

	ps "repro"
)

// driverLine is the last line of standard output, with exactly the keys
// the driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run of one workload: the driver's four keys plus what the
// benchmark's own reports need.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	driverLine
	Problems []string `json:"problems,omitempty"`
}

// tally counts operations attempted and failed and keeps the first few
// failure messages.
type tally struct {
	attempted, failed int64
	problems          []string
}

// problem records one failed operation.
func (t *tally) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one output check and records its failure.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.problem(format, args...)
	}
}

func (t *tally) absorb(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

// runWorkload runs one named workload under cfg.
func runWorkload(name string, cfg runConfig) (*result, error) {
	if name == "serve-stream" {
		return runStream(cfg)
	}
	for _, w := range batchWorkloads() {
		if w.name == name {
			return runBatch(w.sized(cfg), cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// finish turns collected metrics and problems into a result: untraced
// runs report the end-to-end table, traced runs the per-layer table.
func finish(name string, cfg runConfig, m metricSet, t tally) *result {
	defs := endToEndDefs
	attempted := max(t.attempted, 1)
	if cfg.trace {
		defs = perLayerDefs
		m["failed_share"] = float64(t.failed) / float64(attempted)
	}
	return &result{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace,
		driverLine: driverLine{Correct: t.failed == 0, Attempted: attempted, Failed: t.failed, Metrics: m.emit(defs)},
		Problems:   t.problems,
	}
}

// runBatch runs a closed-loop workload: reps repetitions, the last one
// traced when cfg.trace is set, then the replay probes.
func runBatch(w batchWorkload, cfg runConfig) (*result, error) {
	window := time.Duration(cfg.seconds / reps * float64(time.Second))
	var tr *tracer
	all := make([]*batchRep, 0, reps)
	for i := 0; i < reps; i++ {
		repCfg := cfg.rep(i)
		if cfg.trace && i == reps-1 {
			// The traced repetition repeats the inputs of the one before it,
			// so the two differ only in the spans kept.
			tr = newTracer()
			repCfg = cfg.rep(i - 1)
		}
		rep, err := w.runRep(repCfg, window, tr)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		all = append(all, rep)
	}

	var t tally
	for _, rep := range all {
		t.absorb(rep.tally)
	}
	ok, msg, err := w.replayMatches(cfg.rep(0), all[0])
	if err != nil {
		return nil, err
	}
	t.check(ok, "%s", msg)

	m := metricSet{}
	untraced := all
	if cfg.trace {
		// Per-layer numbers come from the traced repetition and the probes;
		// the untraced repetitions before it give the headline numbers that
		// are reported without a bound, the last of them the overhead's base.
		untraced = all[:len(all)-1]
		ok, msg := sameOutputs(w.name, all[len(all)-2], all[len(all)-1])
		t.check(ok, "%s", msg)
		base := pooledSlotMs(untraced[len(untraced)-1:]).median()
		if base > 0 {
			m["trace_overhead_pct"] = 100 * (pooledSlotMs(all[len(all)-1:]).median() - base) / base
		}
		w.layerMetrics(m, all)
		if err := w.probes(m, cfg.rep(0)); err != nil {
			return nil, err
		}
		if err := tr.write("trace-" + w.name + ".ndjson"); err != nil {
			return nil, err
		}
	}
	headlineBatch(m, w, untraced)
	return finish(w.name, cfg, m, t), nil
}

// latencies fills the slot, submit and result percentiles. Which of them
// carry a bound is the tables' business (metrics.go).
func latencies(m metricSet, slot, submit, result samples) {
	for _, p := range []struct {
		suffix string
		q      float64
	}{{"p50", 0.50}, {"p75", 0.75}, {"p95", 0.95}} {
		m["slot_ms_"+p.suffix] = slot.pct(p.q)
		m["submit_ms_"+p.suffix] = submit.pct(p.q)
		m["result_ms_"+p.suffix] = result.pct(p.q)
	}
}

func pooledSlotMs(all []*batchRep) samples {
	var s samples
	for _, rep := range all {
		for _, sl := range rep.slots {
			s = append(s, ms(sl.runNs))
		}
	}
	return s
}

// headlineBatch fills a closed-loop workload's headline numbers from the
// pooled measured slots of the given repetitions.
func headlineBatch(m metricSet, w batchWorkload, all []*batchRep) {
	var setup, submit, cycle, mallocs, kib samples
	var busyNs int64
	var answered int
	for _, rep := range all {
		setup = append(setup, rep.setupS)
		mallocs = append(mallocs, rep.mallocs)
		kib = append(kib, rep.allocKiB)
		for _, sl := range rep.slots {
			submit = append(submit, ms(sl.submitNs))
			cycle = append(cycle, ms(sl.cycleNs))
			busyNs += sl.cycleNs
			answered += sl.answered
		}
	}
	busyS := float64(busyNs) / 1e9
	m["setup_s"] = setup.median()
	latencies(m, pooledSlotMs(all), submit, cycle)
	m["query_slots_per_s"] = float64(answered) / busyS
	m["allocs_per_slot"] = mallocs.mean()
	m["alloc_kb_per_slot"] = kib.mean()
	var welfare float64
	for _, rep := range all {
		for _, sl := range rep.slots[:w.minSlots] {
			welfare += sl.welfare
		}
	}
	m["welfare_per_slot"] = welfare / float64(len(all)*w.minSlots)
}

// layerMetrics fills the counted and program-reported per-layer metrics:
// the exact-per-seed counts summed over every repetition's deterministic
// prefix, the program-reported timings pooled over every repetition
// (recording spans does not touch them), the spans from the traced one.
func (w batchWorkload) layerMetrics(m metricSet, all []*batchRep) {
	traced := all[len(all)-1]
	var sel ps.SelectionStats
	var rounds int64
	for _, rep := range all {
		sel.Accumulate(rep.sel)
		rounds += rep.rounds
	}
	m["core.valuation_calls"] = float64(sel.ValuationCalls)
	m["core.exhaustive_equiv_calls"] = float64(sel.SerialEquivCalls)
	if sel.SerialEquivCalls > 0 {
		m["core.prune_ratio"] = float64(sel.SavedCalls()) / float64(sel.SerialEquivCalls)
	}
	m["core.lazy_reevals"] = float64(sel.LazyReevaluations)
	m["core.fallback_rescans"] = float64(sel.FallbackRescans)
	m["core.submodularity_violations"] = float64(sel.SubmodularityViolations)
	if sel.GeomCacheLookups > 0 {
		m["core.geom_cache_hit_ratio"] = float64(sel.GeomCacheHits) / float64(sel.GeomCacheLookups)
	}
	m["core.rounds"] = float64(rounds)
	m["gp.posterior_appends"] = float64(sel.PosteriorAppends)
	m["gp.posterior_rebuilds"] = float64(sel.PosteriorRebuilds)

	var selectNs, selectCalls, degraded int64
	pool := func(f func(*batchRep) samples) float64 {
		var s samples
		for _, rep := range all {
			s = append(s, f(rep)...)
		}
		return s.median()
	}
	for _, rep := range all {
		selectNs += rep.selectNs
		selectCalls += rep.selectCalls
		degraded += rep.degradedSlots
	}
	if selectCalls > 0 {
		m["core.ns_per_valuation"] = float64(selectNs) / float64(selectCalls)
	}
	stage := func(name string) float64 { return pool(func(r *batchRep) samples { return r.stageMs[name] }) }
	m[w.layer+".submit_us_p50"] = traced.submitUs.median()
	if w.shards == 0 {
		m["aggregator.offer_gather_ms_p50"] = stage(ps.StageOfferGather)
		m["aggregator.selection_ms_p50"] = stage(ps.StageSelection)
		m["aggregator.commit_ms_p50"] = stage(ps.StageCommit)
		m["aggregator.accounting_ms_p50"] = stage(ps.StageAccounting)
		m["aggregator.self_ms_p50"] = pool(func(r *batchRep) samples { return r.selfMs })
		return
	}
	m["shard.route_ms_p50"] = stage(ps.StageRoute)
	m["shard.shard_select_ms_p50"] = stage(ps.StageShardSelect)
	m["shard.spanning_ms_p50"] = stage(ps.StageSpanning)
	m["shard.reconcile_ms_p50"] = stage(ps.StageReconcile)
	m["shard.lane_select_ms_max_p50"] = pool(func(r *batchRep) samples { return r.laneMaxMs })
	m["shard.lane_skew"] = pool(func(r *batchRep) samples { return r.laneSkew })
	m["shard.critical_path_ms_p50"] = pool(func(r *batchRep) samples { return r.criticalMs })
	if w.cluster {
		m["cluster.lane_rpc_ms_p50"] = stage(ps.StageLaneRPC)
		m["cluster.gather_ms_p50"] = stage(ps.StageGather)
		m["cluster.membership_ms_p50"] = stage(ps.StageMembership)
		m["cluster.rpc_overhead_ms_p50"] = pool(func(r *batchRep) samples { return r.rpcOverheadMs })
		m["cluster.degraded_slots"] = float64(degraded)
	}
}

// replayMatches is the determinism check: it rebuilds repetition 0's
// system from the same seed, replays its warm-up and every slot it
// measured, and compares the two repetitions' outputs. metro-cluster is
// replayed on an in-process ShardedAggregator, so the same comparison
// checks the reconciliation contract (a cluster reproduces the
// single-process sharded SlotReport) over the whole repetition.
func (w batchWorkload) replayMatches(cfg runConfig, got *batchRep) (bool, string, error) {
	ref := w
	ref.cluster = false
	ref.minSlots = len(got.slots)
	rep, err := ref.runRep(cfg, 0, nil)
	if err != nil {
		return false, "", fmt.Errorf("%s replay: %w", w.name, err)
	}
	ok, msg := sameOutputs(w.name, got, rep)
	return ok, msg, nil
}

// sameOutputs compares two repetitions of the same inputs slot for slot,
// over the slots both ran: welfare bit for bit, and valuation calls.
func sameOutputs(name string, a, b *batchRep) (bool, string) {
	for k := 0; k < min(len(a.slots), len(b.slots)); k++ {
		x, y := a.slots[k], b.slots[k]
		if math.Float64bits(x.welfare) != math.Float64bits(y.welfare) || x.valCalls != y.valCalls {
			return false, fmt.Sprintf("%s: slot %d gave welfare %v from %d valuation calls, its repeat %v from %d",
				name, k, x.welfare, x.valCalls, y.welfare, y.valCalls)
		}
	}
	return true, ""
}
