package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	ps "repro"
	"repro/cluster"
	"repro/internal/gp"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64 // measured window of the whole run, split over reps
	trace   bool
	// toy shrinks worlds, demand and slot floors so the test suite can run
	// every workload in about a second each.
	toy bool
}

// reps is how many times a run sets the system up. Each repetition
// builds its own world and system, warms up, and measures for
// seconds/reps: the set-up samples give setup_s its median, and the timed
// metrics pool the measured slots of all repetitions.
const reps = 5

// rep is the configuration of repetition i. Each repetition draws its own
// world and demand from the run seed, so a run averages over reps worlds
// and its numbers depend less on the one world a seed happens to draw
// (valuation calls per slot differ by a tenth between worlds).
func (cfg runConfig) rep(i int) runConfig {
	cfg.seed = cfg.seed*reps + int64(i)
	return cfg
}

// unlimitedLifetime keeps the fleet from depleting over a run (the
// default 50 readings per sensor would thin the offers as slots pass, and
// a faster commit would then measure a different, later part of the
// decay). The metro workloads cannot use it: cluster nodes build their
// world replica from cluster.BuildWorld, which has no lifetime knob, and
// at 20000 sensors depletion over a run is below 1 %.
const unlimitedLifetime = 1 << 30

// backend is the closed-loop surface a batch workload drives.
type backend interface {
	Submit(ps.Spec) (ps.SubmittedQuery, error)
	RunSlot() *ps.SlotReport
}

func (w batchWorkload) sized(cfg runConfig) batchWorkload {
	if cfg.toy {
		w.sensors = max(300, w.sensors/20)
		w.warmup, w.minSlots = 2, 4
	}
	return w
}

func demandCount(cfg runConfig) func(int) int {
	if cfg.toy {
		return func(n int) int { return max(1, n/10) }
	}
	return func(n int) int { return n }
}

// build assembles the system the way the library does by default.
func (w batchWorkload) build(seed int64) (backend, *ps.World, func(), error) {
	switch {
	case w.cluster:
		return startCluster(seed, w.sensors, w.shards)
	case w.shards > 0:
		world := ps.NewRWMWorld(seed, w.sensors, ps.SensorConfig{})
		return ps.NewShardedAggregator(world, w.shards), world, func() {}, nil
	default:
		world := ps.NewRWMWorld(seed, w.sensors, ps.SensorConfig{Lifetime: unlimitedLifetime})
		if w.gpModel {
			world.GPModel = gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.2)
		}
		return ps.NewAggregator(world), world, func() {}, nil
	}
}

// startCluster boots one node server per shard on loopback TCP and a
// coordinator over them.
func startCluster(seed int64, sensors, shards int) (backend, *ps.World, func(), error) {
	nodes := make([]*cluster.NodeServer, 0, shards)
	addrs := make([]string, 0, shards)
	served := make(chan error, shards) // one Serve result per node
	stop := func() {
		for _, n := range nodes {
			n.Close()
		}
		for range nodes {
			<-served
		}
	}
	for k := 0; k < shards; k++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, nil, fmt.Errorf("node %d listen: %w", k, err)
		}
		node := cluster.NewNodeServer(fmt.Sprintf("node%d", k))
		go func() { served <- node.Serve(ln) }()
		nodes, addrs = append(nodes, node), append(addrs, ln.Addr().String())
	}
	co, err := cluster.New(cluster.Config{World: "rwm", Seed: seed, Sensors: sensors, Shards: shards, Nodes: addrs})
	if err != nil {
		stop()
		return nil, nil, nil, fmt.Errorf("cluster: %w", err)
	}
	return co.Sharded(), co.World(), func() { co.Close(); stop() }, nil
}

// slotRec is what one measured slot produced.
type slotRec struct {
	submitNs, runNs, cycleNs int64
	welfare                  float64
	valCalls                 int64
	answered                 int
}

// batchRep is one repetition's measurements.
type batchRep struct {
	setupS            float64
	slots             []slotRec
	mallocs, allocKiB float64
	sel               ps.SelectionStats // over the deterministic prefix
	rounds            int64             // sensors committed, same prefix
	tally

	stageMs                         map[string]samples
	submitUs                        samples // per Submit call, traced runs only
	selfMs                          samples
	laneMaxMs, laneSkew, criticalMs samples
	rpcOverheadMs                   samples
	selectNs                        int64 // Σ selection time for ns_per_valuation
	selectCalls                     int64
	degradedSlots                   int64
	lastSpecs                       slotSpecs // the final slot's demand, for the probes
}

// stageLayer maps a program-reported stage to the layer that owns it;
// stages not listed belong to the workload's own top layer.
var stageLayer = map[string]string{
	ps.StageSelection:   "core",
	ps.StageRoute:       "shard",
	ps.StageShardSelect: "shard",
	ps.StageSpanning:    "shard",
	ps.StageReconcile:   "shard",
	ps.StageLaneRPC:     "cluster",
	ps.StageGather:      "cluster",
	ps.StageMembership:  "cluster",
}

// stageSlackNs absorbs clock granularity when checking that the stages a
// slot reports do not sum past its wall time.
const stageSlackNs = 200_000

// runRep builds the system, warms it up and measures one window.
func (w batchWorkload) runRep(cfg runConfig, window time.Duration, tr *tracer) (*batchRep, error) {
	rep := &batchRep{stageMs: map[string]samples{}}
	count := demandCount(cfg)
	setupStart := time.Now()
	be, world, cleanup, err := w.build(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	d := newDemand(cfg.seed, w.stream, world.Working)

	type liveQuery struct {
		id    string
		until int
	}
	var live []liveQuery
	var m0, m1 runtime.MemStats
	var windowStart time.Time
	for t := 0; ; t++ {
		measured := t >= w.warmup
		if t == w.warmup {
			rep.setupS = time.Since(setupStart).Seconds()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			windowStart = time.Now()
		}
		if measured && len(rep.slots) >= w.minSlots && time.Since(windowStart) >= window {
			break
		}
		specs := w.slot(d, t, count)
		op := fmt.Sprintf("slot-%d", t)

		cycleStart := time.Now()
		for i, spec := range specs.specs {
			var s0 time.Time
			if tr != nil {
				s0 = time.Now()
			}
			_, err := be.Submit(spec)
			if tr != nil && measured {
				s1 := time.Now()
				rep.submitUs = append(rep.submitUs, us(s1.Sub(s0).Nanoseconds()))
				tr.add("Submit", w.layer, op, 0, s0, s1)
			}
			if measured {
				rep.check(err == nil, "slot %d: submit %s: %v", t, spec.QueryID(), err)
			}
			if err == nil && specs.duration[i] > 1 {
				live = append(live, liveQuery{spec.QueryID(), t + specs.duration[i] - 1})
			}
		}
		runStart := time.Now()
		report := be.RunSlot()
		runEnd := time.Now()
		answered := 0
		for i, spec := range specs.specs {
			if specs.duration[i] == 1 && report.Answered(spec.QueryID()) {
				answered++
			}
		}
		kept := live[:0]
		for _, q := range live {
			if report.Answered(q.id) {
				answered++
			}
			if q.until > t {
				kept = append(kept, q)
			}
		}
		live = kept
		cycleEnd := time.Now()
		if !measured {
			continue
		}
		rep.attempted++
		runNs := runEnd.Sub(runStart).Nanoseconds()
		rep.slots = append(rep.slots, slotRec{
			submitNs: runStart.Sub(cycleStart).Nanoseconds(), runNs: runNs, cycleNs: cycleEnd.Sub(cycleStart).Nanoseconds(),
			welfare: report.Welfare, valCalls: report.Selection.ValuationCalls,
			answered: answered,
		})
		if len(rep.slots) <= w.minSlots {
			rep.sel.Accumulate(report.Selection)
			rep.rounds += int64(report.SensorsUsed)
		}
		rep.observeStages(w, report, runNs, t)
		if tr != nil {
			parent := tr.add("RunSlot", w.layer, op, 0, runStart, runEnd)
			at := runStart
			for _, st := range report.Stages {
				layer, ok := stageLayer[st.Stage]
				if !ok {
					layer = w.layer
				}
				tr.add(st.Stage, layer, op, parent, at, at.Add(st.Duration))
				at = at.Add(st.Duration)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(rep.slots))
	rep.mallocs = float64(m1.Mallocs-m0.Mallocs) / n
	rep.allocKiB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	return rep, nil
}

// observeStages folds one slot's program-reported timings into the
// repetition and checks them against the slot's wall time.
func (r *batchRep) observeStages(w batchWorkload, report *ps.SlotReport, runNs int64, t int) {
	var stageNs int64
	for _, st := range report.Stages {
		r.stageMs[st.Stage] = append(r.stageMs[st.Stage], ms(st.Duration.Nanoseconds()))
		stageNs += st.Duration.Nanoseconds()
		if st.Stage == ps.StageSelection {
			r.selectNs += st.Duration.Nanoseconds()
		}
	}
	if stageNs > runNs+stageSlackNs {
		r.problem("slot %d: stages sum to %.3f ms, past the %.3f ms slot", t, ms(stageNs), ms(runNs))
	}
	r.selfMs = append(r.selfMs, ms(runNs-stageNs))
	r.selectCalls += report.Selection.ValuationCalls
	if len(report.Degraded) > 0 {
		r.degradedSlots++
		r.problem("slot %d: %d degraded lanes: %v", t, len(report.Degraded), report.Degraded[0].Err)
	}
	if w.shards == 0 {
		return
	}
	var laneSum, laneMax float64
	lanes := 0
	for _, sh := range report.Shards {
		r.selectNs += int64(sh.SelectMs * 1e6)
		if sh.Spanning {
			continue
		}
		lanes++
		laneSum += sh.SelectMs
		laneMax = math.Max(laneMax, sh.SelectMs)
	}
	if lanes == 0 || laneSum == 0 {
		return
	}
	r.laneMaxMs = append(r.laneMaxMs, laneMax)
	r.laneSkew = append(r.laneSkew, laneMax/(laneSum/float64(lanes)))
	// The slot with a core per lane: lanes share the machine's cores here,
	// so subtract their serialization and keep the slowest.
	r.criticalMs = append(r.criticalMs, math.Max(ms(runNs)-laneSum+laneMax, laneMax))
	if w.cluster {
		// What the wire adds to the lanes' own compute as it fits on this
		// machine: the slowest lane given a core per lane, the lanes' sum
		// over the cores when they have to share.
		compute := math.Max(laneMax, laneSum/float64(min(lanes, runtime.NumCPU())))
		for _, st := range report.Stages {
			if st.Stage == ps.StageLaneRPC {
				r.rpcOverheadMs = append(r.rpcOverheadMs, ms(st.Duration.Nanoseconds())-compute)
			}
		}
	}
}
