package main

import (
	"fmt"
	"io"
	"time"

	ps "repro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sensornet"
	"repro/wire"
)

// Replay probes feed inputs the workload generated straight into one
// layer's public functions, so a layer's own cost is visible apart from
// everything around it. Each workload runs only the probes of layers it
// exercises; the others read 0 there.

// timeOp returns the median, over a few rounds, of the nanoseconds one
// call of f takes. A round repeats f back to back for at least minRound,
// so that clock granularity and a timer interrupt are small against it.
func timeOp(f func()) float64 {
	const (
		rounds   = 5
		minRound = time.Millisecond
	)
	round := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return time.Since(start)
	}
	n := 1
	for round(n) < minRound {
		n *= 2
	}
	var s samples
	for r := 0; r < rounds; r++ {
		s = append(s, float64(round(n).Nanoseconds())/float64(n))
	}
	return s.median()
}

// probeQuery materializes the valuation object the selection core sees
// for a spec at slot t of a window starting at 0: the query itself for
// the one-shot kinds, the probe a continuous kind generates for the
// slot. Region monitoring plans through the GP instead (regmonProbe).
func probeQuery(spec ps.Spec, w *ps.World) (query.Query, bool) {
	switch s := spec.(type) {
	case ps.PointSpec:
		return query.NewPoint(s.ID, s.Loc, s.Budget, w.DMax), true
	case ps.MultiPointSpec:
		return query.NewMultiPoint(s.ID, s.Loc, s.Budget, w.DMax, s.K), true
	case ps.AggregateSpec:
		return query.NewAggregate(s.ID, s.Region, s.Budget, w.DMax, w.Grid), true
	case ps.TrajectorySpec:
		return query.NewTrajectory(s.ID, s.Path, s.Budget, w.DMax), true
	case ps.LocationMonitoringSpec:
		lm := query.NewLocationMonitoring(s.ID, s.Loc, 0, s.Duration-1, s.Budget, w.DMax, w.History(s.Loc, s.Duration+1), s.Samples)
		for t := 0; t < s.Duration; t++ {
			if p, ok := lm.CreatePointQuery(t); ok {
				return p, true
			}
		}
		return nil, false
	case ps.EventDetectionSpec:
		return query.NewEventDetection(s.ID, s.Loc, 0, s.Duration-1, s.Threshold, s.Confidence, s.BudgetPerSlot, w.DMax).CreatePointQuery(0)
	case ps.RegionEventSpec:
		return query.NewRegionEvent(s.ID, s.Region, 0, s.Duration-1, s.Threshold, s.Confidence, s.BudgetPerSlot, w.DMax, w.Grid).CreateProbe(0)
	case ps.RegionMonitoringSpec:
		return nil, false
	}
	return nil, false
}

// gainNs times State.Gain over the sensors relevant to q.
func gainNs(q query.Query, offers []core.Offer) float64 {
	var relevant []*sensornet.Sensor
	for _, o := range offers {
		if q.Relevant(o.Sensor) {
			relevant = append(relevant, o.Sensor)
		}
	}
	if len(relevant) == 0 {
		return 0
	}
	st := q.NewState()
	var sink float64
	perPass := timeOp(func() {
		for _, s := range relevant {
			sink += st.Gain(s)
		}
	})
	probeSink = sink
	return perPass / float64(len(relevant))
}

// probeSink keeps probe results alive so the compiler cannot drop the
// measured calls.
var probeSink float64

// gainMetric names a spec kind's query.gain_ns metric: the kind's wire
// name, except that event detection's "event" reads eventdet.
func gainMetric(kind string) string {
	if kind == "event" {
		kind = "eventdet"
	}
	return "query.gain_ns." + kind
}

// probes runs the replay probes of a closed-loop workload over its own
// slot-0 demand on a fresh copy of its world.
func (w batchWorkload) probes(m metricSet, cfg runConfig) error {
	local := w
	local.cluster = false // the probes need the world, not the sockets
	_, world, _, err := local.build(cfg.seed)
	if err != nil {
		return err
	}
	offers := world.Fleet.Step()
	specs := w.slot(newDemand(cfg.seed, w.stream, world.Working), 0, demandCount(cfg)).specs

	// query: one representative per kind the workload submits.
	seen := map[string]bool{}
	for _, spec := range specs {
		kind := spec.Kind().String()
		if seen[kind] {
			continue
		}
		seen[kind] = true
		if rm, ok := spec.(ps.RegionMonitoringSpec); ok {
			regmonProbe(m, rm, world, offers)
			continue
		}
		if q, ok := probeQuery(spec, world); ok {
			m[gainMetric(kind)] = gainNs(q, offers)
		}
	}

	switch {
	case w.cluster:
		return clusterProbes(m, w, cfg, specs)
	case w.shards > 0:
		part := ps.NewGridPartition(world.Working, w.shards)
		var sink int
		perPass := timeOp(func() {
			for _, o := range offers {
				sink += part.ShardOf(o.Sensor.Pos)
			}
		})
		m["geo.shard_of_ns"] = perPass / float64(len(offers))
		rects := make([]geo.Rect, 0, len(specs))
		for _, spec := range specs {
			if q, ok := probeQuery(spec, world); ok {
				if r, ok := query.Footprint(q); ok {
					rects = append(rects, r)
				}
			}
		}
		perPass = timeOp(func() {
			for _, r := range rects {
				sink += len(part.ShardsOf(r))
			}
		})
		m["geo.shards_of_ns"] = perPass / float64(max(len(rects), 1))
		probeSink = float64(sink)
	case !w.gpModel:
		// core: the greedy core alone on the slot's instance, apart from the
		// aggregator glue inside the selection stage.
		for _, strat := range []core.Strategy{core.StrategySerial, core.StrategyLazy} {
			var runs samples
			for i := 0; i < 3; i++ {
				queries := make([]query.Query, 0, len(specs))
				for _, spec := range specs {
					if q, ok := probeQuery(spec, world); ok {
						queries = append(queries, q)
					}
				}
				start := time.Now()
				res := core.GreedySelectWith(queries, offers, core.GreedyConfig{Strategy: strat})
				runs = append(runs, ms(time.Since(start).Nanoseconds()))
				probeSink = res.TotalCost
			}
			m["core.greedy_select_ms."+strat.String()] = runs.median()
		}
	}
	return nil
}

// regmonProbe times region monitoring's GP valuation: the plan value of
// the sensors inside the region, and the posterior tracker underneath.
func regmonProbe(m metricSet, s ps.RegionMonitoringSpec, w *ps.World, offers []core.Offer) {
	q := query.NewRegionMonitoring(s.ID, s.Region, 0, s.Duration-1, s.Budget, w.GPModel, w.Grid)
	var pts []geo.Point
	var thetas []float64
	for _, o := range offers {
		if s.Region.Contains(o.Sensor.Pos) && len(pts) < 8 {
			pts = append(pts, o.Sensor.Pos)
			thetas = append(thetas, q.Theta(o.Sensor))
		}
	}
	if len(pts) == 0 {
		return
	}
	var sink float64
	m["query.gain_ns.regmon"] = timeOp(func() { sink += q.PlanValue(pts, thetas) }) / float64(len(pts))
	var post *gp.Posterior
	m["gp.append_us"] = timeOp(func() {
		post = w.GPModel.NewPosterior(q.Targets())
		for _, p := range pts {
			post.Add(p)
		}
	}) / 1e3 / float64(len(pts))
	probe := s.Region.Center()
	m["gp.reduction_us"] = timeOp(func() { sink += post.MarginalReduction(probe) }) / 1e3
	probeSink = sink
}

// clusterProbes runs each shard's node lane with no socket and times the
// cluster frame codec over the real partials the lanes produce.
func clusterProbes(m metricSet, w batchWorkload, cfg runConfig, specs []ps.Spec) error {
	var laneMs, encodeUs, decodeUs, bytes samples
	for k := 0; k < w.shards; k++ {
		world := ps.NewRWMWorld(cfg.seed, w.sensors, ps.SensorConfig{})
		part := ps.NewGridPartition(world.Working, w.shards)
		lane := ps.NewNodeLane(world, w.shards, k)
		for _, spec := range specs {
			q, ok := probeQuery(spec, world)
			if !ok {
				continue
			}
			r, _ := query.Footprint(q)
			if clipped, ok := r.Intersect(world.Working); ok {
				r = clipped
			}
			if homes := part.ShardsOf(r); len(homes) == 1 && homes[0] == k {
				if _, err := lane.Submit(spec); err != nil {
					return fmt.Errorf("lane %d probe: %w", k, err)
				}
			}
		}
		start := time.Now()
		partial, err := lane.RunSlot(0)
		if err == nil {
			err = lane.Commit(0, partial.SelectedIDs)
		}
		if err != nil {
			return fmt.Errorf("lane %d probe: %w", k, err)
		}
		laneMs = append(laneMs, ms(time.Since(start).Nanoseconds()))

		frame := wire.ClusterFrame{V: wire.ClusterVersion, Type: wire.ClusterPartial, Node: "probe", Partial: partial}
		var buf []byte
		encodeUs = append(encodeUs, timeOp(func() {
			if buf, err = wire.MarshalClusterFrame(frame); err != nil {
				panic(err) // a partial the lane just produced always encodes
			}
		})/1e3)
		decodeUs = append(decodeUs, timeOp(func() {
			if _, err := wire.DecodeClusterFrame(buf); err != nil {
				panic(err)
			}
		})/1e3)
		bytes = append(bytes, float64(len(buf)))
	}
	m["cluster.lane_run_ms_inproc_p50"] = laneMs.median()
	m["wire.partial_encode_us"] = encodeUs.median()
	m["wire.partial_decode_us"] = decodeUs.median()
	m["wire.partial_bytes"] = bytes.median()
	return nil
}

// streamProbes runs serve-stream's probes: the spec and event codecs over
// what the run submitted and received, and the engine, hub and obs layers
// in process with no HTTP around them.
func streamProbes(m metricSet, cfg runConfig, traced *streamRep) error {
	specs := traced.specs
	encoded := make([][]byte, len(specs))
	var err error
	perPass := timeOp(func() {
		for i, spec := range specs {
			if encoded[i], err = wire.MarshalSpec(spec); err != nil {
				panic(err) // specs the server accepted always encode
			}
		}
	})
	m["wire.spec_encode_ns"] = perPass / float64(len(specs))
	perPass = timeOp(func() {
		for _, data := range encoded {
			if _, err := wire.UnmarshalSpec(data); err != nil {
				panic(err)
			}
		}
	})
	m["wire.spec_decode_ns"] = perPass / float64(len(specs))
	if f := traced.frame; f.Event != "" {
		var buf []byte
		m["wire.event_encode_ns"] = timeOp(func() {
			if buf, err = wire.MarshalEventFrame(f); err != nil {
				panic(err)
			}
		})
		m["wire.event_decode_ns"] = timeOp(func() {
			if _, err := wire.DecodeEventFrame(buf); err != nil {
				panic(err)
			}
		})
	}

	// engine: Submit on an idle engine (enqueue plus the loop's ingest).
	world := ps.NewRWMWorld(cfg.seed, 300, ps.SensorConfig{Lifetime: unlimitedLifetime})
	eng := ps.NewEngine(ps.NewAggregator(world, ps.WithScheduling(ps.SchedulingGreedy)))
	eng.Start()
	defer eng.Stop()
	d := newDemand(cfg.seed, "stream-probe", world.Working)
	// Five rounds of submits, each under the 1024-entry queue even if the
	// loop stalls, with a slot between rounds to clear the queries out.
	const submits = 500
	var perSubmit samples
	for round := 0; round < 5; round++ {
		start := time.Now()
		for i := 0; i < submits; i++ {
			if _, err := eng.Submit(ps.PointSpec{ID: fmt.Sprintf("probe-%d-%d", round, i), Loc: d.loc(), Budget: 20}); err != nil {
				return fmt.Errorf("engine probe: %w", err)
			}
		}
		if err := eng.Flush(); err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
		perSubmit = append(perSubmit, us(time.Since(start).Nanoseconds())/submits)
		if err := eng.RunSlots(1); err != nil {
			return fmt.Errorf("engine probe: %w", err)
		}
	}
	m["engine.submit_us"] = perSubmit.median()

	// hub: one continuous query with N watchers — one topic, many readers,
	// beside the workload's many topics with one reader each. Fewer slots
	// run than a subscription buffers, so nothing needs draining.
	const fanoutSlots = 12
	for _, subs := range []int{1, 16, 256} {
		id := fmt.Sprintf("fanout-%d", subs)
		h, err := eng.Submit(ps.EventDetectionSpec{ID: id, Loc: d.loc(), Duration: fanoutSlots, Threshold: 0.7, Confidence: 0.8, BudgetPerSlot: 40})
		if err != nil {
			return fmt.Errorf("hub probe: %w", err)
		}
		if err := eng.Flush(); err != nil {
			return fmt.Errorf("hub probe: %w", err)
		}
		watchers := make([]*ps.Subscription, 0, subs)
		for i := 1; i < subs; i++ { // the handle is the first subscriber
			sub, err := eng.Watch(id)
			if err != nil {
				return fmt.Errorf("hub probe: %w", err)
			}
			watchers = append(watchers, sub)
		}
		// With one subscriber, a reader takes each event off the handle as
		// it is published: receive time minus publish time is the hub's
		// in-process delivery lag.
		var lag samples
		read := make(chan struct{})
		if subs == 1 {
			go func() {
				defer close(read)
				for ev := range h.Events() {
					if ev.Type == ps.EventSlotUpdate {
						lag = append(lag, us(time.Since(ev.At).Nanoseconds()))
					}
				}
			}()
		}
		var publish samples
		for s := 0; s < fanoutSlots; s++ {
			if err := eng.RunSlots(1); err != nil {
				return fmt.Errorf("hub probe: %w", err)
			}
			for _, st := range eng.Metrics().SlotStages {
				if st.Stage == ps.StagePublish {
					publish = append(publish, us(st.Last.Nanoseconds())/float64(subs))
				}
			}
		}
		if subs == 1 {
			<-read // the query's final frame closed the stream
			m["hub.watch_lag_us_p50"] = lag.median()
		}
		for _, sub := range watchers {
			sub.Close()
		}
		m[fmt.Sprintf("hub.fanout_publish_us_per_sub.%d", subs)] = publish.median()
	}

	// obs: the registry primitives on the hot path, and a scrape of the
	// probe engine's registry.
	reg := obs.NewRegistry()
	hist := reg.Histogram("ps_benchmark_probe_seconds", "Probe histogram.", nil)
	m["obs.observe_ns"] = timeOp(func() { hist.Observe(0.003) })
	vec := reg.HistogramVec("ps_benchmark_probe_stage_seconds", "Probe histogram vector.", nil, "stage")
	m["obs.vec_with_ns"] = timeOp(func() { vec.With(ps.StageSelection) })
	m["obs.write_prometheus_us"] = timeOp(func() {
		if err := eng.Observability().WritePrometheus(io.Discard); err != nil {
			panic(err) // io.Discard cannot fail
		}
	}) / 1e3
	return nil
}
