package main

import (
	"fmt"

	ps "repro"
	"repro/internal/rng"
)

// demand generates a workload's query specs from the run seed. The
// program under test only ever sees these generated specs; two demands
// built from one seed emit identical sequences, which is what lets
// repetitions (and metro-sharded vs metro-cluster) be compared bit for
// bit.
type demand struct {
	rnd     *rng.Stream
	working ps.Rect
	sites   *monitorSites // monitor-mix's fixed locations, drawn at slot 0
}

func newDemand(seed int64, stream string, working ps.Rect) *demand {
	return &demand{rnd: rng.New(seed, "benchmark-"+stream), working: working}
}

func (d *demand) loc() ps.Point { return d.locIn(d.working) }

func (d *demand) locIn(box ps.Rect) ps.Point {
	return ps.Pt(d.rnd.Uniform(box.MinX, box.MaxX), d.rnd.Uniform(box.MinY, box.MaxY))
}

func (d *demand) rectIn(box ps.Rect, minDim, maxDim float64) ps.Rect {
	x := d.rnd.Uniform(box.MinX, box.MaxX-maxDim)
	y := d.rnd.Uniform(box.MinY, box.MaxY-maxDim)
	return ps.NewRect(x, y, x+d.rnd.Uniform(minDim, maxDim), y+d.rnd.Uniform(minDim, maxDim))
}

func qid(kind string, t, i int) string { return fmt.Sprintf("%s%d-%d", kind, t, i) }

// slotSpecs is one slot's submissions. A spec that lives longer than the
// slot carries its duration so the runner knows how long to read its
// outcomes.
type slotSpecs struct {
	specs    []ps.Spec
	duration []int // index-aligned; 1 for one-shots
}

func (s *slotSpecs) add(spec ps.Spec, duration int) {
	s.specs = append(s.specs, spec)
	s.duration = append(s.duration, duration)
}

// batchWorkload describes one closed-loop workload driven through
// Submit/RunSlot. count scales the per-slot demand (1 at full size).
type batchWorkload struct {
	name string
	// stream names the demand's random stream; the two metro workloads
	// share one so their demand is byte-identical.
	stream  string
	layer   string // the layer Submit and RunSlot belong to
	sensors int
	gpModel bool
	shards  int // 0: ps.NewAggregator; >0: sharded
	cluster bool
	warmup  int
	// minSlots is the floor of measured slots per repetition and the
	// prefix over which the deterministic fields are taken, so those stay
	// exact per seed whatever the machine speed.
	minSlots int
	slot     func(d *demand, t int, count func(int) int) slotSpecs
}

func urbanSlot(d *demand, t int, count func(int) int) slotSpecs {
	var s slotSpecs
	for i := 0; i < count(250); i++ {
		s.add(ps.PointSpec{ID: qid("pt", t, i), Loc: d.loc(), Budget: 10 + d.rnd.Uniform(0, 20)}, 1)
	}
	for i := 0; i < count(20); i++ {
		s.add(ps.MultiPointSpec{ID: qid("mp", t, i), Loc: d.loc(), Budget: 100 + d.rnd.Uniform(0, 150), K: 8}, 1)
	}
	for i := 0; i < count(8); i++ {
		s.add(ps.AggregateSpec{ID: qid("agg", t, i), Region: d.rectIn(d.working, 10, 25), Budget: 200 + d.rnd.Uniform(0, 200)}, 1)
	}
	return s
}

// Monitoring demand is renewed on a fixed period instead of spanning the
// run, because a run is bounded by time, not by a slot count known up
// front: every monitorPeriod slots the location-monitoring, event and
// region-event queries are re-issued for monitorPeriod slots, and every
// regmonPeriod slots the region-monitoring queries. Locations and
// regions are fixed per seed (drawn once, at slot 0) so the load is the
// same in every period.
const (
	monitorPeriod = 20
	regmonPeriod  = 10
)

type monitorSites struct {
	locmon, events       []ps.Point
	regionEvents, regmon []ps.Rect
}

func monitorSlot(d *demand, t int, count func(int) int) slotSpecs {
	if d.sites == nil {
		d.sites = &monitorSites{}
		for i := 0; i < count(20); i++ {
			d.sites.locmon = append(d.sites.locmon, d.loc())
		}
		for i := 0; i < count(8); i++ {
			d.sites.events = append(d.sites.events, d.loc())
		}
		for i := 0; i < count(4); i++ {
			d.sites.regionEvents = append(d.sites.regionEvents, d.rectIn(d.working, 15, 15))
		}
		for i := 0; i < count(4); i++ {
			d.sites.regmon = append(d.sites.regmon, d.rectIn(d.working, 6, 6))
		}
	}
	var s slotSpecs
	if t%monitorPeriod == 0 {
		for i, loc := range d.sites.locmon {
			s.add(ps.LocationMonitoringSpec{ID: qid("lm", t, i), Loc: loc, Duration: monitorPeriod, Budget: 150, Samples: 6}, monitorPeriod)
		}
		for i, loc := range d.sites.events {
			s.add(ps.EventDetectionSpec{ID: qid("ev", t, i), Loc: loc, Duration: monitorPeriod, Threshold: 0.7, Confidence: 0.8, BudgetPerSlot: 40}, monitorPeriod)
		}
		for i, r := range d.sites.regionEvents {
			s.add(ps.RegionEventSpec{ID: qid("re", t, i), Region: r, Duration: monitorPeriod, Threshold: 0.7, Confidence: 0.6, BudgetPerSlot: 80}, monitorPeriod)
		}
	}
	if t%regmonPeriod == 0 {
		for i, r := range d.sites.regmon {
			s.add(ps.RegionMonitoringSpec{ID: qid("rm", t, i), Region: r, Duration: regmonPeriod, Budget: 300}, regmonPeriod)
		}
	}
	for i := 0; i < count(40); i++ {
		s.add(ps.PointSpec{ID: qid("pt", t, i), Loc: d.loc(), Budget: 10 + d.rnd.Uniform(0, 20)}, 1)
	}
	for i := 0; i < count(5); i++ {
		s.add(ps.MultiPointSpec{ID: qid("mp", t, i), Loc: d.loc(), Budget: 60 + d.rnd.Uniform(0, 80), K: 5}, 1)
	}
	for i := 0; i < count(3); i++ {
		x, y := d.rnd.Uniform(d.working.MinX, d.working.MaxX-20), d.rnd.Uniform(d.working.MinY, d.working.MaxY-20)
		path := ps.Trajectory{Waypoints: []ps.Point{ps.Pt(x, y), ps.Pt(x+d.rnd.Uniform(5, 20), y+d.rnd.Uniform(5, 20))}}
		s.add(ps.TrajectorySpec{ID: qid("tr", t, i), Path: path, Budget: 50 + d.rnd.Uniform(0, 50)}, 1)
	}
	return s
}

// metroQuads are the interiors of the four shards of the RWM working
// region (15..65, split at 40), inset by dmax+1 so every footprint drawn
// inside is resident in one shard (as in psbench's cluster-metro).
var metroQuads = []ps.Rect{
	ps.NewRect(21, 21, 34, 34),
	ps.NewRect(46, 21, 59, 34),
	ps.NewRect(21, 46, 34, 59),
	ps.NewRect(46, 46, 59, 59),
}

func metroSlot(d *demand, t int, count func(int) int) slotSpecs {
	var s slotSpecs
	for q, box := range metroQuads {
		for i := 0; i < count(250); i++ {
			s.add(ps.PointSpec{ID: qid("pt", t, q*1000+i), Loc: d.locIn(box), Budget: 8 + d.rnd.Uniform(0, 6)}, 1)
		}
		for i := 0; i < count(4); i++ {
			s.add(ps.MultiPointSpec{ID: qid("mp", t, q*1000+i), Loc: d.locIn(box), Budget: 100 + d.rnd.Uniform(0, 150), K: 6}, 1)
		}
		for i := 0; i < count(2); i++ {
			s.add(ps.AggregateSpec{ID: qid("agg", t, q*1000+i), Region: d.rectIn(box, 6, 10), Budget: 250 + d.rnd.Uniform(0, 200)}, 1)
		}
	}
	// Cross-shard tail: one centre aggregate and one border-crossing
	// trajectory keep the spanning pass busy every slot.
	s.add(ps.AggregateSpec{ID: qid("span-agg", t, 0), Region: ps.NewRect(32, 32, 48, 48), Budget: 400}, 1)
	s.add(ps.TrajectorySpec{ID: qid("span-tr", t, 0), Path: ps.Trajectory{Waypoints: []ps.Point{ps.Pt(25, 42), ps.Pt(55, 42)}}, Budget: 150}, 1)
	return s
}

// batchWorkloads returns the four closed-loop workloads at full size.
func batchWorkloads() []batchWorkload {
	return []batchWorkload{
		{name: "urban-select", stream: "urban", layer: "aggregator", sensors: 4000, warmup: 20, minSlots: 60, slot: urbanSlot},
		{name: "monitor-mix", stream: "monitor", layer: "aggregator", sensors: 1000, gpModel: true, warmup: 20, minSlots: 100, slot: monitorSlot},
		{name: "metro-sharded", stream: "metro", layer: "shard", sensors: 20000, shards: 4, warmup: 10, minSlots: 30, slot: metroSlot},
		{name: "metro-cluster", stream: "metro", layer: "cluster", sensors: 20000, shards: 4, cluster: true, warmup: 10, minSlots: 30, slot: metroSlot},
	}
}
