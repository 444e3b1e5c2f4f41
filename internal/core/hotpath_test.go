package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// coverageHeavyScenario is demand dominated by the two Eq. 5 coverage
// kinds — overlapping aggregates and multi-segment trajectories, the
// volatile valuations the lazy strategy maintains eagerly — with a few
// point queries so sensors are shared across kinds.
func coverageHeavyScenario(seed int64, nSensors int) ([]query.Query, []Offer) {
	s := rng.New(seed, "coverage-heavy")
	grid := geo.NewUnitGrid(100, 100)
	var positions []geo.Point
	for i := 0; i < nSensors; i++ {
		positions = append(positions, geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)))
	}
	offers := makeOffers(positions...)
	var qs []query.Query
	for i := 0; i < 10; i++ {
		x, y := s.Uniform(0, 75), s.Uniform(0, 75)
		qs = append(qs, query.NewAggregate(fmt.Sprintf("agg%d", i),
			geo.NewRect(x, y, x+s.Uniform(8, 25), y+s.Uniform(8, 25)), s.Uniform(80, 300), 10, grid))
	}
	for i := 0; i < 10; i++ {
		var path geo.Trajectory
		p := geo.Pt(s.Uniform(10, 90), s.Uniform(10, 90))
		for k := 0; k < 4; k++ {
			path.Waypoints = append(path.Waypoints, p)
			p = geo.Pt(p.X+s.Uniform(-15, 15), p.Y+s.Uniform(-15, 15))
		}
		qs = append(qs, query.NewTrajectory(fmt.Sprintf("tr%d", i), path, s.Uniform(60, 200), 8))
	}
	for i := 0; i < 10; i++ {
		qs = append(qs, query.NewPoint(fmt.Sprintf("pt%d", i),
			geo.Pt(s.Uniform(0, 100), s.Uniform(0, 100)), s.Uniform(8, 30), 6))
	}
	// A region between cell centers: relevant sensors, zero-width masks.
	qs = append(qs, query.NewAggregate("agg-empty", geo.NewRect(40.6, 40.6, 40.9, 40.9), 100, 10, grid))
	return qs, offers
}

// TestStrategiesBitIdenticalOnCoverageDemand: the lazy greedy returns the
// serial reference's exact floats on aggregate- and trajectory-heavy
// demand.
func TestStrategiesBitIdenticalOnCoverageDemand(t *testing.T) {
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		qs, offers := coverageHeavyScenario(seed, 600)
		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		if len(serial.Selected) < 10 {
			t.Fatalf("seed %d: only %d sensors selected; the scenario is too thin to compare strategies", seed, len(serial.Selected))
		}
		if serial.Stats.GeomCacheLookups == 0 || serial.Stats.GeomCacheHits >= serial.Stats.GeomCacheLookups {
			t.Errorf("seed %d: geometry probes %d hits / %d lookups, want 0 < hits < lookups",
				seed, serial.Stats.GeomCacheHits, serial.Stats.GeomCacheLookups)
		}
		assertSameMultiResult(t, fmt.Sprintf("seed %d", seed), serial, GreedySelect(qs, offers))
	}
}

// TestLazyHeapIndexed drives the indexed heap through random updates and
// pops against a sorted reference: pops come out in (net desc, sensor
// asc) order, every sensor has at most one entry, and pos always points
// at it.
func TestLazyHeapIndexed(t *testing.T) {
	s := rng.New(1, "lazy-heap")
	const n = 300
	var h lazyHeap
	h.reset(n)
	net := make(map[int]float64)
	for si := 0; si < n; si += 1 + s.Intn(2) {
		// Few distinct values, so ties on net are common.
		net[si] = float64(s.Intn(20))
		h.add(si, net[si])
	}
	h.init()
	check := func() {
		t.Helper()
		if len(h.ents) != len(net) {
			t.Fatalf("heap holds %d entries for %d sensors", len(h.ents), len(net))
		}
		for i, e := range h.ents {
			if h.pos[e.si] != int32(i) || net[e.si] != e.net {
				t.Fatalf("entry %d (sensor %d, net %v): pos %d, want net %v", i, e.si, e.net, h.pos[e.si], net[e.si])
			}
			if i > 0 && h.before(i, heapParent(i)) {
				t.Fatalf("heap order broken at %d", i)
			}
		}
	}
	check()
	for len(net) > 0 {
		for k := 0; k < 5; k++ {
			si := h.ents[s.Intn(len(h.ents))].si
			net[si] = float64(s.Intn(20)) - 3
			h.update(si, net[si])
		}
		check()
		want, wantNet := -1, 0.0
		for si, v := range net {
			if want == -1 || v > wantNet || (v == wantNet && si < want) {
				want, wantNet = si, v
			}
		}
		if got := h.popTop(); got.si != want || got.net != wantNet {
			t.Fatalf("popped sensor %d at %v, want sensor %d at %v", got.si, got.net, want, wantNet)
		}
		if h.pos[want] != -1 {
			t.Fatalf("popped sensor %d still indexed", want)
		}
		delete(net, want)
	}
}

// urbanShape is one slot of the benchmark's urban-select demand (250
// points, 20 multipoints of k=8, 8 aggregates up to 25 wide, sensing
// range 10) over an n-sensor fleet in the 50x50 working region, whose
// inaccuracies are drawn from [0, 0.2] as the benchmark's fleet's are. A
// wider demand multiplies the multipoints' k and budgets and the
// aggregates' budgets by wide, so its queries commit more sensors each.
func urbanShape(seed int64, n, wide int) ([]query.Query, []Offer) {
	s := rng.New(seed, "urban-shape")
	grid := geo.NewUnitGrid(80, 80)
	loc := func() geo.Point { return geo.Pt(s.Uniform(15, 65), s.Uniform(15, 65)) }
	var positions []geo.Point
	for i := 0; i < n; i++ {
		positions = append(positions, loc())
	}
	offers := makeOffers(positions...)
	fleet := rng.New(seed, "urban-fleet")
	for _, o := range offers {
		o.Sensor.Inaccuracy = fleet.Uniform(0, 0.2)
	}
	var qs []query.Query
	for i := 0; i < 250; i++ {
		qs = append(qs, query.NewPoint(fmt.Sprintf("pt%d", i), loc(), s.Uniform(10, 30), 10))
	}
	for i := 0; i < 20; i++ {
		qs = append(qs, query.NewMultiPoint(fmt.Sprintf("mp%d", i), loc(), float64(wide)*s.Uniform(100, 250), 10, 8*wide))
	}
	for i := 0; i < 8; i++ {
		x, y := s.Uniform(15, 40), s.Uniform(15, 40)
		qs = append(qs, query.NewAggregate(fmt.Sprintf("agg%d", i),
			geo.NewRect(x, y, x+s.Uniform(10, 25), y+s.Uniform(10, 25)), float64(wide)*s.Uniform(200, 400), 10, grid))
	}
	return qs, offers
}

// metroLaneShape is one shard lane's slot of the benchmark's
// metro-sharded demand: n sensors over the lane's 25x25 quarter of the
// RWM working region (about 1950 of the workload's 20000 fall in each),
// inaccuracies from [0, 0.2], and 250 points, 4 multipoints of k=6 and 2
// aggregates 6 to 10 wide inside the quarter's inset, all at RWM's dmax
// of 5.
func metroLaneShape(seed int64, n int) ([]query.Query, []Offer) {
	s := rng.New(seed, "metro-lane-shape")
	grid := geo.NewUnitGrid(80, 80)
	var positions []geo.Point
	for i := 0; i < n; i++ {
		positions = append(positions, geo.Pt(s.Uniform(15, 40), s.Uniform(15, 40)))
	}
	offers := makeOffers(positions...)
	for _, o := range offers {
		o.Sensor.Inaccuracy = s.Uniform(0, 0.2)
	}
	loc := func() geo.Point { return geo.Pt(s.Uniform(21, 34), s.Uniform(21, 34)) }
	var qs []query.Query
	for i := 0; i < 250; i++ {
		qs = append(qs, query.NewPoint(fmt.Sprintf("pt%d", i), loc(), 8+s.Uniform(0, 6), 5))
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, query.NewMultiPoint(fmt.Sprintf("mp%d", i), loc(), 100+s.Uniform(0, 150), 5, 6))
	}
	for i := 0; i < 2; i++ {
		x, y := s.Uniform(21, 24), s.Uniform(21, 24)
		qs = append(qs, query.NewAggregate(fmt.Sprintf("agg%d", i),
			geo.NewRect(x, y, x+s.Uniform(6, 10), y+s.Uniform(6, 10)), 250+s.Uniform(0, 200), 5, grid))
	}
	return qs, offers
}

// countedQuery counts the relevance tests the index makes against a
// footprinted query. It hides RelevantBase, so every candidate goes
// through Relevant, which accepts the same sensors.
type countedQuery struct {
	query.Query
	fp    query.Footprinted
	tests *int
}

func (c countedQuery) RelevanceFootprint() geo.Rect { return c.fp.RelevanceFootprint() }

func (c countedQuery) Relevant(s *sensornet.Sensor) bool {
	*c.tests++
	return c.Query.Relevant(s)
}

// relevanceWork returns the candidate (sensor, query) tests one
// relevance build makes and the pairs it keeps.
func relevanceWork(qs []query.Query, offers []Offer) (tests, kept int) {
	counted := make([]query.Query, len(qs))
	for i, q := range qs {
		counted[i] = countedQuery{Query: q, fp: q.(query.Footprinted), tests: &tests}
	}
	s := newSelection(counted, offers)
	kept = len(s.relIdx)
	s.release()
	return tests, kept
}

// TestWarmSelectionAllocations: with a warm arena a selection run
// allocates per query, never per commit or per (sensor, query) pair.
// Doubling the fleet roughly doubles the (sensor, aggregate) pairs, and a
// wider demand more than doubles the commits; both must stay under the
// same fixed count.
func TestWarmSelectionAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	// Per query: state, its targets and bitset; per run: the outcome
	// slice and the two slabs it views, trace growth. ~340 on these
	// demands.
	const limit = 450
	pairs := func(qs []query.Query, offers []Offer) int {
		n := 0
		for _, q := range qs {
			if _, ok := q.(*query.Aggregate); !ok {
				continue
			}
			for _, o := range offers {
				if q.Relevant(o.Sensor) {
					n++
				}
			}
		}
		return n
	}
	var basePairs, baseCommits int
	for i, c := range []struct{ n, wide int }{{2000, 1}, {4000, 1}, {4000, 3}} {
		qs, offers := urbanShape(1, c.n, c.wide)
		commits := len(GreedySelect(qs, offers).Selected) // also warms the pooled arena for this size
		allocs := testing.AllocsPerRun(5, func() { GreedySelect(qs, offers) })
		np := pairs(qs, offers)
		t.Logf("%d sensors, wide %d: %d (sensor, aggregate) pairs, %d commits, %.0f allocations per run",
			c.n, c.wide, np, commits, allocs)
		if allocs > limit {
			t.Errorf("%d sensors, wide %d: %.0f allocations per warm run, limit %d", c.n, c.wide, allocs, limit)
		}
		switch i {
		case 0:
			basePairs = np
		case 1:
			if np < basePairs*3/2 {
				t.Fatalf("fixture: pairs grew only %d -> %d", basePairs, np)
			}
			baseCommits = commits
		case 2:
			if commits < 2*baseCommits {
				t.Fatalf("fixture: commits grew only %d -> %d", baseCommits, commits)
			}
		}
	}
}

// TestLazyScreenHalvesMaskedGains: on urban-shaped demand the lazy
// strategy settles most volatile refreshes with the mask-free bound, so
// it evaluates at most half as many (sensor, aggregate) gains from masks
// as the serial scan does — and still returns the serial result.
func TestLazyScreenHalvesMaskedGains(t *testing.T) {
	for _, wide := range []int{1, 3} {
		qs, offers := urbanShape(2, 4000, wide)
		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		lazy := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategyLazy})
		assertSameMultiResult(t, fmt.Sprintf("wide %d", wide), serial, lazy)
		t.Logf("wide %d: masked gains serial %d, lazy %d; valuation calls serial %d, lazy %d",
			wide, serial.Stats.GeomCacheHits, lazy.Stats.GeomCacheHits, serial.Stats.ValuationCalls, lazy.Stats.ValuationCalls)
		if lazy.Stats.GeomCacheHits*2 > serial.Stats.GeomCacheHits {
			t.Errorf("wide %d: lazy made %d masked gain evaluations, more than half the serial scan's %d",
				wide, lazy.Stats.GeomCacheHits, serial.Stats.GeomCacheHits)
		}
	}
}

// TestTotalPaymentSumsInSensorOrder: payments booked in any order come
// out of sortPayments ascending by sensor ID, repeated payees merged in
// booking order, and TotalPayment sums them in that order without
// allocating.
func TestTotalPaymentSumsInSensorOrder(t *testing.T) {
	// Addends chosen so the sum depends on the order.
	vals := []float64{1e16, 1, -1e16, 1, 3.5, 1e-3}
	for n := 0; n <= len(vals); n++ {
		ids := rng.New(int64(n), "payees").Perm(50)[:n]
		booked := make([]Payment, n)
		for k, id := range ids {
			booked[k] = Payment{SensorID: id, Amount: vals[k]}
		}
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		var want float64
		for _, id := range sorted {
			want += vals[slices.Index(ids, id)]
		}
		o := &MultiOutcome{Payments: sortPayments(slices.Clone(booked))}
		for i, p := range o.Payments {
			if p.SensorID != sorted[i] {
				t.Fatalf("%d payees: payment %d to sensor %d, want %d", n, i, p.SensorID, sorted[i])
			}
		}
		if got := o.TotalPayment(); got != want {
			t.Fatalf("%d payees: TotalPayment = %v, want %v", n, got, want)
		}
		if a := testing.AllocsPerRun(10, func() { o.TotalPayment() }); a != 0 {
			t.Errorf("%d payees: TotalPayment allocates %.0f times", n, a)
		}
	}
	// A payee booked twice is one payment: the amounts add in booking
	// order, as accumulating them per sensor would.
	big := 1e16
	got := sortPayments([]Payment{{7, big}, {3, 2}, {7, 1}, {7, -big}})
	want := []Payment{{3, 2}, {7, (big + 1) + -big}}
	if !slices.Equal(got, want) {
		t.Fatalf("sortPayments merged to %v, want %v", got, want)
	}
}

// --- per-layer benchmarks --------------------------------------------------

// BenchmarkLazyHeapReprioritise times one in-place priority change on a
// 4000-entry heap, the operation volatile maintenance performs per
// touched sensor per commit.
func BenchmarkLazyHeapReprioritise(b *testing.B) {
	s := rng.New(1, "heap-bench")
	const n = 4000
	var h lazyHeap
	h.reset(n)
	for si := 0; si < n; si++ {
		h.add(si, s.Uniform(0, 100))
	}
	h.init()
	sis := make([]int, 1024)
	nets := make([]float64, 1024)
	for i := range sis {
		sis[i], nets[i] = s.Intn(n), s.Uniform(0, 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.update(sis[i%1024], nets[i%1024])
	}
}

// BenchmarkVolatileRefresh times the pass lazyLoop makes over an
// aggregate's remaining pairs after the aggregate commits a sensor — the
// mask-free bound for every pair, the masked popcount for the pairs it
// cannot settle — on one urban-shaped run. Each iteration commits one
// more of the aggregate's relevant sensors; ns/op is one pass over the
// aggregate's pairs, whose number the pairs metric reports.
func BenchmarkVolatileRefresh(b *testing.B) {
	qs, offers := urbanShape(1, 4000, 1)
	s := newSelection(qs, offers)
	defer s.release()
	s.buildVolatile()
	s.refreshRemaining()
	qi := int32(len(qs) - 1) // the last aggregate
	pairs := s.vol[s.volOff[qi]:s.volOff[qi+1]]
	gc := s.geom[qi]
	touched := make([]bool, len(offers))
	var touchList []int32
	var c evalCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[(i*97)%len(pairs)]
		gc.AddGeom(s.mask(p.idx, qi), p.w)
		s.qver[qi]++
		touchList = s.refreshVolatile(qi, touched, touchList[:0], &c)
		for _, si := range touchList {
			touched[si] = false
		}
	}
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkBuildRelevance times the relevance index, geometry masks and
// arena set-up of one urban-shaped run — everything newSelection does
// before the first round.
func BenchmarkBuildRelevance(b *testing.B) {
	qs, offers := urbanShape(1, 4000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newSelection(qs, offers).release()
	}
}

// BenchmarkMetroLaneSetup times everything newSelection does before the
// first round — relevance index, geometry masks, arena — on one metro
// lane's slot, where the point queries' footprints dominate the index.
func BenchmarkMetroLaneSetup(b *testing.B) {
	qs, offers := metroLaneShape(1, 1950)
	tests, kept := relevanceWork(qs, offers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newSelection(qs, offers).release()
	}
	b.ReportMetric(float64(tests), "tests/op")
	b.ReportMetric(float64(kept), "pairs/op")
}

// BenchmarkMetroLaneSelection times one metro lane's whole GreedySelect.
func BenchmarkMetroLaneSelection(b *testing.B) {
	qs, offers := metroLaneShape(1, 1950)
	tests, kept := relevanceWork(qs, offers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedySelect(qs, offers)
	}
	b.ReportMetric(float64(tests), "tests/op")
	b.ReportMetric(float64(kept), "pairs/op")
}
