package query

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// naiveCoverage is the reference the bitset kernel is checked against: a
// bool per target and a walk of every target per sensor, with Eq. 5
// spelled out in the kernel's operation order.
type naiveCoverage struct {
	budget   float64
	targets  []geo.Point
	r2       float64
	covered  []bool
	cnt      int
	sumTheta float64
	n        int
}

func newNaive(budget float64, targets []geo.Point, r float64) *naiveCoverage {
	return &naiveCoverage{budget: budget, targets: targets, r2: r * r, covered: make([]bool, len(targets))}
}

func (c *naiveCoverage) value(cnt int, sumTheta float64, n int) float64 {
	if n == 0 || len(c.targets) == 0 {
		return 0
	}
	g := float64(cnt) / float64(len(c.targets))
	return c.budget * g * sumTheta / float64(n)
}

func (c *naiveCoverage) newly(s *sensornet.Sensor) int {
	nc := 0
	for i, p := range c.targets {
		if !c.covered[i] && p.Dist2(s.Pos) <= c.r2 {
			nc++
		}
	}
	return nc
}

func (c *naiveCoverage) gain(s *sensornet.Sensor) float64 {
	return c.value(c.cnt+c.newly(s), c.sumTheta+theta(s), c.n+1) - c.value(c.cnt, c.sumTheta, c.n)
}

func (c *naiveCoverage) add(s *sensornet.Sensor) {
	for i, p := range c.targets {
		if !c.covered[i] && p.Dist2(s.Pos) <= c.r2 {
			c.covered[i] = true
			c.cnt++
		}
	}
	c.sumTheta += theta(s)
	c.n++
}

// buildMasks computes every sensor's geometry mask and weight the way a
// selection run does: one zeroed slab, one BuildGeom per sensor.
func buildMasks(gc GeomCached, sensors []*sensornet.Sensor) ([][]uint64, []float64) {
	w := gc.GeomWords()
	slab := make([]uint64, w*len(sensors))
	masks := make([][]uint64, len(sensors))
	weights := make([]float64, len(sensors))
	for k, s := range sensors {
		masks[k] = slab[k*w : (k+1)*w]
		weights[k] = gc.BuildGeom(s, masks[k])
	}
	return masks, weights
}

// checkKernel drives one state through Gain/Add, a second through
// GainGeom/AddGeom on prebuilt masks, and the naive reference through the
// same commits, and requires every gain and value to agree bit for bit.
// wantValue recomputes the committed set's value from the geo package's
// coverage fraction.
func checkKernel(t *testing.T, label string, q Query, targets []geo.Point, budget, r float64,
	sensors []*sensornet.Sensor, commits []int, wantValue func(centers []geo.Point, sumTheta float64) float64) {
	t.Helper()
	ref := newNaive(budget, targets, r)
	walked := q.NewState()
	masked := q.NewState()
	gc := masked.(GeomCached)
	masks, weights := buildMasks(gc, sensors)
	var centers []geo.Point
	step := func() {
		for k, s := range sensors {
			want := ref.gain(s)
			if got := walked.Gain(s); got != want {
				t.Fatalf("%s: plain Gain(sensor %d) = %v, reference %v (newly covered %d)", label, s.ID, got, want, ref.newly(s))
			}
			if got, _ := gc.GainGeom(masks[k], weights[k]); got != want {
				t.Fatalf("%s: GainGeom(sensor %d) = %v, reference %v (newly covered %d)", label, s.ID, got, want, ref.newly(s))
			}
		}
		want := wantValue(centers, ref.sumTheta)
		if walked.Value() != want || masked.Value() != want {
			t.Fatalf("%s: Value plain %v masked %v, want %v from the coverage fraction", label, walked.Value(), masked.Value(), want)
		}
	}
	step()
	for _, k := range commits {
		s := sensors[k]
		ref.add(s)
		walked.Add(s)
		gc.AddGeom(masks[k], weights[k])
		centers = append(centers, s.Pos)
		step()
	}
}

func randomSensors(s *rng.Stream, n int, box geo.Rect) []*sensornet.Sensor {
	out := make([]*sensornet.Sensor, n)
	for i := range out {
		out[i] = sensorAt(i, s.Uniform(box.MinX, box.MaxX), s.Uniform(box.MinY, box.MaxY))
		out[i].Inaccuracy = s.Uniform(0, 0.5)
		out[i].Trust = s.Uniform(0.3, 1)
	}
	return out
}

func checkAggregate(t *testing.T, label string, grid geo.Grid, region geo.Rect, budget, r float64, sensors []*sensornet.Sensor, commits []int) {
	t.Helper()
	a := NewAggregate("a", region, budget, r, grid)
	checkKernel(t, label, a, grid.CellsIn(region), budget, r, sensors, commits,
		func(centers []geo.Point, sumTheta float64) float64 {
			if len(centers) == 0 {
				return 0
			}
			return budget * grid.CoverageFraction(region, centers, r) * sumTheta / float64(len(centers))
		})
}

// TestBitsetCoverageMatchesReference: on random grids, regions and sensor
// sets the bitset kernel's gains and values — by disk walk and by
// prebuilt mask — equal a naive per-target walk and
// geo.Grid.CoverageFraction, bit for bit.
func TestBitsetCoverageMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		s := rng.New(seed, "bitset-aggregate")
		// Non-unit cells and an offset origin on odd seeds.
		grid := geo.NewUnitGrid(s.IntBetween(5, 60), s.IntBetween(5, 60))
		if seed%2 == 1 {
			grid.Bounds = geo.NewRect(-7.3, 2.1, -7.3+s.Uniform(20, 90), 2.1+s.Uniform(20, 90))
		}
		b := grid.Bounds
		// Regions may stick out of the grid; sensors roam a box that is
		// wider than both, so some sit outside the region's bounding box
		// and some outside sensing range of every cell.
		x, y := s.Uniform(b.MinX-5, b.MaxX-2), s.Uniform(b.MinY-5, b.MaxY-2)
		region := geo.NewRect(x, y, x+s.Uniform(0.5, 40), y+s.Uniform(0.5, 40))
		r := s.Uniform(0.5, 12)
		sensors := randomSensors(s, 30, b.Expand(15))
		commits := s.Perm(len(sensors))[:8]
		checkAggregate(t, fmt.Sprintf("seed %d (%d cells)", seed, len(grid.CellsIn(region))), grid, region, s.Uniform(50, 300), r, sensors, commits)
	}
}

// TestBitsetCoverageEdgeCases pins the shapes the random sweep may miss.
func TestBitsetCoverageEdgeCases(t *testing.T) {
	grid := geo.NewUnitGrid(50, 50)
	all := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}

	// 64 cells exactly, 65 (one bit into a second word), 63, and a block
	// whose rows straddle word boundaries.
	for _, dim := range [][2]float64{{8, 8}, {13, 5}, {9, 7}, {25, 25}} {
		region := geo.NewRect(10, 10, 10+dim[0], 10+dim[1])
		sensors := []*sensornet.Sensor{sensorAt(0, 12, 12), sensorAt(1, 30, 30), sensorAt(2, 9, 16), sensorAt(3, 22.5, 14.5)}
		checkAggregate(t, fmt.Sprintf("%vx%v region", dim[0], dim[1]), grid, region, 100, 6, sensors, all(len(sensors)))
	}

	// A region that contains no cell center: every gain and value is 0.
	empty := geo.NewRect(10.6, 10.6, 10.9, 10.9)
	if n := len(grid.CellsIn(empty)); n != 0 {
		t.Fatalf("empty region has %d cells", n)
	}
	checkAggregate(t, "zero-cell region", grid, empty, 100, 5, []*sensornet.Sensor{sensorAt(0, 10.7, 10.7), sensorAt(1, 40, 40)}, all(2))

	// A sensor exactly at Dist2 == r²: cell center (12.5, 12.5) is 3-4-5
	// from (15.5, 16.5), so with r = 5 it is in range and its neighbour
	// (11.5, 12.5) is not.
	region := geo.NewRect(10, 10, 20, 20)
	edge := sensorAt(0, 15.5, 16.5)
	if d2 := geo.Pt(12.5, 12.5).Dist2(edge.Pos); d2 != 25 {
		t.Fatalf("edge fixture: Dist2 = %v, want exactly 25", d2)
	}
	a := NewAggregate("edge", region, 100, 5, grid)
	st := a.NewState().(*coverageState)
	st.Add(edge)
	bit := func(p geo.Point) bool {
		for i, c := range st.targets {
			if c == p {
				return st.covered[i>>6]&(1<<(i&63)) != 0
			}
		}
		t.Fatalf("no cell at %v", p)
		return false
	}
	if !bit(geo.Pt(12.5, 12.5)) || bit(geo.Pt(11.5, 12.5)) {
		t.Error("closed-disk boundary: the cell at Dist2 == r² must be covered and the next one out must not")
	}
	checkAggregate(t, "boundary sensor", grid, region, 100, 5, []*sensornet.Sensor{edge, sensorAt(1, 10, 10)}, all(2))

	// Sensors outside the region's bounding box on every side, in range
	// and out of it.
	outside := []*sensornet.Sensor{
		sensorAt(0, 5, 15), sensorAt(1, 25, 15), sensorAt(2, 15, 5), sensorAt(3, 15, 25),
		sensorAt(4, 7, 7), sensorAt(5, 40, 40), sensorAt(6, -3, 15),
	}
	checkAggregate(t, "sensors outside the region", grid, region, 100, 6, outside, all(len(outside)))
}

// TestBitsetTrajectoryMatchesReference is the same property over
// trajectory sample points.
func TestBitsetTrajectoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		s := rng.New(seed, "bitset-trajectory")
		var path geo.Trajectory
		for i, n := 0, s.IntBetween(1, 5); i < n; i++ {
			path.Waypoints = append(path.Waypoints, geo.Pt(s.Uniform(0, 80), s.Uniform(0, 80)))
		}
		budget, r := s.Uniform(40, 200), s.Uniform(1, 10)
		q := NewTrajectory("t", path, budget, r)
		sensors := randomSensors(s, 25, geo.NewRect(-10, -10, 90, 90))
		checkKernel(t, fmt.Sprintf("seed %d (%d samples)", seed, len(q.samples)), q, q.samples, budget, r,
			sensors, s.Perm(len(sensors))[:6],
			func(centers []geo.Point, sumTheta float64) float64 {
				if len(centers) == 0 {
					return 0
				}
				return budget * coverageFractionOfPoints(q.samples, centers, r) * sumTheta / float64(len(centers))
			})
	}
}

// coverageFractionOfPoints is the trajectory reference: the fraction of
// targets within radius of at least one center.
func coverageFractionOfPoints(targets, centers []geo.Point, radius float64) float64 {
	if len(targets) == 0 {
		return 0
	}
	r2 := radius * radius
	covered := 0
	for _, t := range targets {
		for _, s := range centers {
			if t.Dist2(s) <= r2 {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(targets))
}

// checkSpans requires the walk's mask and fresh count for every position
// to equal, word for word, a per-target walk's: on the empty state, and
// again once the reference masks of the first few positions are marked
// covered.
func checkSpans(t *testing.T, label string, a *Aggregate, positions []geo.Point) {
	t.Helper()
	st := a.NewState().(*coverageState)
	reference := func(pos geo.Point) []uint64 {
		m := make([]uint64, len(st.covered))
		for i, p := range st.targets {
			if p.Dist2(pos) <= st.r2 {
				m[i>>6] |= 1 << (i & 63)
			}
		}
		return m
	}
	pass := func(phase string) {
		for _, pos := range positions {
			want := reference(pos)
			wantFresh := 0
			for w, m := range want {
				wantFresh += bits.OnesCount64(m &^ st.covered[w])
			}
			got := make([]uint64, len(st.covered))
			if fresh := st.walk(pos, got); fresh != wantFresh {
				t.Fatalf("%s, %s, sensor at %v: fresh %d, reference %d", label, phase, pos, fresh, wantFresh)
			}
			if fresh := st.walk(pos, nil); fresh != wantFresh {
				t.Fatalf("%s, %s, sensor at %v: fresh without a mask %d, reference %d", label, phase, pos, fresh, wantFresh)
			}
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("%s, %s, sensor at %v: mask word %d = %#x, reference %#x", label, phase, pos, w, got[w], want[w])
				}
			}
		}
	}
	pass("empty state")
	for _, pos := range positions[:min(3, len(positions))] {
		for w, m := range reference(pos) {
			st.covered[w] |= m
		}
	}
	pass("partly covered")
}

// TestWalkRowSpansMatchReference pins the shapes where a row-span walk
// could go wrong against the per-target test: cell centers exactly at
// Dist2 == r², radii under one cell, one-row and one-column regions,
// sensors outside the grid, and runs that cross word boundaries.
func TestWalkRowSpansMatchReference(t *testing.T) {
	grid := geo.NewUnitGrid(200, 200)
	s := rng.New(1, "row-spans")
	scatter := func(box geo.Rect, n int) []geo.Point {
		out := make([]geo.Point, n)
		for i := range out {
			out[i] = geo.Pt(s.Uniform(box.MinX, box.MaxX), s.Uniform(box.MinY, box.MaxY))
		}
		return out
	}
	// Sensors on cell centers, on cell corners and on edge midpoints of
	// the block around (20, 20): with whole and half-unit offsets many
	// centers sit exactly at Dist2 == r² for r = 5 (3-4-5), 13 (5-12-13)
	// and 0.5 (a sensor on a cell edge reaches both neighbours' centers).
	var lattice []geo.Point
	for y := 14.0; y <= 27; y += 0.5 {
		for x := 14.0; x <= 27; x += 0.5 {
			lattice = append(lattice, geo.Pt(x, y))
		}
	}
	block := geo.NewRect(10, 10, 30, 30)
	for _, r := range []float64{5, 13, 0.5, 0.3, 0.49, 1, 1.5} {
		checkSpans(t, fmt.Sprintf("lattice r=%v", r), NewAggregate("a", block, 100, r, grid),
			append(lattice, scatter(block.Expand(r+2), 40)...))
	}
	if d2 := geo.Pt(12.5, 12.5).Dist2(geo.Pt(15.5, 16.5)); d2 != 25 {
		t.Fatalf("lattice: Dist2 = %v, want exactly 25", d2)
	}

	// One row, one column, one cell.
	for _, region := range []geo.Rect{
		geo.NewRect(10, 10, 60, 10.9), geo.NewRect(10, 10, 10.9, 60), geo.NewRect(10, 10, 10.9, 10.9),
	} {
		for _, r := range []float64{0.4, 3, 20} {
			checkSpans(t, fmt.Sprintf("region %v r=%v", region, r), NewAggregate("a", region, 100, r, grid),
				scatter(region.Expand(r+2), 60))
		}
	}

	// Sensors outside the grid on every side, some in range of the
	// block's edge and some not.
	edge := geo.NewRect(0, 0, 20, 15)
	outside := []geo.Point{
		geo.Pt(-3, 7), geo.Pt(-0.5, 0.5), geo.Pt(23, 7), geo.Pt(10, -4), geo.Pt(10, 18.5),
		geo.Pt(-30, -30), geo.Pt(-2, -2), geo.Pt(250, 7), geo.Pt(10, 260),
	}
	checkSpans(t, "outside the grid", NewAggregate("a", edge, 100, 4, grid), outside)

	// Rows of 63, 64, 65 and 127 cells: row starts drift across word
	// boundaries and a wide disk's runs span whole words.
	for _, cols := range []float64{63, 64, 65, 127} {
		region := geo.NewRect(0, 0, cols, 6)
		for _, r := range []float64{2.5, 33, 70} {
			checkSpans(t, fmt.Sprintf("%v columns r=%v", cols, r), NewAggregate("a", region, 100, r, grid),
				scatter(region.Expand(r/2), 60))
		}
	}

	// Non-unit cells on an offset origin, where the index estimates are
	// off by rounding.
	odd := geo.Grid{Bounds: geo.NewRect(-7.3, 2.1, 81.9, 70.4), Cols: 71, Rows: 53}
	region := geo.NewRect(-3, 5, 60, 50)
	for _, r := range []float64{0.7, 4.2, 11} {
		checkSpans(t, fmt.Sprintf("odd grid r=%v", r), NewAggregate("a", region, 100, r, odd),
			scatter(region.Expand(r+3), 200))
	}
}

// TestGainBoundIsUpperBound: on random aggregate and trajectory states,
// the bound from a sensor's fresh count at an earlier state is >= its
// masked gain at every later state, by plain float comparison, and equals
// it while no commit since that count shared a target with the sensor.
// The first commits are low-quality sensors covering the middle of the
// region: Eq. 5 averages quality, so they raise the other sensors' gains,
// which a cached gain could not bound but the bound must.
func TestGainBoundIsUpperBound(t *testing.T) {
	grew := 0
	for seed := int64(1); seed <= 30; seed++ {
		s := rng.New(seed, "gain-bound")
		var q Query
		var box geo.Rect
		if seed%2 == 1 {
			x, y := s.Uniform(5, 30), s.Uniform(5, 30)
			region := geo.NewRect(x, y, x+s.Uniform(3, 25), y+s.Uniform(3, 25))
			q = NewAggregate("a", region, s.Uniform(50, 300), s.Uniform(1, 10), geo.NewUnitGrid(60, 60))
			box = region.Expand(12)
		} else {
			var path geo.Trajectory
			for i, n := 0, s.IntBetween(2, 5); i < n; i++ {
				path.Waypoints = append(path.Waypoints, geo.Pt(s.Uniform(10, 50), s.Uniform(10, 50)))
			}
			q = NewTrajectory("t", path, s.Uniform(50, 200), s.Uniform(1, 8))
			box = path.BoundingRect().Expand(12)
		}
		sensors := randomSensors(s, 40, box)
		const wide, zeroTheta, far = 6, 4, 3
		c := box.Center()
		for k := 0; k < wide; k++ { // low quality, wide coverage
			sensors[k].Pos = geo.Pt(c.X+s.Uniform(-2, 2), c.Y+s.Uniform(-2, 2))
			sensors[k].Trust = s.Uniform(0.02, 0.1)
		}
		for k := wide; k < wide+zeroTheta; k++ {
			sensors[k].Trust = 0
		}
		for k := wide + zeroTheta; k < wide+zeroTheta+far; k++ { // out of every target's range
			sensors[k].Pos = geo.Pt(box.MaxX+40+s.Uniform(0, 10), box.MinY-40)
		}
		gc := q.NewState().(GeomCached)
		masks, weights := buildMasks(gc, sensors)
		n := len(sensors)
		last := make([]int, n)
		lastGain := make([]float64, n)
		overlapped := make([]bool, n)
		for k := range sensors {
			lastGain[k], last[k] = gc.GainGeom(masks[k], weights[k])
		}
		order := make([]int, 0, n)
		for k := 0; k < wide; k++ {
			order = append(order, k)
		}
		for _, k := range s.Perm(n) {
			if k >= wide {
				order = append(order, k)
			}
		}
		committed := make([]bool, n)
		for _, ck := range order[:20] {
			committed[ck] = true
			gc.AddGeom(masks[ck], weights[ck])
			for k := range sensors {
				for w := range masks[k] {
					if masks[k][w]&masks[ck][w] != 0 {
						overlapped[k] = true
					}
				}
			}
			for k := range sensors {
				if committed[k] {
					continue
				}
				g, nc := gc.GainGeom(masks[k], weights[k])
				b, ok := gc.GainBound(last[k], weights[k])
				if !ok {
					t.Fatalf("seed %d sensor %d: no bound at a non-negative budget and quality", seed, k)
				}
				if !(b >= g) {
					t.Fatalf("seed %d sensor %d: bound %v from fresh count %d is below the gain %v (fresh count %d)",
						seed, k, b, last[k], g, nc)
				}
				if !overlapped[k] && (nc != last[k] || b != g) {
					t.Fatalf("seed %d sensor %d: no commit touched its targets, yet fresh %d -> %d and bound %v != gain %v",
						seed, k, last[k], nc, b, g)
				}
				if g > lastGain[k] {
					grew++
				}
				// Re-evaluate about half the pairs, so counts of every age
				// are in play.
				if s.Bool(0.5) {
					last[k], lastGain[k], overlapped[k] = nc, g, false
				}
			}
		}
	}
	if grew == 0 {
		t.Fatal("no gain ever grew: the fixture misses Eq. 5's non-submodularity")
	}
	t.Logf("%d gains grew between evaluations", grew)

	// Where a step of the chain could reverse order, the state offers no
	// bound.
	grid := geo.NewUnitGrid(20, 20)
	region := geo.NewRect(2, 2, 12, 12)
	neg := NewAggregate("neg", region, -100, 5, grid).NewState().(GeomCached)
	if _, ok := neg.GainBound(3, 0.5); ok {
		t.Error("negative budget: GainBound reports a bound")
	}
	st := NewAggregate("a", region, 100, 5, grid).NewState().(GeomCached)
	for _, w := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if _, ok := st.GainBound(3, w); ok {
			t.Errorf("weight %v: GainBound reports a bound", w)
		}
	}
}

// --- per-layer benchmarks --------------------------------------------------

// benchCoverage builds a state of the urban demand's shape — a 25x25
// region (625 cells) or a 60-unit path, sensing range 10 — with the
// sensors relevant to it, their masks and weights, and a few of them
// committed.
func benchCoverage(trajectory bool) (State, []*sensornet.Sensor, [][]uint64, []float64) {
	s := rng.New(1, "bench-coverage")
	var q Query
	if trajectory {
		q = NewTrajectory("t", geo.Trajectory{Waypoints: []geo.Point{geo.Pt(20, 20), geo.Pt(50, 40), geo.Pt(60, 70)}}, 150, 10)
	} else {
		q = NewAggregate("a", geo.NewRect(30, 30, 55, 55), 300, 10, geo.NewUnitGrid(80, 80))
	}
	var relevant []*sensornet.Sensor
	for _, c := range randomSensors(s, 4000, geo.NewRect(15, 15, 65, 65)) {
		if q.Relevant(c) {
			relevant = append(relevant, c)
		}
	}
	st := q.NewState()
	gc := st.(GeomCached)
	masks, weights := buildMasks(gc, relevant)
	for k := 0; k < 3; k++ {
		gc.AddGeom(masks[k*7], weights[k*7])
	}
	return st, relevant, masks, weights
}

var benchSink float64

// benchGain times one gain evaluation from a prebuilt mask (what a
// selection run's rounds do), by disk walk (plain State.Gain), and the
// mask-free bound the lazy strategy screens volatile pairs with.
func benchGain(b *testing.B, trajectory bool) {
	st, sensors, masks, weights := benchCoverage(trajectory)
	gc := st.(GeomCached)
	b.Run("masked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(sensors)
			g, _ := gc.GainGeom(masks[k], weights[k])
			benchSink += g
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += st.Gain(sensors[i%len(sensors)])
		}
	})
	b.Run("bound", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(sensors)
			g, _ := gc.GainBound(i%100, weights[k])
			benchSink += g
		}
	})
}

func BenchmarkAggregateGain(b *testing.B)  { benchGain(b, false) }
func BenchmarkTrajectoryGain(b *testing.B) { benchGain(b, true) }

// BenchmarkAggregateAdd times one commit from a prebuilt mask and by disk
// walk.
func BenchmarkAggregateAdd(b *testing.B) {
	st, sensors, masks, weights := benchCoverage(false)
	q := st.Query()
	b.Run("masked", func(b *testing.B) {
		b.ReportAllocs()
		gc := q.NewState().(GeomCached)
		for i := 0; i < b.N; i++ {
			k := i % len(sensors)
			gc.AddGeom(masks[k], weights[k])
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		st := q.NewState()
		for i := 0; i < b.N; i++ {
			st.Add(sensors[i%len(sensors)])
		}
	})
}

// BenchmarkBuildGeom times the per-sensor mask build a selection run pays
// once up front for every (sensor, coverage query) pair: row spans on a
// grid block, a per-sample walk on a path.
func BenchmarkBuildGeom(b *testing.B) {
	for _, c := range []struct {
		name       string
		trajectory bool
	}{{"aggregate", false}, {"trajectory", true}} {
		st, sensors, _, _ := benchCoverage(c.trajectory)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			gc := st.Query().NewState().(GeomCached)
			mask := make([]uint64, gc.GeomWords())
			for i := 0; i < b.N; i++ {
				clear(mask)
				benchSink += gc.BuildGeom(sensors[i%len(sensors)], mask)
			}
		})
	}
}
