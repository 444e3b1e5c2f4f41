package query

import (
	"fmt"
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

// buildMasks computes every sensor's geometry mask the way a selection
// run does: one zeroed slab, one BuildGeom per sensor.
func buildMasks(gc GeomCached, sensors []*sensornet.Sensor) [][]uint64 {
	w := gc.GeomWords()
	slab := make([]uint64, w*len(sensors))
	masks := make([][]uint64, len(sensors))
	for k, s := range sensors {
		masks[k] = slab[k*w : (k+1)*w]
		gc.BuildGeom(s, masks[k])
	}
	return masks
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
	masks := buildMasks(gc, sensors)
	var centers []geo.Point
	step := func() {
		for k, s := range sensors {
			want := ref.gain(s)
			if got := walked.Gain(s); got != want {
				t.Fatalf("%s: plain Gain(sensor %d) = %v, reference %v (newly covered %d)", label, s.ID, got, want, ref.newly(s))
			}
			if got := gc.GainGeom(masks[k], s); got != want {
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
		gc.AddGeom(masks[k], s)
		centers = append(centers, s.Pos)
		step()
	}
	if len(masked.Sensors()) != len(commits) || len(walked.Sensors()) != len(commits) {
		t.Fatalf("%s: committed sets have %d / %d sensors, want %d", label, len(walked.Sensors()), len(masked.Sensors()), len(commits))
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
				return budget * geo.CoverageFractionOfPoints(q.samples, centers, r) * sumTheta / float64(len(centers))
			})
	}
}

// --- per-layer benchmarks --------------------------------------------------

// benchCoverage builds a state of the urban demand's shape — a 25x25
// region (625 cells) or a 60-unit path, sensing range 10 — with the
// sensors relevant to it, their masks, and a few of them committed.
func benchCoverage(trajectory bool) (State, []*sensornet.Sensor, [][]uint64) {
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
	masks := buildMasks(gc, relevant)
	for k := 0; k < 3; k++ {
		gc.AddGeom(masks[k*7], relevant[k*7])
	}
	return st, relevant, masks
}

var benchSink float64

// benchGain times one gain evaluation from a prebuilt mask (what a
// selection run's rounds do) and by disk walk (plain State.Gain).
func benchGain(b *testing.B, trajectory bool) {
	st, sensors, masks := benchCoverage(trajectory)
	gc := st.(GeomCached)
	b.Run("masked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(sensors)
			benchSink += gc.GainGeom(masks[k], sensors[k])
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += st.Gain(sensors[i%len(sensors)])
		}
	})
}

func BenchmarkAggregateGain(b *testing.B)  { benchGain(b, false) }
func BenchmarkTrajectoryGain(b *testing.B) { benchGain(b, true) }

// BenchmarkAggregateAdd times one commit from a prebuilt mask and by disk
// walk; "build" is the per-sensor mask build a selection run pays once up
// front.
func BenchmarkAggregateAdd(b *testing.B) {
	st, sensors, masks := benchCoverage(false)
	q := st.Query()
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		gc := q.NewState().(GeomCached)
		mask := make([]uint64, gc.GeomWords())
		for i := 0; i < b.N; i++ {
			clear(mask)
			gc.BuildGeom(sensors[i%len(sensors)], mask)
		}
	})
	b.Run("masked", func(b *testing.B) {
		b.ReportAllocs()
		gc := q.NewState().(GeomCached)
		for i := 0; i < b.N; i++ {
			k := i % len(sensors)
			gc.AddGeom(masks[k], sensors[k])
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
