package geo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 2.5), 2.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v)=%v want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almostEq(got, c.want*c.want, 1e-12) {
			t.Errorf("Dist2(%v,%v)=%v want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	if got := p.Add(Pt(3, 4)); got != Pt(4, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Pt(3, 4)); got != Pt(-2, -2) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	if r.MinX != 1 || r.MinY != 2 || r.MaxX != 5 || r.MaxY != 7 {
		t.Errorf("NewRect did not normalize: %+v", r)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 5)
	for _, p := range []Point{Pt(0, 0), Pt(10, 5), Pt(5, 2.5), Pt(0, 5)} {
		if !r.Contains(p) {
			t.Errorf("expected %v inside %v", p, r)
		}
	}
	for _, p := range []Point{Pt(-0.001, 0), Pt(10.001, 5), Pt(5, 5.001)} {
		if r.Contains(p) {
			t.Errorf("expected %v outside %v", p, r)
		}
	}
}

func TestRectAreaCenter(t *testing.T) {
	r := NewRect(2, 2, 6, 4)
	if got := r.Area(); got != 8 {
		t.Errorf("Area=%v want 8", got)
	}
	if got := r.Center(); got != Pt(4, 3) {
		t.Errorf("Center=%v want (4,3)", got)
	}
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := NewRect(5, 5, 10, 10)
	if got != want {
		t.Errorf("Intersect=%v want %v", got, want)
	}
	c := NewRect(20, 20, 30, 30)
	if _, ok := a.Intersect(c); ok {
		t.Error("expected no overlap with far rect")
	}
	// Touching edge counts as (degenerate) overlap.
	d := NewRect(10, 0, 20, 10)
	if inter, ok := a.Intersect(d); !ok || inter.Width() != 0 {
		t.Errorf("edge-touch intersect = %v, %v", inter, ok)
	}
}

func TestRectClampAndDist(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if got := r.Clamp(Pt(-5, 5)); got != Pt(0, 5) {
		t.Errorf("Clamp=%v", got)
	}
	if got := r.Clamp(Pt(5, 5)); got != Pt(5, 5) {
		t.Errorf("Clamp interior changed point: %v", got)
	}
	if got := r.DistToPoint(Pt(13, 14)); !almostEq(got, 5, 1e-12) {
		t.Errorf("DistToPoint=%v want 5", got)
	}
	if got := r.DistToPoint(Pt(3, 3)); got != 0 {
		t.Errorf("DistToPoint inside = %v want 0", got)
	}
}

// TestRectClampMatchesMath: on NaN-free input Clamp returns the bits
// math.Min(math.Max(...)) returned, on ±0, ±Inf and ±1 as coordinates and
// as bounds and on 100 000 random points and rectangles. A NaN anywhere
// yields NaN.
func TestRectClampMatchesMath(t *testing.T) {
	ref := func(r Rect, p Point) Point {
		return Point{X: math.Min(math.Max(p.X, r.MinX), r.MaxX), Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY)}
	}
	same := func(a, b Point) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
	}
	edge := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1}
	for _, lo := range edge {
		for _, hi := range edge {
			for _, v := range edge {
				r, p := Rect{MinX: lo, MinY: hi, MaxX: hi, MaxY: lo}, Point{X: v, Y: -v}
				if got, want := r.Clamp(p), ref(r, p); !same(got, want) {
					t.Fatalf("%+v.Clamp(%v) = %v, want %v", r, p, got, want)
				}
				nan := math.NaN()
				for _, c := range []struct {
					r Rect
					p Point
				}{
					{r, Point{X: nan, Y: nan}},
					{Rect{MinX: nan, MinY: nan, MaxX: hi, MaxY: hi}, p},
					{Rect{MinX: lo, MinY: lo, MaxX: nan, MaxY: nan}, p},
				} {
					if got := c.r.Clamp(c.p); !math.IsNaN(got.X) || !math.IsNaN(got.Y) {
						t.Fatalf("%+v.Clamp(%v) = %v, want NaN", c.r, c.p, got)
					}
				}
			}
		}
	}
	s := rng.New(1, "clamp")
	for i := 0; i < 100_000; i++ {
		r := Rect{MinX: s.Norm(0, 10), MinY: s.Norm(0, 10), MaxX: s.Norm(0, 10), MaxY: s.Norm(0, 10)}
		p := Point{X: s.Norm(0, 20), Y: s.Norm(0, 20)}
		if got, want := r.Clamp(p), ref(r, p); !same(got, want) {
			t.Fatalf("%v.Clamp(%v) = %v, want %v", r, p, got, want)
		}
	}
}

func TestGridCellOfAndCenter(t *testing.T) {
	g := NewUnitGrid(80, 80)
	c := g.CellOf(Pt(10.5, 20.5))
	if c != (Cell{10, 20}) {
		t.Errorf("CellOf=%v", c)
	}
	if got := g.CellCenter(c); got != Pt(10.5, 20.5) {
		t.Errorf("CellCenter=%v", got)
	}
	// Out-of-bounds points clamp.
	if c := g.CellOf(Pt(-3, 100)); c != (Cell{0, 79}) {
		t.Errorf("clamped CellOf=%v", c)
	}
	// Exact max corner clamps into last cell.
	if c := g.CellOf(Pt(80, 80)); c != (Cell{79, 79}) {
		t.Errorf("max corner CellOf=%v", c)
	}
}

func TestGridCellIndexRoundTrip(t *testing.T) {
	g := NewUnitGrid(7, 5)
	if g.NumCells() != 35 {
		t.Fatalf("NumCells=%d", g.NumCells())
	}
	for idx := 0; idx < g.NumCells(); idx++ {
		c := g.CellAt(idx)
		if c.J*g.Cols+c.I != idx {
			t.Fatalf("round trip failed at %d -> %v", idx, c)
		}
	}
}

func TestGridCellsIn(t *testing.T) {
	g := NewUnitGrid(10, 10)
	cells := g.CellsIn(NewRect(0, 0, 3, 2))
	if len(cells) != 6 {
		t.Fatalf("expected 6 cell centers, got %d: %v", len(cells), cells)
	}
	for _, c := range cells {
		if c.X > 3 || c.Y > 2 {
			t.Errorf("cell center %v outside query rect", c)
		}
	}
	// Whole-grid region returns all cells.
	if got := len(g.CellsIn(g.Bounds)); got != 100 {
		t.Errorf("full region cells = %d", got)
	}
	// Empty region.
	if got := len(g.CellsIn(NewRect(20, 20, 30, 30))); got != 0 {
		t.Errorf("out-of-grid region cells = %d", got)
	}
}

func TestCoverageFraction(t *testing.T) {
	g := NewUnitGrid(10, 10)
	region := NewRect(0, 0, 10, 10)
	// One sensor at the center with huge radius covers everything.
	if got := g.CoverageFraction(region, []Point{Pt(5, 5)}, 100); got != 1 {
		t.Errorf("full coverage = %v", got)
	}
	// No sensors covers nothing.
	if got := g.CoverageFraction(region, nil, 5); got != 0 {
		t.Errorf("empty coverage = %v", got)
	}
	// Radius 0.9 from a cell center covers exactly that cell center.
	if got := g.CoverageFraction(region, []Point{Pt(5.5, 5.5)}, 0.9); got != 0.01 {
		t.Errorf("single cell coverage = %v want 0.01", got)
	}
}

func TestCoverageFractionMonotoneProperty(t *testing.T) {
	// Adding a sensor never decreases coverage.
	g := NewUnitGrid(20, 20)
	region := NewRect(0, 0, 20, 20)
	f := func(x1, y1, x2, y2 uint8) bool {
		a := Pt(float64(x1%20), float64(y1%20))
		b := Pt(float64(x2%20), float64(y2%20))
		one := g.CoverageFraction(region, []Point{a}, 3)
		two := g.CoverageFraction(region, []Point{a, b}, 3)
		return two >= one
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrajectoryLengthAndSampling(t *testing.T) {
	tr := Trajectory{Waypoints: []Point{Pt(0, 0), Pt(3, 4), Pt(3, 10)}}
	if got := tr.Length(); !almostEq(got, 11, 1e-12) {
		t.Errorf("Length=%v want 11", got)
	}
	pts := tr.SamplePoints(1)
	if len(pts) < 11 {
		t.Fatalf("expected at least 11 sample points, got %d", len(pts))
	}
	if pts[0] != Pt(0, 0) {
		t.Errorf("first sample %v", pts[0])
	}
	if last := pts[len(pts)-1]; !almostEq(last.Dist(Pt(3, 10)), 0, 1e-9) {
		t.Errorf("last sample %v", last)
	}
	// Consecutive samples at most step apart (plus epsilon).
	for i := 1; i < len(pts); i++ {
		if d := pts[i-1].Dist(pts[i]); d > 1+1e-9 {
			t.Errorf("gap %v between consecutive samples", d)
		}
	}
}

func TestTrajectoryEmptyAndDegenerate(t *testing.T) {
	var empty Trajectory
	if empty.Length() != 0 {
		t.Error("empty trajectory length != 0")
	}
	if pts := empty.SamplePoints(1); pts != nil {
		t.Errorf("empty trajectory samples = %v", pts)
	}
	single := Trajectory{Waypoints: []Point{Pt(1, 1)}}
	if pts := single.SamplePoints(1); len(pts) != 1 || pts[0] != Pt(1, 1) {
		t.Errorf("single waypoint samples = %v", pts)
	}
	// Step <= 0 falls back to 1.
	two := Trajectory{Waypoints: []Point{Pt(0, 0), Pt(0, 2)}}
	if pts := two.SamplePoints(0); len(pts) != 3 {
		t.Errorf("step 0 fallback samples = %v", pts)
	}
}

func TestTrajectoryBoundingRect(t *testing.T) {
	tr := Trajectory{Waypoints: []Point{Pt(2, 8), Pt(-1, 3), Pt(5, 5)}}
	r := tr.BoundingRect()
	want := NewRect(-1, 3, 5, 8)
	if r != want {
		t.Errorf("BoundingRect=%v want %v", r, want)
	}
	if (Trajectory{}).BoundingRect() != (Rect{}) {
		t.Error("empty trajectory bounding rect should be zero")
	}
}
