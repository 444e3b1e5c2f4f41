// Package geo provides the planar geometry primitives used throughout the
// participatory-sensing simulator: points, rectangles, grids, trajectories
// and disk-coverage computations.
//
// The paper's worlds are grid-discretized planes (e.g. the 80x80 RWM region
// with a 50x50 working subregion, or the 237x300 RNC region). All
// coordinates are float64 so that sensors can move continuously, while
// regions and coverage are evaluated on integer grid cells.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons against a squared radius.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY], inclusive of
// its minimum edge and exclusive of its maximum edge for cell purposes, but
// Contains treats it as closed so boundary sensors count.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect builds a rectangle from two opposite corners in any order.
func NewRect(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// Contains reports whether p lies inside r (closed on all edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

// Intersect returns the intersection of r and o and whether it is non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	out := Rect{
		MinX: math.Max(r.MinX, o.MinX),
		MinY: math.Max(r.MinY, o.MinY),
		MaxX: math.Min(r.MaxX, o.MaxX),
		MaxY: math.Min(r.MaxY, o.MaxY),
	}
	if out.MinX > out.MaxX || out.MinY > out.MaxY {
		return Rect{}, false
	}
	return out, true
}

// Clamp returns p moved to the closest point inside r. The builtins
// inline where math.Min and math.Max do not. On NaN-free input they
// return the same bits, ±0 and ±Inf included; a NaN coordinate or bound
// always yields NaN, where math.Max(NaN, +Inf) would have been +Inf.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: min(max(p.X, r.MinX), r.MaxX),
		Y: min(max(p.Y, r.MinY), r.MaxY),
	}
}

// DistToPoint returns the distance from the rectangle to p (0 if inside).
func (r Rect) DistToPoint(p Point) float64 {
	return p.Dist(r.Clamp(p))
}

// Expand returns r grown by d on every side, so that
// r.DistToPoint(p) <= d implies r.Expand(d).Contains(p). Negative d
// shrinks the rectangle (and may invert it).
func (r Rect) Expand(d float64) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.1f,%.1f]x[%.1f,%.1f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Cell is an integer grid cell index.
type Cell struct {
	I, J int
}

// Grid discretizes a rectangle into unit-square-like cells. Cols x Rows
// cells cover Bounds; each cell has size Bounds.Width()/Cols by
// Bounds.Height()/Rows. The paper's grids are unit cells (e.g. 80x80 cells
// over an 80x80 region), which corresponds to Cols=80, Rows=80.
type Grid struct {
	Bounds Rect
	Cols   int
	Rows   int
}

// NewUnitGrid builds a grid of 1x1 cells over [0,cols]x[0,rows].
func NewUnitGrid(cols, rows int) Grid {
	return Grid{Bounds: NewRect(0, 0, float64(cols), float64(rows)), Cols: cols, Rows: rows}
}

// CellSize returns the width and height of one cell.
func (g Grid) CellSize() (w, h float64) {
	return g.Bounds.Width() / float64(g.Cols), g.Bounds.Height() / float64(g.Rows)
}

// CellOf returns the cell containing p, clamped to the grid.
func (g Grid) CellOf(p Point) Cell {
	w, h := g.CellSize()
	i := int(math.Floor((p.X - g.Bounds.MinX) / w))
	j := int(math.Floor((p.Y - g.Bounds.MinY) / h))
	if i < 0 {
		i = 0
	}
	if i >= g.Cols {
		i = g.Cols - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= g.Rows {
		j = g.Rows - 1
	}
	return Cell{I: i, J: j}
}

// CellCenter returns the center point of cell c.
func (g Grid) CellCenter(c Cell) Point {
	w, h := g.CellSize()
	return Point{
		X: g.Bounds.MinX + (float64(c.I)+0.5)*w,
		Y: g.Bounds.MinY + (float64(c.J)+0.5)*h,
	}
}

// NumCells returns the total number of cells.
func (g Grid) NumCells() int { return g.Cols * g.Rows }

// CellAt returns the cell at dense row-major index idx = J*Cols + I.
func (g Grid) CellAt(idx int) Cell { return Cell{I: idx % g.Cols, J: idx / g.Cols} }

// CellsIn returns the centers of all cells whose center lies inside r.
func (g Grid) CellsIn(r Rect) []Point {
	cells, _ := g.CellBlock(r)
	return cells
}

// CellBlock returns CellsIn(r) together with its row length. Contains is
// separable in x and y, so the cells form a rectangular block of the
// grid, listed row-major: cells[j*cols : (j+1)*cols] share one y, rows
// ascend in y and columns ascend in x. cols is 0 when no cell qualifies.
func (g Grid) CellBlock(r Rect) (cells []Point, cols int) {
	w, h := g.CellSize()
	i0 := int(math.Floor((r.MinX - g.Bounds.MinX) / w))
	i1 := int(math.Ceil((r.MaxX - g.Bounds.MinX) / w))
	j0 := int(math.Floor((r.MinY - g.Bounds.MinY) / h))
	j1 := int(math.Ceil((r.MaxY - g.Bounds.MinY) / h))
	if i0 < 0 {
		i0 = 0
	}
	if j0 < 0 {
		j0 = 0
	}
	if i1 > g.Cols {
		i1 = g.Cols
	}
	if j1 > g.Rows {
		j1 = g.Rows
	}
	if i0 >= i1 || j0 >= j1 {
		return nil, 0
	}
	cells = make([]Point, 0, (i1-i0)*(j1-j0))
	for j := j0; j < j1; j++ {
		row := len(cells)
		for i := i0; i < i1; i++ {
			c := g.CellCenter(Cell{I: i, J: j})
			if r.Contains(c) {
				cells = append(cells, c)
			}
		}
		if n := len(cells) - row; n > 0 {
			cols = n
		}
	}
	return cells, cols
}

// CoverageFraction returns the fraction of cells (the grid-cell centers
// of a region, Grid.CellsIn) that are within radius of at least one of
// the given centers. It is the coverage function G_q used by the
// spatial-aggregate valuation (Eq. 5): a simple coverage that
// "calculates the fraction of the area covered by the sensors".
func CoverageFraction(cells, centers []Point, radius float64) float64 {
	if len(cells) == 0 {
		return 0
	}
	r2 := radius * radius
	covered := 0
	for _, c := range cells {
		for _, s := range centers {
			if c.Dist2(s) <= r2 {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(cells))
}

// Trajectory is an ordered sequence of waypoints. Queries over trajectories
// (§2.2.3) treat the trajectory as a sequence of sample points; a trajectory
// query is "a special case of spatial aggregate query in which instead of
// providing a region of interest, a trajectory is specified".
type Trajectory struct {
	Waypoints []Point
}

// Length returns the total polyline length.
func (t Trajectory) Length() float64 {
	var sum float64
	for i := 1; i < len(t.Waypoints); i++ {
		sum += t.Waypoints[i-1].Dist(t.Waypoints[i])
	}
	return sum
}

// SamplePoints returns points spaced at most step apart along the
// trajectory, always including the first and last waypoint.
func (t Trajectory) SamplePoints(step float64) []Point {
	if len(t.Waypoints) == 0 {
		return nil
	}
	if step <= 0 {
		step = 1
	}
	out := []Point{t.Waypoints[0]}
	for i := 1; i < len(t.Waypoints); i++ {
		a, b := t.Waypoints[i-1], t.Waypoints[i]
		d := a.Dist(b)
		n := int(math.Ceil(d / step))
		for k := 1; k <= n; k++ {
			f := float64(k) / float64(n)
			out = append(out, Point{a.X + (b.X-a.X)*f, a.Y + (b.Y-a.Y)*f})
		}
	}
	return out
}

// BoundingRect returns the smallest rectangle containing all waypoints.
func (t Trajectory) BoundingRect() Rect {
	if len(t.Waypoints) == 0 {
		return Rect{}
	}
	r := Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, p := range t.Waypoints {
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r
}
