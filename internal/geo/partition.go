package geo

import (
	"math"
	"slices"
)

// GridPartition splits a rectangle into Cols x Rows equally sized
// geographic shards, numbered row-major from the minimum corner. It is the
// routing structure of the sharded execution layer: sensors belong to the
// shard containing their position, and a query is resident in a shard when
// its relevance footprint (query region or location expanded by the
// sensing range) lies inside that shard's rectangle.
type GridPartition struct {
	Bounds Rect
	Cols   int
	Rows   int
}

// NewGridPartition builds a partition of bounds into exactly `shards`
// rectangles. The factorization cols x rows = shards is chosen so the
// shard aspect ratio tracks the bounds' aspect ratio (a 2:1 region split
// into 4 shards becomes 4x1 rather than 2x2 only when that keeps shards
// squarer). shards < 1 is treated as 1.
func NewGridPartition(bounds Rect, shards int) GridPartition {
	if shards < 1 {
		shards = 1
	}
	aspect := 1.0
	if bounds.Height() > 0 {
		aspect = bounds.Width() / bounds.Height()
	}
	bestCols, bestScore := 1, math.Inf(1)
	for cols := 1; cols <= shards; cols++ {
		if shards%cols != 0 {
			continue
		}
		rows := shards / cols
		// Squareness score: how far one shard's aspect is from 1.
		shardAspect := aspect * float64(rows) / float64(cols)
		score := math.Abs(math.Log(shardAspect))
		if score < bestScore {
			bestScore, bestCols = score, cols
		}
	}
	return GridPartition{Bounds: bounds, Cols: bestCols, Rows: shards / bestCols}
}

// NumShards returns the total shard count.
func (p GridPartition) NumShards() int { return p.Cols * p.Rows }

// shardSize returns one shard's width and height.
func (p GridPartition) shardSize() (w, h float64) {
	return p.Bounds.Width() / float64(p.Cols), p.Bounds.Height() / float64(p.Rows)
}

// ShardOf returns the shard containing pt, clamped to the partition (a
// point outside the bounds belongs to the nearest edge shard, mirroring
// Grid.CellOf).
func (p GridPartition) ShardOf(pt Point) int {
	w, h := p.shardSize()
	i := clampIdx(int(math.Floor((pt.X-p.Bounds.MinX)/w)), p.Cols)
	j := clampIdx(int(math.Floor((pt.Y-p.Bounds.MinY)/h)), p.Rows)
	return j*p.Cols + i
}

// ShardBounds returns shard k's rectangle.
func (p GridPartition) ShardBounds(k int) Rect {
	w, h := p.shardSize()
	i, j := k%p.Cols, k/p.Cols
	return Rect{
		MinX: p.Bounds.MinX + float64(i)*w,
		MinY: p.Bounds.MinY + float64(j)*h,
		MaxX: p.Bounds.MinX + float64(i+1)*w,
		MaxY: p.Bounds.MinY + float64(j+1)*h,
	}
}

// ShardsOf returns, in ascending order, every shard whose closed rectangle
// intersects r. The intersection is closed on shard boundaries: a
// footprint whose edge lands exactly on a shard border includes the shard
// on the far side, because a sensor sitting exactly on the border belongs
// to that far shard (ShardOf floors) yet can still be relevant to a query
// whose closed footprint touches the border.
func (p GridPartition) ShardsOf(r Rect) []int { return p.AppendShardsOf(nil, r) }

// AppendShardsOf appends ShardsOf(r) to dst and returns the extended
// slice; a router that reuses dst routes without allocating.
func (p GridPartition) AppendShardsOf(dst []int, r Rect) []int {
	w, h := p.shardSize()
	i0 := clampIdx(int(math.Floor((r.MinX-p.Bounds.MinX)/w)), p.Cols)
	i1 := clampIdx(int(math.Floor((r.MaxX-p.Bounds.MinX)/w)), p.Cols)
	j0 := clampIdx(int(math.Floor((r.MinY-p.Bounds.MinY)/h)), p.Rows)
	j1 := clampIdx(int(math.Floor((r.MaxY-p.Bounds.MinY)/h)), p.Rows)
	dst = slices.Grow(dst, (i1-i0+1)*(j1-j0+1))
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			dst = append(dst, j*p.Cols+i)
		}
	}
	return dst
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
