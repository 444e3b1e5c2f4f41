package geo

import (
	"slices"
	"testing"
)

func TestGridPartitionFactorization(t *testing.T) {
	cases := []struct {
		bounds     Rect
		shards     int
		cols, rows int
	}{
		{NewRect(0, 0, 50, 50), 4, 2, 2},
		{NewRect(0, 0, 50, 50), 1, 1, 1},
		{NewRect(0, 0, 50, 50), 0, 1, 1},
		{NewRect(0, 0, 100, 25), 4, 4, 1}, // wide region: split along x
		{NewRect(0, 0, 25, 100), 4, 1, 4}, // tall region: split along y
		{NewRect(0, 0, 60, 40), 6, 3, 2},
		{NewRect(0, 0, 50, 50), 3, 1, 3}, // prime: a strip partition
	}
	for _, c := range cases {
		p := NewGridPartition(c.bounds, c.shards)
		want := c.shards
		if want < 1 {
			want = 1
		}
		if p.NumShards() != want {
			t.Errorf("NewGridPartition(%v, %d): %d shards, want %d", c.bounds, c.shards, p.NumShards(), want)
		}
		if p.Cols != c.cols || p.Rows != c.rows {
			t.Errorf("NewGridPartition(%v, %d) = %dx%d, want %dx%d",
				c.bounds, c.shards, p.Cols, p.Rows, c.cols, c.rows)
		}
	}
}

func TestGridPartitionShardOfCoversBounds(t *testing.T) {
	p := NewGridPartition(NewRect(10, 10, 60, 60), 4)
	for _, tc := range []struct {
		pt   Point
		want int
	}{
		{Pt(11, 11), 0},
		{Pt(59, 11), 1},
		{Pt(11, 59), 2},
		{Pt(59, 59), 3},
		{Pt(35, 35), 3}, // exactly on both midlines: floors into the upper-right shard
		{Pt(0, 0), 0},   // outside: clamped to the nearest shard
		{Pt(99, 99), 3}, // outside: clamped
		{Pt(60, 60), 3}, // on the max corner: clamped into the last shard
		{Pt(35, 20), 1}, // on the vertical midline
		{Pt(20, 35), 2}, // on the horizontal midline
	} {
		if got := p.ShardOf(tc.pt); got != tc.want {
			t.Errorf("ShardOf(%v) = %d, want %d", tc.pt, got, tc.want)
		}
	}
	// Every point's shard rectangle (25x25, row-major) must contain it.
	for x := 10.0; x <= 60; x += 3.7 {
		for y := 10.0; y <= 60; y += 3.7 {
			k := p.ShardOf(Pt(x, y))
			i, j := float64(k%2), float64(k/2)
			if b := NewRect(10+25*i, 10+25*j, 35+25*i, 35+25*j); !b.Contains(Pt(x, y)) {
				t.Fatalf("shard %d's rectangle %v does not contain (%v,%v)", k, b, x, y)
			}
		}
	}
}

func TestGridPartitionShardsOf(t *testing.T) {
	p := NewGridPartition(NewRect(0, 0, 40, 40), 4) // 2x2, midlines at 20
	for _, tc := range []struct {
		r    Rect
		want []int
	}{
		{NewRect(1, 1, 10, 10), []int{0}},
		{NewRect(25, 25, 30, 30), []int{3}},
		{NewRect(5, 5, 25, 10), []int{0, 1}},
		{NewRect(5, 5, 35, 35), []int{0, 1, 2, 3}},
		// Footprint edge exactly on the midline: the far shard is included,
		// because a sensor at x=20 belongs to shard 1 but can be relevant.
		{NewRect(5, 5, 20, 10), []int{0, 1}},
		{NewRect(20, 5, 25, 10), []int{1}},
		// Degenerate (point) footprint on the corner of all four shards.
		{NewRect(20, 20, 20, 20), []int{3}},
		// Outside the bounds: clamped to the nearest shard.
		{NewRect(-10, -10, -5, -5), []int{0}},
	} {
		if got := p.ShardsOf(tc.r); !slices.Equal(got, tc.want) {
			t.Errorf("ShardsOf(%v) = %v, want %v", tc.r, got, tc.want)
		}
		prefix := []int{-1}
		if got := p.AppendShardsOf(prefix, tc.r); !slices.Equal(got, append(prefix, tc.want...)) {
			t.Errorf("AppendShardsOf([-1], %v) = %v, want -1 then %v", tc.r, got, tc.want)
		}
	}
}

// TestAppendShardsOfAllocations: routing into a buffer with room
// allocates nothing, however many shards the footprint spans.
func TestAppendShardsOfAllocations(t *testing.T) {
	p := NewGridPartition(NewRect(0, 0, 40, 40), 16)
	buf := make([]int, 0, p.NumShards())
	for _, r := range []Rect{NewRect(1, 1, 2, 2), NewRect(5, 5, 35, 35)} {
		if a := testing.AllocsPerRun(100, func() { buf = p.AppendShardsOf(buf[:0], r) }); a != 0 {
			t.Errorf("AppendShardsOf(%v) allocates %.0f times", r, a)
		}
	}
}
