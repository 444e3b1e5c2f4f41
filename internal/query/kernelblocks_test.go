package query

import (
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/rng"
)

// planMarginalsFresh is PlanMarginals computed on a fresh
// gp.NewKernelBlocks over the observations and the plan: the
// leave-one-out marginals the query's kept kernel blocks must reproduce.
func planMarginalsFresh(q *RegionMonitoring, plan []geo.Point, thetas []float64) []float64 {
	pts, ths := q.withPlan(nil, nil, plan, thetas)
	kb := q.Model.NewKernelBlocks(q.targets, pts)
	valueWithout := func(skip int) float64 {
		idx := []int{}
		var sum float64
		for i := range pts {
			if i != skip {
				idx = append(idx, i)
				sum += ths[i]
			}
		}
		if len(idx) == 0 {
			return 0
		}
		return q.B * q.fOn(kb, idx) * sum / float64(len(idx))
	}
	full := valueWithout(-1)
	if len(plan) == 1 {
		return []float64{full - q.ValueOf(q.ObsPoints, q.Thetas)}
	}
	out := make([]float64, len(plan))
	for i := range plan {
		out[i] = full - valueWithout(len(q.ObsPoints)+i)
	}
	return out
}

// TestKeptKernelBlocksMatchFresh: Value and PlanMarginals, which read the
// query's kept kernel blocks, give the floats a fresh
// gp.NewKernelBlocks over the same points gives, over a 10-slot window
// with observations recorded between slots and the window restarted
// once (ResetIfNeeded at the start slot drops the kept blocks).
func TestKeptKernelBlocksMatchFresh(t *testing.T) {
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	region := geo.NewRect(2, 2, 10, 8)
	q := NewRegionMonitoring("rm", region, 0, 9, 100, model, grid)
	s := rng.New(17, "kept-blocks")
	in := func() geo.Point {
		return geo.Pt(s.Uniform(region.MinX, region.MaxX), s.Uniform(region.MinY, region.MaxY))
	}
	for slot := 0; slot < 10; slot++ {
		start := slot
		if slot == 6 {
			start = q.Start // a new window: the reset drops every observation
		}
		q.ResetIfNeeded(start)
		if got, want := q.Value(), q.ValueOf(q.ObsPoints, q.Thetas); got != want {
			t.Fatalf("slot %d, %d observations: Value %v, fresh %v", slot, len(q.ObsPoints), got, want)
		}
		for n := 1; n <= 4; n++ {
			plan := make([]geo.Point, n)
			thetas := make([]float64, n)
			for i := range plan {
				plan[i], thetas[i] = in(), s.Uniform(0.5, 1)
			}
			if slot%3 == 1 && len(q.ObsPoints) > 0 {
				plan[0] = q.ObsPoints[0] // a plan point on an observed spot
			}
			got := q.PlanMarginals(plan, thetas, nil)
			want := planMarginalsFresh(q, plan, thetas)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("slot %d, %d observations, plan of %d: marginal %d = %v, fresh %v", slot, len(q.ObsPoints), n, i, got[i], want[i])
				}
			}
		}
		for k := 0; k < 1+slot%3; k++ {
			q.Record(in(), s.Uniform(0.5, 1), 1)
		}
	}
	if got, want := q.Value(), q.ValueOf(q.ObsPoints, q.Thetas); got != want {
		t.Fatalf("end of window: Value %v, fresh %v", got, want)
	}
}

// TestWarmRegionValueAllocations: once the query's kept kernel blocks
// and the shared solve buffers have grown, the Value recompute after a
// Record — which extends the blocks by the new observation and solves —
// allocates nothing.
func TestWarmRegionValueAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	region := geo.NewRect(2, 2, 10, 8)
	q := NewRegionMonitoring("rm", region, 0, 9, 100, model, grid)
	s := rng.New(19, "warm-value")
	in := func() geo.Point {
		return geo.Pt(s.Uniform(region.MinX, region.MaxX), s.Uniform(region.MinY, region.MaxY))
	}
	q.ResetIfNeeded(0)
	for k := 0; k < 12; k++ { // the first window grows every buffer
		q.Record(in(), 0.8, 1)
		q.Value()
	}
	q.ResetIfNeeded(0)
	// ReadMemStats stops and restarts the world, and a restart may start
	// an OS thread whose runtime objects land in the window; with one P
	// it has no idle P to start one for.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for k := 0; k < 12; k++ {
		q.Record(in(), 0.8, 1)
		runtime.ReadMemStats(&before)
		v := q.Value()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("observation %d: the Value recompute made %d allocations, want 0", k+1, n)
		}
		if v <= 0 {
			t.Fatalf("observation %d: Value %v", k+1, v)
		}
	}
}

// TestWarmWindowStartAllocations: a query that starts after another one
// was released takes the released query's kernel blocks, so its first
// window grows no kernel-block buffer — each Value recompute after a
// Record allocates nothing, from the first observation on.
func TestWarmWindowStartAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	region := geo.NewRect(2, 2, 10, 8)
	s := rng.New(23, "warm-window")
	in := func() geo.Point {
		return geo.Pt(s.Uniform(region.MinX, region.MaxX), s.Uniform(region.MinY, region.MaxY))
	}
	window := func(q *RegionMonitoring, measure bool) {
		q.ResetIfNeeded(q.Start)
		var before, after runtime.MemStats
		for k := 0; k < 12; k++ {
			q.Record(in(), 0.8, 1)
			runtime.ReadMemStats(&before)
			v := q.Value()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; measure && n != 0 {
				t.Errorf("observation %d of a warm window start: the Value recompute made %d allocations, want 0", k+1, n)
			}
			if v <= 0 {
				t.Fatalf("observation %d: Value %v", k+1, v)
			}
		}
	}
	first := NewRegionMonitoring("rm-1", region, 0, 9, 100, model, grid)
	window(first, false) // grows the blocks and the shared solve buffers
	first.Release()
	second := NewRegionMonitoring("rm-2", region, 10, 19, 100, model, grid)
	// One P for the measured window, as in TestWarmRegionValueAllocations.
	prev := runtime.GOMAXPROCS(1)
	window(second, true)
	runtime.GOMAXPROCS(prev)
	// A late recompute on the released query rebuilds its blocks and
	// leaves the buffers the second query took alone.
	for _, q := range []*RegionMonitoring{first, second, first} {
		q.Record(in(), 0.7, 1)
		if v, want := q.Value(), q.ValueOf(q.ObsPoints, q.Thetas); v != want {
			t.Errorf("%s after the release: Value %v, fresh blocks give %v", q.ID, v, want)
		}
	}
}

// TestWarmPlanMarginalsAllocations: once the query's kept kernel blocks,
// the plan scratch and the shared solve buffers have grown,
// PlanMarginals — which extends the blocks by the plan, runs the
// leave-one-out sweep and truncates them again — allocates nothing.
func TestWarmPlanMarginalsAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	grid := geo.NewUnitGrid(20, 15)
	model := gp.New(gp.SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	region := geo.NewRect(2, 2, 10, 8)
	q := NewRegionMonitoring("rm", region, 0, 9, 100, model, grid)
	s := rng.New(29, "warm-marginals")
	in := func() geo.Point {
		return geo.Pt(s.Uniform(region.MinX, region.MaxX), s.Uniform(region.MinY, region.MaxY))
	}
	plan := make([]geo.Point, 6)
	thetas := make([]float64, len(plan))
	var sc PlanScratch
	q.ResetIfNeeded(0)
	for k := 0; k < 12; k++ { // grows every buffer
		q.Record(in(), 0.8, 1)
		for i := range plan {
			plan[i], thetas[i] = in(), s.Uniform(0.5, 1)
		}
		q.PlanMarginals(plan, thetas, &sc)
	}
	q.ResetIfNeeded(0)
	// One P for the measured calls, as in TestWarmRegionValueAllocations.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for k := 0; k < 12; k++ {
		q.Record(in(), 0.8, 1)
		q.Value() // extends the kept blocks by the new observation
		for n := 1; n <= len(plan); n++ {
			for i := range plan[:n] {
				plan[i], thetas[i] = in(), s.Uniform(0.5, 1)
			}
			runtime.ReadMemStats(&before)
			m := q.PlanMarginals(plan[:n], thetas[:n], &sc)
			runtime.ReadMemStats(&after)
			if a := after.Mallocs - before.Mallocs; a != 0 {
				t.Errorf("observation %d, plan of %d: PlanMarginals made %d allocations, want 0", k+1, n, a)
			}
			if len(m) != n {
				t.Fatalf("observation %d, plan of %d: %d marginals", k+1, n, len(m))
			}
		}
	}
}
