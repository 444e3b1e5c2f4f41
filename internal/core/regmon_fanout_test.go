package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
	"repro/internal/gp"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

// regionPlanningFixture is the planning pass's benchmark shape: four
// active region queries on one GP model, two of them overlapping (so
// some sensors have k(s) = 2), each holding 16 accumulated observations
// with about six offers inside its region. The slot to plan is 1.
func regionPlanningFixture(model *gp.GP) ([]*query.RegionMonitoring, []Offer) {
	s := rng.New(11, "region-planning")
	grid := geo.NewUnitGrid(40, 20)
	regions := []geo.Rect{
		geo.NewRect(1, 1, 7, 7), geo.NewRect(4, 4, 10, 10), // overlapping
		geo.NewRect(21, 1, 27, 7), geo.NewRect(31, 11, 37, 17),
	}
	in := func(r geo.Rect) geo.Point { return geo.Pt(s.Uniform(r.MinX, r.MaxX), s.Uniform(r.MinY, r.MaxY)) }
	var qs []*query.RegionMonitoring
	var offers []Offer
	for i, r := range regions {
		q := query.NewRegionMonitoring(fmt.Sprintf("rm%d", i), r, 0, 20, 48, model, grid)
		q.ResetIfNeeded(0)
		for k := 0; k < 16; k++ {
			q.Record(in(r), s.Uniform(0.5, 1), 0.5)
		}
		qs = append(qs, q)
		for k := 0; k < 6; k++ {
			sn := sensornet.NewSensor(len(offers), in(r))
			offers = append(offers, Offer{Sensor: sn, Cost: s.Uniform(2, 8)})
		}
	}
	return qs, offers
}

// TestWarmRegionPlanningAllocations: once its arenas are warm, a planning
// pass allocates for what it returns — the slot's bookkeeping, each
// query's plan and each probe's point query with its ID — and nothing per
// leave-one-out subset, time-instant row, probe clone or kernel block.
// Measured: 49 allocations for 4 queries and 11 probes at GOMAXPROCS 1,
// 2 and 4 (688 before the planning arenas).
func TestWarmRegionPlanningAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	qs, offers := regionPlanningFixture(regModel())
	var probes int
	for i := 0; i < 20; i++ { // warm every arena the workers may take
		_, pts := PlanRegionMonitoring(1, qs, offers, WeightEq18)
		probes = len(pts)
	}
	if probes < len(qs) {
		t.Fatalf("fixture: only %d probes for %d queries", probes, len(qs))
	}
	allocs := testing.AllocsPerRun(20, func() {
		PlanRegionMonitoring(1, qs, offers, WeightEq18)
	})
	limit := 12 + 3*len(qs) + 3*probes
	t.Logf("%.0f allocations per planning pass over %d queries and %d probes (limit %d)", allocs, len(qs), probes, limit)
	if allocs > float64(limit) {
		t.Errorf("%.0f allocations per planning pass, limit %d", allocs, limit)
	}
}

// goroutineKernel is a kernel that records the most goroutines it saw
// running while it was evaluated.
type goroutineKernel struct {
	gp.Kernel
	most *atomic.Int64
}

func (k goroutineKernel) Cov(p, q geo.Point) float64 {
	for n := int64(runtime.NumGoroutine()); ; {
		m := k.most.Load()
		if n <= m || k.most.CompareAndSwap(m, n) {
			break
		}
	}
	return k.Kernel.Cov(p, q)
}

// TestRegionPlanningFanOut: at GOMAXPROCS 1 the planning pass runs every
// query on the calling goroutine; above it, it starts workers. Either
// way it returns the same probes with the same values.
func TestRegionPlanningFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []*query.Point
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var most atomic.Int64
		model := regModel()
		model.Kernel = goroutineKernel{Kernel: model.Kernel, most: &most}
		qs, offers := regionPlanningFixture(model)
		before := int64(runtime.NumGoroutine())
		_, pts := PlanRegionMonitoring(1, qs, offers, WeightEq18)
		switch started := most.Load() - before; {
		case procs == 1 && started != 0:
			t.Errorf("GOMAXPROCS 1: %d more goroutines ran during planning, want none", started)
		case procs > 1 && started <= 0:
			t.Errorf("GOMAXPROCS %d: planning started no worker", procs)
		}
		if want == nil {
			want = pts
			continue
		}
		if len(pts) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d probes, want %d", procs, len(pts), len(want))
		}
		for i := range pts {
			if pts[i].QID() != want[i].QID() || pts[i].B != want[i].B {
				t.Errorf("GOMAXPROCS %d: probe %d is %s worth %v, want %s worth %v", procs, i, pts[i].QID(), pts[i].B, want[i].QID(), want[i].B)
			}
		}
	}
}

// BenchmarkRegionPlanning times one warm planning pass over
// regionPlanningFixture; run it with -cpu 1,2 to see the fan-out.
func BenchmarkRegionPlanning(b *testing.B) {
	qs, offers := regionPlanningFixture(regModel())
	PlanRegionMonitoring(1, qs, offers, WeightEq18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PlanRegionMonitoring(1, qs, offers, WeightEq18)
	}
}
