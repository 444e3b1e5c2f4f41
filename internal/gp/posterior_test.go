package gp

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// TestPosteriorMatchesDirect verifies the incremental tracker against the
// direct Cholesky computation in PosteriorVariances.
func TestPosteriorMatchesDirect(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 3, Length: 2.5}, 0.05)
	grid := geo.NewUnitGrid(8, 8)
	targets := grid.CellsIn(geo.NewRect(0, 0, 8, 8))
	s := rng.New(42, "posterior")

	p := g.NewPosterior(targets)
	var obs []geo.Point
	for step := 0; step < 8; step++ {
		pt := geo.Pt(s.Uniform(0, 8), s.Uniform(0, 8))
		p.Add(pt)
		obs = append(obs, pt)

		direct, err := g.PosteriorVariances(targets, obs)
		if err != nil {
			t.Fatal(err)
		}
		var directTotal float64
		for i, d := range direct {
			directTotal += g.Kernel.Var(targets[i]) - d
		}
		if math.Abs(directTotal-p.TotalReduction()) > 1e-6 {
			t.Fatalf("step %d: incremental %v != direct %v", step, p.TotalReduction(), directTotal)
		}
	}
}

// TestMarginalReductionMatchesAdd: the marginal promised before Add must
// equal the realized change in TotalReduction.
func TestMarginalReductionMatchesAdd(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 2, Length: 3}, 0.1)
	targets := geo.NewUnitGrid(6, 6).CellsIn(geo.NewRect(0, 0, 6, 6))
	s := rng.New(7, "marginal")
	p := g.NewPosterior(targets)
	for step := 0; step < 10; step++ {
		pt := geo.Pt(s.Uniform(0, 6), s.Uniform(0, 6))
		promised := p.MarginalReduction(pt)
		before := p.TotalReduction()
		p.Add(pt)
		realized := p.TotalReduction() - before
		if math.Abs(promised-realized) > 1e-6 {
			t.Fatalf("step %d: promised %v realized %v", step, promised, realized)
		}
	}
}

func TestPosteriorDuplicateObservationIsNoop(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 1, Length: 2}, 1e-9)
	targets := geo.NewUnitGrid(4, 4).CellsIn(geo.NewRect(0, 0, 4, 4))
	p := g.NewPosterior(targets)
	pt := geo.Pt(2, 2)
	p.Add(pt)
	before := p.TotalReduction()
	nBefore := len(p.obs)
	// Adding the same point with negligible noise is numerically redundant.
	p.Add(pt)
	if len(p.obs) > nBefore+1 {
		t.Errorf("obs count grew unexpectedly: %d", len(p.obs))
	}
	after := p.TotalReduction()
	if after < before-1e-9 {
		t.Errorf("duplicate add decreased reduction: %v -> %v", before, after)
	}
	if m := p.MarginalReduction(pt); m > 1e-6 {
		t.Errorf("duplicate marginal = %v want ~0", m)
	}
}

func TestPosteriorCloneIndependent(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 1, Length: 2}, 0.05)
	targets := geo.NewUnitGrid(5, 5).CellsIn(geo.NewRect(0, 0, 5, 5))
	p := g.NewPosterior(targets)
	p.Add(geo.Pt(1, 1))
	c := p.Clone()
	c.Add(geo.Pt(3, 3))
	if len(p.obs) != 1 || len(c.obs) != 2 {
		t.Fatalf("obs counts: p=%d c=%d", len(p.obs), len(c.obs))
	}
	if c.TotalReduction() <= p.TotalReduction() {
		t.Error("clone with extra obs should have larger reduction")
	}
	// Original still consistent with direct computation.
	direct, _ := g.PosteriorVariances(targets, []geo.Point{geo.Pt(1, 1)})
	var want float64
	for i, d := range direct {
		want += g.Kernel.Var(targets[i]) - d
	}
	if math.Abs(p.TotalReduction()-want) > 1e-6 {
		t.Error("clone mutated original")
	}
}

func TestPosteriorTotalPrior(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 2, Length: 1}, 0.1)
	targets := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1), geo.Pt(2, 2)}
	p := g.NewPosterior(targets)
	var prior float64
	for _, v := range p.prior {
		prior += v
	}
	if math.Abs(prior-6) > 1e-12 {
		t.Errorf("total prior=%v want 6", prior)
	}
	if p.TotalReduction() != 0 {
		t.Error("no-observation reduction must be 0")
	}
}

func BenchmarkPosteriorMarginal(b *testing.B) {
	g := New(SquaredExponential{Sigma2: 2, Length: 3}, 0.05)
	targets := geo.NewUnitGrid(10, 8).CellsIn(geo.NewRect(0, 0, 10, 8))
	p := g.NewPosterior(targets)
	s := rng.New(3, "bench")
	for i := 0; i < 10; i++ {
		p.Add(geo.Pt(s.Uniform(0, 10), s.Uniform(0, 8)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MarginalReduction(geo.Pt(5, 4))
	}
}

// TestPosteriorAppendMatchesReplayBitForBit: a long-lived tracker that
// had observations appended one at a time is indistinguishable — exact
// float equality, not tolerance — from a fresh tracker replaying the
// same observation sequence. This is the contract the region-monitoring
// base-posterior cache depends on: counting an Add as a rank-1
// "append" (PosteriorAppends) versus replaying the whole sequence after
// a rebuild (PosteriorRebuilds) must never change a marginal, so the
// lazy-greedy strategy-equivalence guarantee survives the cache.
func TestPosteriorAppendMatchesReplayBitForBit(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 2.5, Length: 1.8}, 0.05)
	targets := geo.NewUnitGrid(7, 7).CellsIn(geo.NewRect(0, 0, 7, 7))
	s := rng.New(99, "append-vs-replay")

	incr := g.NewPosterior(targets)
	var obs []geo.Point
	for step := 0; step < 12; step++ {
		pt := geo.Pt(s.Uniform(0, 7), s.Uniform(0, 7))
		incr.Add(pt)
		obs = append(obs, pt)

		scratch := g.NewPosterior(targets)
		for _, o := range obs {
			scratch.Add(o)
		}
		if got, want := incr.TotalReduction(), scratch.TotalReduction(); got != want {
			t.Fatalf("step %d: appended TotalReduction %v != replayed %v", step, got, want)
		}
		probe := geo.Pt(s.Uniform(0, 7), s.Uniform(0, 7))
		if got, want := incr.MarginalReduction(probe), scratch.MarginalReduction(probe); got != want {
			t.Fatalf("step %d: appended MarginalReduction %v != replayed %v", step, got, want)
		}
		if incr.Degraded() != scratch.Degraded() {
			t.Fatalf("step %d: degraded flag diverged: %v vs %v", step, incr.Degraded(), scratch.Degraded())
		}
	}
}

// TestPosteriorDegradedFallback documents the numerical escape hatch:
// near-duplicate observations drive the residual variance toward zero,
// which latches Degraded. The tracker's answers up to that point still
// match a from-scratch replay exactly (same arithmetic), so consumers
// may finish the batch before rebuilding; the flag only warns that
// *further* appends amplify rounding.
func TestPosteriorDegradedFallback(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 1, Length: 2}, 1e-12)
	targets := geo.NewUnitGrid(4, 4).CellsIn(geo.NewRect(0, 0, 4, 4))
	p := g.NewPosterior(targets)
	p.Add(geo.Pt(1.5, 1.5))
	if p.Degraded() {
		t.Fatal("fresh tracker already degraded")
	}
	// A second observation at (almost) the same spot leaves ~zero residual
	// variance after conditioning on the first.
	p.Add(geo.Pt(1.5+1e-9, 1.5))
	if !p.Degraded() {
		t.Fatal("near-duplicate observation did not latch Degraded")
	}
	scratch := g.NewPosterior(targets)
	scratch.Add(geo.Pt(1.5, 1.5))
	scratch.Add(geo.Pt(1.5+1e-9, 1.5))
	if p.TotalReduction() != scratch.TotalReduction() {
		t.Fatalf("degraded tracker diverged from replay: %v vs %v",
			p.TotalReduction(), scratch.TotalReduction())
	}
	if !p.Clone().Degraded() {
		t.Fatal("Clone dropped the degraded latch")
	}
}

// snapshot deep-copies everything an Add writes, so a later comparison
// sees any write through a shared row.
type snapshot struct {
	obs     []geo.Point
	postVar []float64
	l, w    [][]float64
}

func snap(p *Posterior) snapshot {
	s := snapshot{obs: slices.Clone(p.obs), postVar: slices.Clone(p.postVar)}
	for i := range p.l {
		s.l = append(s.l, slices.Clone(p.l[i]))
		s.w = append(s.w, slices.Clone(p.w[i]))
	}
	return s
}

func (s snapshot) equal(o snapshot) bool {
	eq := func(a, b [][]float64) bool {
		return slices.EqualFunc(a, b, func(x, y []float64) bool { return slices.Equal(x, y) })
	}
	return slices.Equal(s.obs, o.obs) && slices.Equal(s.postVar, o.postVar) && eq(s.l, o.l) && eq(s.w, o.w)
}

// TestProbeMatchesMarginalReductionBitForBit: a probe extended one
// observation at a time reports, after every step, exactly the float a
// from-scratch MarginalReduction computes — whether the probe has followed
// the tracker from the start, joined midway, or was cloned onto a diverging
// tracker — and AddProbe leaves the tracker exactly as Add would. The
// sequences include what the planner can meet: an observation on an
// already observed spot (with negligible noise its residual variance is
// zero and Add absorbs it as a no-op) and a near-duplicate that latches
// Degraded.
func TestProbeMatchesMarginalReductionBitForBit(t *testing.T) {
	targets := geo.NewUnitGrid(7, 7).CellsIn(geo.NewRect(0, 0, 7, 7))
	var noops, degraded, checks int
	for _, g := range []*GP{
		New(SquaredExponential{Sigma2: 2.5, Length: 1.8}, 0.05),
		New(Exponential{Sigma2: 1.5, Length: 2.5}, 0.2),
		{Kernel: SquaredExponential{Sigma2: 1, Length: 2}},               // noise-free: a duplicate is an exact no-op
		{Kernel: SquaredExponential{Sigma2: 1, Length: 2}, Noise: 1e-11}, // a duplicate leaves d ~ 2e-11: a Degraded row
	} {
		for seed := int64(1); seed <= 8; seed++ {
			s := rng.New(seed, "probe-vs-marginal")
			pt := func() geo.Point { return geo.Pt(s.Uniform(0, 7), s.Uniform(0, 7)) }
			p, ref := g.NewPosterior(targets), g.NewPosterior(targets)
			var probes []Probe
			for i := 0; i < 6; i++ {
				probes = append(probes, p.NewProbe(pt()))
			}
			var branch *Posterior // cloned from p midway, then fed its own observations
			var branchProbes []Probe
			for step := 0; step < 14; step++ {
				next := pt()
				switch {
				case step == 5 || step == 9:
					next = p.obs[s.Intn(len(p.obs))] // an observed spot again
				case step == 7:
					next = geo.Pt(p.obs[0].X+1e-9, p.obs[0].Y) // nearly one
				case step%3 == 2:
					next = probes[s.Intn(len(probes))].s // a followed candidate itself
				}
				before := len(p.obs)
				ref.Add(next)
				if step%2 == 0 {
					p.Add(next)
				} else {
					pr := p.NewProbe(next)
					p.AddProbe(&pr)
				}
				if len(p.obs) == before {
					noops++
				}
				if !snap(p).equal(snap(ref)) || p.Degraded() != ref.Degraded() {
					t.Fatalf("seed %d step %d: AddProbe and Add left different trackers", seed, step)
				}
				if step == 4 {
					probes = append(probes, p.NewProbe(pt())) // joins midway
				}
				if step == 6 {
					branch = p.Clone()
					for i := range probes {
						branchProbes = append(branchProbes, probes[i].Clone())
					}
				}
				for i := range probes {
					pr := &probes[i]
					p.Extend(pr)
					if got, want := pr.Reduction(), p.MarginalReduction(pr.s); got != want {
						t.Fatalf("seed %d step %d probe %d: Reduction %v != MarginalReduction %v", seed, step, i, got, want)
					}
					checks++
				}
				if branch != nil && step > 6 {
					branch.AddProbe(&branchProbes[step%len(branchProbes)])
					for i := range branchProbes {
						pr := &branchProbes[i]
						branch.Extend(pr)
						if got, want := pr.Reduction(), branch.MarginalReduction(pr.s); got != want {
							t.Fatalf("seed %d step %d branch probe %d: Reduction %v != MarginalReduction %v", seed, step, i, got, want)
						}
						checks++
					}
				}
			}
			if p.Degraded() {
				degraded++
			}
		}
	}
	if noops == 0 || degraded == 0 || checks < 1000 {
		t.Fatalf("generator too tame: %d no-op adds, %d degraded sequences, %d comparisons", noops, degraded, checks)
	}
}

// TestCloneSharesRowsWithoutAliasingWrites: clones share the factor rows
// they were cloned with, and an Add on the base or on any clone leaves
// every other tracker bit-unchanged. The clones add concurrently, so the
// race detector sees any write into a shared backing array.
func TestCloneSharesRowsWithoutAliasingWrites(t *testing.T) {
	g := New(SquaredExponential{Sigma2: 2, Length: 2}, 0.1)
	targets := geo.NewUnitGrid(6, 6).CellsIn(geo.NewRect(0, 0, 6, 6))
	s := rng.New(5, "clone-aliasing")
	pt := func() geo.Point { return geo.Pt(s.Uniform(0, 6), s.Uniform(0, 6)) }
	base := g.NewPosterior(targets)
	// Seven rows leave the base's row lists with spare capacity, the case
	// where an uncapped clone would append into the base's array.
	for i := 0; i < 7; i++ {
		base.Add(pt())
	}
	if cap(base.l) == len(base.l) {
		t.Fatal("fixture: base row list has no spare capacity")
	}
	baseWas := snap(base)
	clones := []*Posterior{base.Clone(), base.Clone(), base.Clone()}
	if &clones[0].l[0][0] != &base.l[0][0] || &clones[1].w[6][0] != &base.w[6][0] {
		t.Fatal("clone copied the factor rows instead of sharing them")
	}
	adds := [][]geo.Point{{pt(), pt(), pt()}, {pt()}, nil}
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, a := range adds[i] {
				c.Add(a)
			}
		}()
	}
	wg.Wait()
	if !snap(base).equal(baseWas) || len(base.obs) != 7 {
		t.Fatal("Add on a clone changed the base")
	}
	for i, c := range clones {
		want := g.NewPosterior(targets)
		for _, o := range append(slices.Clone(baseWas.obs), adds[i]...) {
			want.Add(o)
		}
		if !snap(c).equal(snap(want)) || len(c.obs) != 7+len(adds[i]) {
			t.Fatalf("clone %d is not the replay of its own observations: a sibling's Add reached it", i)
		}
	}
	// And the other way: the base growing leaves its clones alone.
	clonesWere := []snapshot{snap(clones[0]), snap(clones[1]), snap(clones[2])}
	base.Add(pt())
	for i, c := range clones {
		if !snap(c).equal(clonesWere[i]) {
			t.Fatalf("Add on the base changed clone %d", i)
		}
	}
}

// benchTracker is a tracker with m observations over an 8x6 region.
func benchTracker(m int) (*Posterior, *rng.Stream) {
	g := New(SquaredExponential{Sigma2: 4, Length: 3}, 0.1)
	p := g.NewPosterior(geo.NewUnitGrid(8, 6).CellsIn(geo.NewRect(0, 0, 8, 6)))
	s := rng.New(3, "bench")
	for i := 0; i < m; i++ {
		p.Add(geo.Pt(s.Uniform(0, 8), s.Uniform(0, 6)))
	}
	return p, s
}

func BenchmarkPosteriorClone(b *testing.B) {
	p, _ := benchTracker(48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Clone()
	}
}

// BenchmarkProbeExtend times keeping one candidate's marginal current
// across one new observation at m = 48, against solving it from scratch.
func BenchmarkProbeExtend(b *testing.B) {
	p, s := benchTracker(48)
	cand := geo.Pt(s.Uniform(0, 8), s.Uniform(0, 6))
	pr := p.NewProbe(cand)
	grown := p.Clone()
	grown.Add(geo.Pt(s.Uniform(0, 8), s.Uniform(0, 6)))
	var sink float64
	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := pr // ws is back at m = 48 entries; c is shared and drifts, at no cost to the timing
			grown.Extend(&cp)
			sink += cp.Reduction()
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += grown.MarginalReduction(cand)
		}
	})
	_ = sink
}
