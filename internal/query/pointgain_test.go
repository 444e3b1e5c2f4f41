package query

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// TestPointGainIsBaseLessValue pins MaxValued's contract on the one state
// that advertises it: across random commit sequences a point state's
// GainFrom(b) is b - Value() to the bit, for every sensor's base value,
// zero-quality sensors included (beyond dmax, trust 0, inaccuracy 1), and
// for arbitrary floats. The other point kinds do not advertise it.
func TestPointGainIsBaseLessValue(t *testing.T) {
	if !IsMaxValued(NewPoint("p", geo.Pt(0, 0), 10, 5).NewState()) {
		t.Fatal("a point state does not advertise MaxValued")
	}
	for _, st := range []State{
		NewMultiPoint("m", geo.Pt(0, 0), 10, 5, 1).NewState(),
		NewAggregate("a", geo.NewRect(0, 0, 5, 5), 10, 5, geo.NewUnitGrid(10, 10)).NewState(),
	} {
		if IsMaxValued(st) {
			t.Errorf("%T advertises MaxValued", st)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		s := rng.New(seed, "point-max-valued")
		loc := geo.Pt(s.Uniform(10, 20), s.Uniform(10, 20))
		p := NewPoint("p", loc, s.Uniform(1, 40), s.Uniform(2, 8))
		p.ThetaMin = s.Uniform(0, 0.5)
		sensors := randomSensors(s, 60, geo.NewRect(loc.X-10, loc.Y-10, loc.X+10, loc.Y+10))
		for i, sn := range sensors {
			switch i % 6 {
			case 0:
				sn.Trust = 0
			case 1:
				sn.Inaccuracy = 1
			}
		}
		st := p.NewState()
		pc := st.(PairCached)
		check := func(b float64) {
			t.Helper()
			if got, want := pc.GainFrom(b), b-st.Value(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: GainFrom(%v) = %v, want base - Value() = %v", seed, b, got, want)
			}
		}
		for _, i := range s.Perm(len(sensors)) {
			for _, sn := range sensors {
				b := pc.BaseValue(sn)
				check(b)
				if g := st.Gain(sn); math.Float64bits(g) != math.Float64bits(b-st.Value()) {
					t.Fatalf("seed %d: Gain = %v, want %v", seed, g, b-st.Value())
				}
			}
			for _, b := range []float64{0, -0.0, -1, s.Uniform(-50, 50), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64} {
				check(b)
			}
			st.Add(sensors[i])
		}
	}
}

// --- per-layer benchmarks --------------------------------------------------

// benchPointKind times one kind's marginal gains through the State
// interface, as a selection run without the core's fast paths would make
// them: "gain" is State.Gain (distance and quality math each call),
// "from-base" is PairCached.GainFrom on a memoized base. Each op values
// every sensor of a dense neighbourhood (the metro lane's density around
// one location, some beyond dmax) against a state that has committed a
// few of them; gains/op reports how many.
func benchPointKind(b *testing.B, q Query) {
	s := rng.New(1, "bench-point-kind")
	sensors := randomSensors(s, 256, geo.NewRect(20, 20, 30, 30))
	st := q.NewState()
	for _, sn := range sensors[:4] {
		st.Add(sn)
	}
	pc := st.(PairCached)
	bases := make([]float64, len(sensors))
	for i, sn := range sensors {
		bases[i] = pc.BaseValue(sn)
	}
	b.Run("gain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sn := range sensors {
				benchSink += st.Gain(sn)
			}
		}
		b.ReportMetric(float64(len(sensors)), "gains/op")
	})
	b.Run("from-base", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range bases {
				benchSink += pc.GainFrom(v)
			}
		}
		b.ReportMetric(float64(len(bases)), "gains/op")
	})
}

// BenchmarkPointGain times Eq. 3's gains, the point query's.
func BenchmarkPointGain(b *testing.B) {
	benchPointKind(b, NewPoint("p", geo.Pt(25, 25), 12, 5))
}

// BenchmarkMultiPointGain times a multiple-sensor point query's top-K
// gains at the metro demand's k of 6.
func BenchmarkMultiPointGain(b *testing.B) {
	benchPointKind(b, NewMultiPoint("m", geo.Pt(25, 25), 200, 5, 6))
}

// BenchmarkEventGain times the gains of an event-detection query's
// redundant-sampling probe, the multipoint CreatePointQuery builds.
func BenchmarkEventGain(b *testing.B) {
	e := NewEventDetection("e", geo.Pt(25, 25), 0, 10, 0.5, 0.9, 30, 5)
	probe, ok := e.CreatePointQuery(0)
	if !ok {
		b.Fatal("the event query builds no probe at slot 0")
	}
	benchPointKind(b, probe)
}
