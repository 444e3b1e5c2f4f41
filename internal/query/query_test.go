package query

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

func sensorAt(id int, x, y float64) *sensornet.Sensor {
	return sensornet.NewSensor(id, geo.Pt(x, y))
}

func TestPointValueEq3(t *testing.T) {
	p := NewPoint("q1", geo.Pt(0, 0), 20, 5)
	s := sensorAt(1, 0, 0) // theta = 1 at distance 0, full trust, no inaccuracy
	if got := p.ValueSingle(s); got != 20 {
		t.Errorf("value at perfect quality = %v want 20", got)
	}
	// Half distance: theta 0.5, value 10.
	s2 := sensorAt(2, 2.5, 0)
	if got := p.ValueSingle(s2); math.Abs(got-10) > 1e-12 {
		t.Errorf("value at half range = %v want 10", got)
	}
	// Below theta_min: zero.
	s3 := sensorAt(3, 4.5, 0) // theta = 0.1 < 0.2
	if got := p.ValueSingle(s3); got != 0 {
		t.Errorf("below-threshold value = %v want 0", got)
	}
	if p.Relevant(s3) {
		t.Error("below-threshold sensor should be irrelevant")
	}
	if !p.Relevant(s) {
		t.Error("perfect sensor should be relevant")
	}
}

func TestPointStateTakesBest(t *testing.T) {
	p := NewPoint("q1", geo.Pt(0, 0), 10, 5)
	st := p.NewState()
	if st.Value() != 0 {
		t.Error("empty state value != 0")
	}
	far := sensorAt(1, 2.5, 0)  // value 5
	near := sensorAt(2, 0.5, 0) // value 9
	if g := st.Gain(far); math.Abs(g-5) > 1e-12 {
		t.Errorf("gain(far)=%v want 5", g)
	}
	st.Add(far)
	if g := st.Gain(near); math.Abs(g-4) > 1e-12 {
		t.Errorf("marginal gain(near)=%v want 4", g)
	}
	st.Add(near)
	if v := st.Value(); math.Abs(v-9) > 1e-12 {
		t.Errorf("value=%v want 9 (max)", v)
	}
	// A worse sensor adds nothing.
	if g := st.Gain(far); g > 0 {
		t.Errorf("worse sensor gain = %v want <= 0", g)
	}
	if st.Query() != Query(p) {
		t.Error("Query() identity")
	}
}

func TestValueReplaysState(t *testing.T) {
	p := NewPoint("q1", geo.Pt(0, 0), 10, 5)
	a, b := sensorAt(1, 1, 0), sensorAt(2, 3, 0)
	want := p.ValueSingle(a) // best of the two
	if got := Value(p, []*sensornet.Sensor{a, b}); math.Abs(got-want) > 1e-12 {
		t.Errorf("Value=%v want %v", got, want)
	}
}

func TestMultiPointDiminishingReturns(t *testing.T) {
	m := NewMultiPoint("m1", geo.Pt(0, 0), 30, 5, 2)
	st := m.NewState()
	s1 := sensorAt(1, 0, 0)   // theta 1
	s2 := sensorAt(2, 0.5, 0) // theta 0.9
	s3 := sensorAt(3, 1, 0)   // theta 0.8

	g1 := st.Gain(s1)
	st.Add(s1)
	g2 := st.Gain(s2)
	st.Add(s2)
	g3 := st.Gain(s3)
	if g1 < g2 || g2 < g3 {
		t.Errorf("gains should diminish: %v %v %v", g1, g2, g3)
	}
	// With K=2 full, a weaker third sensor adds nothing.
	if g3 != 0 {
		t.Errorf("gain with full top-K and weaker sensor = %v want 0", g3)
	}
	// Value = B * (1 + 0.9) / 2 = 28.5.
	if v := st.Value(); math.Abs(v-28.5) > 1e-9 {
		t.Errorf("value=%v want 28.5", v)
	}
}

func TestMultiPointReplacementGain(t *testing.T) {
	m := NewMultiPoint("m1", geo.Pt(0, 0), 10, 5, 1)
	st := m.NewState()
	weak := sensorAt(1, 2.5, 0) // theta 0.5
	st.Add(weak)
	strong := sensorAt(2, 0, 0) // theta 1
	if g := st.Gain(strong); math.Abs(g-5) > 1e-9 {
		t.Errorf("replacement gain = %v want 5", g)
	}
	st.Add(strong)
	if v := st.Value(); math.Abs(v-10) > 1e-9 {
		t.Errorf("value after replacement = %v want 10", v)
	}
}

func TestMultiPointKClamp(t *testing.T) {
	m := NewMultiPoint("m", geo.Pt(0, 0), 10, 5, 0)
	if m.K != 1 {
		t.Errorf("K clamp = %d want 1", m.K)
	}
}

func TestAggregateValueEq5(t *testing.T) {
	grid := geo.NewUnitGrid(100, 100)
	region := geo.NewRect(10, 10, 30, 30)
	a := NewAggregate("a1", region, 100, 10, grid)
	st := a.NewState()
	if st.Value() != 0 {
		t.Error("empty aggregate value != 0")
	}
	center := sensorAt(1, 20, 20)
	gain := st.Gain(center)
	if gain <= 0 {
		t.Fatalf("central sensor gain = %v", gain)
	}
	st.Add(center)
	// Coverage: disk r=10 around (20,20) covers the whole 20x20 region?
	// Corner (10,10) is at distance ~14 > 10, so coverage < 1.
	v := st.Value()
	if v <= 0 || v > 100 {
		t.Errorf("value = %v out of (0, B]", v)
	}
	got := Value(a, []*sensornet.Sensor{center})
	if math.Abs(got-v) > 1e-9 {
		t.Errorf("replayed value %v != state value %v", got, v)
	}
}

func TestAggregateRelevance(t *testing.T) {
	grid := geo.NewUnitGrid(100, 100)
	a := NewAggregate("a1", geo.NewRect(10, 10, 30, 30), 100, 10, grid)
	if !a.Relevant(sensorAt(1, 20, 20)) {
		t.Error("inside sensor should be relevant")
	}
	if !a.Relevant(sensorAt(2, 35, 20)) {
		t.Error("sensor within sensing range outside region should be relevant")
	}
	if a.Relevant(sensorAt(3, 60, 60)) {
		t.Error("far sensor should be irrelevant")
	}
}

func TestAggregateCoverageSharingGain(t *testing.T) {
	// A second sensor covering already-covered cells with the same theta
	// must have non-positive gain (avg theta unchanged, coverage unchanged).
	grid := geo.NewUnitGrid(100, 100)
	region := geo.NewRect(10, 10, 14, 14)
	a := NewAggregate("a1", region, 50, 10, grid)
	st := a.NewState()
	st.Add(sensorAt(1, 12, 12))
	dup := sensorAt(2, 12, 12)
	if g := st.Gain(dup); g > 1e-12 {
		t.Errorf("duplicate coverage gain = %v want <= 0", g)
	}
}

func TestAggregateThetaDilution(t *testing.T) {
	// Adding a low-trust sensor that covers nothing new dilutes avg theta:
	// Eq. 5 is NOT submodular/monotone ("Involving sensor quality ...
	// destroys the submodularity", §3.2). Gain must be negative.
	grid := geo.NewUnitGrid(100, 100)
	region := geo.NewRect(10, 10, 14, 14)
	a := NewAggregate("a1", region, 50, 10, grid)
	st := a.NewState()
	st.Add(sensorAt(1, 12, 12))
	bad := sensorAt(2, 12, 12)
	bad.Trust = 0.1
	if g := st.Gain(bad); g >= 0 {
		t.Errorf("diluting sensor gain = %v want < 0", g)
	}
}

func TestAggregateStateIncrementalMatchesReplay(t *testing.T) {
	grid := geo.NewUnitGrid(100, 100)
	region := geo.NewRect(20, 20, 60, 50)
	a := NewAggregate("a1", region, 80, 10, grid)
	f := func(xs [4]uint8, ys [4]uint8) bool {
		st := a.NewState()
		var sensors []*sensornet.Sensor
		for i := 0; i < 4; i++ {
			s := sensorAt(i, float64(20+xs[i]%40), float64(20+ys[i]%30))
			gain := st.Gain(s)
			before := st.Value()
			st.Add(s)
			if math.Abs(st.Value()-(before+gain)) > 1e-9 {
				return false
			}
			sensors = append(sensors, s)
		}
		return math.Abs(Value(a, sensors)-st.Value()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTrajectoryQuery(t *testing.T) {
	path := geo.Trajectory{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(30, 0)}}
	q := NewTrajectory("t1", path, 60, 5)
	if q.Budget() != 60 || q.QID() != "t1" {
		t.Error("accessors broken")
	}
	near := sensorAt(1, 15, 2)
	farAway := sensorAt(2, 15, 50)
	if !q.Relevant(near) || q.Relevant(farAway) {
		t.Error("relevance misclassifies")
	}
	st := q.NewState()
	g := st.Gain(near)
	if g <= 0 {
		t.Fatalf("near sensor gain = %v", g)
	}
	st.Add(near)
	if st.Value() <= 0 {
		t.Error("value should be positive after adding a covering sensor")
	}
	// Full coverage with 4 spread sensors exceeds 1-sensor coverage.
	st2 := q.NewState()
	for i, x := range []float64{0, 10, 20, 30} {
		st2.Add(sensorAt(10+i, x, 0))
	}
	if st2.Value() <= st.Value() {
		t.Errorf("full-coverage value %v <= partial %v", st2.Value(), st.Value())
	}
	if st2.Query() != Query(q) {
		t.Error("Query() identity")
	}
}

func TestTrajectoryIncrementalConsistency(t *testing.T) {
	path := geo.Trajectory{Waypoints: []geo.Point{geo.Pt(0, 0), geo.Pt(20, 10)}}
	q := NewTrajectory("t1", path, 40, 4)
	st := q.NewState()
	sensors := []*sensornet.Sensor{sensorAt(1, 5, 2), sensorAt(2, 15, 8), sensorAt(3, 10, 5)}
	for _, s := range sensors {
		before := st.Value()
		g := st.Gain(s)
		st.Add(s)
		if math.Abs(st.Value()-(before+g)) > 1e-9 {
			t.Fatalf("gain inconsistent with add for sensor %d", s.ID)
		}
	}
	if math.Abs(Value(q, sensors)-st.Value()) > 1e-9 {
		t.Error("replayed value differs")
	}
}

func TestPointIDFormat(t *testing.T) {
	if got := PointID("lm3", 7, ""); got != "lm3@t7" {
		t.Errorf("PointID = %q", got)
	}
	if got := PointID("rm1", 2, "s5"); got != "rm1@t2/s5" {
		t.Errorf("PointID = %q", got)
	}
}

// TestRelevantBaseMatchesRelevant: the point kinds' RelevantBase, with its
// distance pre-screen, answers exactly what Relevant and the state's
// BaseValue answer — for sensors at, just inside and just outside DMax,
// for thresholds at, below and above zero, and for DMax values whose
// square is tiny, zero or not finite.
func TestRelevantBaseMatchesRelevant(t *testing.T) {
	loc := geo.Pt(10, 10)
	var sensors []*sensornet.Sensor
	add := func(x, y float64) {
		s := sensorAt(len(sensors), x, y)
		s.Inaccuracy = float64(len(sensors)%5) / 25
		sensors = append(sensors, s)
	}
	for _, dmax := range []float64{5, 10, 0.3, 1e-160, 1e-200} {
		// Along the axes and along a 3-4-5 diagonal, at dmax and one or
		// two floats either side of it.
		for _, d := range []float64{dmax, math.Nextafter(dmax, 0), math.Nextafter(dmax, 100),
			math.Nextafter(math.Nextafter(dmax, 100), 100)} {
			add(loc.X+d, loc.Y)
			add(loc.X, loc.Y-d)
			add(loc.X+0.6*d, loc.Y+0.8*d)
		}
	}
	for i := 0; i < 400; i++ {
		add(loc.X+float64(i%40)*0.37-7, loc.Y+float64(i/40)*1.3-6)
	}
	for _, dmax := range []float64{5, 10, 0.3, 1e-160, 1e-200, 0, -2, math.Inf(1), math.NaN()} {
		for _, thetaMin := range []float64{0.2, 0, -1} {
			p := NewPoint("p", loc, 20, dmax)
			p.ThetaMin = thetaMin
			m := NewMultiPoint("m", loc, 20, dmax, 3)
			m.ThetaMin = thetaMin
			for _, q := range []interface {
				Query
				RelevanceBased
			}{p, m} {
				pc := q.NewState().(PairCached)
				for _, s := range sensors {
					ok, base := q.RelevantBase(s)
					if want := q.Relevant(s); ok != want {
						t.Fatalf("%s dmax %v thetaMin %v, sensor at %v: RelevantBase says %v, Relevant %v",
							q.QID(), dmax, thetaMin, s.Pos, ok, want)
					}
					if want := pc.BaseValue(s); ok && base != want && !(math.IsNaN(base) && math.IsNaN(want)) {
						t.Fatalf("%s dmax %v thetaMin %v, sensor at %v: base %v, BaseValue %v",
							q.QID(), dmax, thetaMin, s.Pos, base, want)
					}
				}
			}
		}
	}
}

// TestFootprintContainsEveryRelevantSensor: every Footprinted kind's
// footprint holds each sensor its Relevant accepts. Sensors sit one ulp
// either side of the footprint's edges and corners and, for the point
// kinds, on rings at dmax*(1-ThetaMin), at the footprint's half-width
// and at dmax, with inaccuracy and trust at 0, 1 or random in [0, 1].
// The point kinds' RelevantBase must agree with Relevant, and for a
// ThetaMin in (0, 1) their footprint must be cut to the reach and still
// hold a perfect sensor just inside dmax*(1-ThetaMin).
func TestFootprintContainsEveryRelevantSensor(t *testing.T) {
	rnd := rng.New(1, "footprint-reach")
	var quality [][2]float64 // (gamma, tau)
	for _, g := range []float64{0, 1, -1} {
		for _, tau := range []float64{0, 1, -1} {
			quality = append(quality, [2]float64{g, tau})
		}
	}
	draw := func(v float64) float64 {
		if v < 0 {
			return rnd.Uniform(0, 1)
		}
		return v
	}
	ulps := func(v float64) []float64 {
		return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
	}
	thetaMins := []float64{-1, 0, 1e-300, 0.2, 0.5, 1 - 0x1p-52, 1, 2, math.NaN()}
	grid := geo.NewUnitGrid(10, 10)
	relevantSeen := 0
	for _, dmax := range []float64{1e-9, 5, 1e6} {
		for _, loc := range []geo.Point{geo.Pt(0, 0), geo.Pt(37.3, -12.9), geo.Pt(1e6+0.1, -3e5)} {
			for _, thetaMin := range thetaMins {
				p := NewPoint("p", loc, 20, dmax)
				p.ThetaMin = thetaMin
				m := NewMultiPoint("m", loc, 20, dmax, 2)
				m.ThetaMin = thetaMin
				agg := NewAggregate("a", geo.NewRect(loc.X, loc.Y, loc.X+3*dmax, loc.Y+dmax), 20, dmax, grid)
				path := geo.Trajectory{Waypoints: []geo.Point{loc, geo.Pt(loc.X+2*dmax, loc.Y+dmax)}}
				tr := &Trajectory{ID: "t", Path: path, B: 20, SensingRange: dmax, SampleStep: dmax / 4}
				tr.samples = path.SamplePoints(tr.SampleStep)
				for _, q := range []Query{p, m, agg, tr} {
					fp, ok := Footprint(q)
					if !ok {
						t.Fatalf("%s: no footprint", q.QID())
					}
					// Every pairing of an edge's three ulps, the location
					// and the middle on each axis: corners, edges, inside.
					var positions []geo.Point
					xs := append(append(ulps(fp.MinX), ulps(fp.MaxX)...), loc.X, (fp.MinX+fp.MaxX)/2)
					ys := append(append(ulps(fp.MinY), ulps(fp.MaxY)...), loc.Y, (fp.MinY+fp.MaxY)/2)
					for _, x := range xs {
						for _, y := range ys {
							positions = append(positions, geo.Pt(x, y))
						}
					}
					rb, pointKind := q.(RelevanceBased)
					if pointKind {
						half := fp.MaxX - loc.X
						for _, rho := range []float64{dmax * (1 - thetaMin), half, dmax} {
							for _, r := range ulps(rho) {
								for k := 0; k < 16; k++ {
									a := 2 * math.Pi * (float64(k) + rnd.Uniform(0, 1)) / 16
									positions = append(positions, geo.Pt(loc.X+r*math.Cos(a), loc.Y+r*math.Sin(a)))
								}
								positions = append(positions, geo.Pt(loc.X+r, loc.Y), geo.Pt(loc.X, loc.Y-r))
							}
						}
						if thetaMin > 0 && thetaMin < 1 && half > dmax*(1-thetaMin)+2e-9*dmax+2*ulp(loc.X) {
							t.Errorf("%s dmax %v thetaMin %v: footprint half-width %v, want the reach %v",
								q.QID(), dmax, thetaMin, half, dmax*(1-thetaMin))
						}
						if (thetaMin == 0.2 || thetaMin == 0.5) && ulp(loc.X) < 1e-9*dmax {
							s := sensornet.NewSensor(0, geo.Pt(loc.X+dmax*(1-thetaMin)*(1-1e-6), loc.Y))
							if !q.Relevant(s) || !fp.Contains(s.Pos) {
								t.Errorf("%s dmax %v thetaMin %v: a perfect sensor at %v, just inside dmax*(1-thetaMin), is not relevant inside %v",
									q.QID(), dmax, thetaMin, s.Pos, fp)
							}
						}
					}
					for _, pos := range positions {
						for _, gt := range quality {
							s := sensornet.NewSensor(0, pos)
							s.Inaccuracy, s.Trust = draw(gt[0]), draw(gt[1])
							rel := q.Relevant(s)
							if rel {
								relevantSeen++
							}
							if rel && !fp.Contains(pos) {
								t.Fatalf("%s dmax %v thetaMin %v loc %v: sensor at %v (gamma %v, tau %v) is relevant outside the footprint %v",
									q.QID(), dmax, thetaMin, loc, pos, s.Inaccuracy, s.Trust, fp)
							}
							if pointKind {
								if ok, _ := rb.RelevantBase(s); ok != rel {
									t.Fatalf("%s dmax %v thetaMin %v: sensor at %v: RelevantBase says %v, Relevant %v",
										q.QID(), dmax, thetaMin, pos, ok, rel)
								}
							}
						}
					}
				}
			}
		}
	}
	if relevantSeen == 0 {
		t.Fatal("no sensor was relevant: the fixture tests nothing")
	}
}

// ulp is the spacing of floats at v.
func ulp(v float64) float64 { return math.Nextafter(math.Abs(v), math.Inf(1)) - math.Abs(v) }
