package query

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
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
