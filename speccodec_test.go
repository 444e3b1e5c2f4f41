package ps

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// encodeSpecs is the batch AppendSpecBinary builds from specs.
func encodeSpecs(t testing.TB, specs ...Spec) []byte {
	t.Helper()
	var b []byte
	for _, spec := range specs {
		var err error
		if b, err = AppendSpecBinary(b, spec); err != nil {
			t.Fatalf("AppendSpecBinary(%#v): %v", spec, err)
		}
	}
	return b
}

// requireSpecRoundTrip checks decode(encode(specs)) against specs field
// for field, bit for bit, and that the encoding is a fixed point.
func requireSpecRoundTrip(t *testing.T, specs ...Spec) {
	t.Helper()
	enc := encodeSpecs(t, specs...)
	back, err := DecodeSpecBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := specsDiff(specs, back); err != nil {
		t.Fatalf("round trip changed %v", err)
	}
	if again := encodeSpecs(t, back...); !bytes.Equal(enc, again) {
		t.Fatal("re-encoding the decoded batch gives different bytes")
	}
}

// specsDiff compares two batches spec for spec: same concrete types, same
// fields bit for bit.
func specsDiff(a, b []Spec) error {
	if len(a) != len(b) {
		return fmt.Errorf("a batch of %d specs into one of %d", len(a), len(b))
	}
	for i := range a {
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) {
			return fmt.Errorf("spec[%d]: a %T into a %T", i, a[i], b[i])
		}
		if err := bitDiff(fmt.Sprintf("spec[%d]", i), reflect.ValueOf(a[i]), reflect.ValueOf(b[i])); err != nil {
			return err
		}
	}
	return nil
}

// everySpecKind returns one zero spec of each kind, in kind order.
func everySpecKind() []Spec {
	return []Spec{
		PointSpec{}, MultiPointSpec{}, AggregateSpec{}, TrajectorySpec{},
		LocationMonitoringSpec{}, RegionMonitoringSpec{}, EventDetectionSpec{}, RegionEventSpec{},
	}
}

// TestSpecBinaryCoversEveryField guards the hand-written codec against a
// field added to a spec and not to AppendSpecBinary/DecodeSpecBatch, and
// against a kind added to the taxonomy and not to this test.
func TestSpecBinaryCoversEveryField(t *testing.T) {
	kinds := everySpecKind()
	for k := KindPoint; k <= KindRegionEvent; k++ {
		if int(k) >= len(kinds) || kinds[k].Kind() != k {
			t.Fatalf("everySpecKind has no %v spec at index %d", k, int(k))
		}
	}
	n := 0
	filled := make([]Spec, len(kinds))
	for i, zero := range kinds {
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		fill(v, &n)
		filled[i] = v.Interface().(Spec)
	}
	requireSpecRoundTrip(t, filled...)
	requireSpecRoundTrip(t, kinds...) // all-zero specs, empty IDs included
	requireSpecRoundTrip(t)           // the empty batch
}

// TestSpecBinaryEdgeValues: floats travel as their bits (NaN payloads,
// infinities, -0 apart from 0, subnormals), a trajectory keeps nil apart
// from empty and carries one or many waypoints, and IDs are bytes, not
// text.
func TestSpecBinaryEdgeValues(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	subnormal := math.Float64frombits(1)
	negZero := math.Copysign(0, -1)
	many := make([]Point, 300)
	for i := range many {
		many[i] = Pt(float64(i)/7, -float64(i)/3)
	}
	requireSpecRoundTrip(t,
		PointSpec{ID: "", Loc: Pt(negZero, subnormal), Budget: nan},
		PointSpec{ID: "q\x00é世界\xff", Loc: Pt(math.Inf(1), math.Inf(-1)), Budget: -math.MaxFloat64},
		MultiPointSpec{ID: strings.Repeat("long", 100), Loc: Pt(0, negZero), Budget: math.SmallestNonzeroFloat64, K: math.MinInt32},
		AggregateSpec{ID: "a", Region: Rect{MinX: nan, MinY: negZero, MaxX: subnormal, MaxY: math.MaxFloat64}, Budget: negZero},
		TrajectorySpec{ID: "nil", Path: Trajectory{Waypoints: nil}, Budget: 1},
		TrajectorySpec{ID: "empty", Path: Trajectory{Waypoints: []Point{}}, Budget: 1},
		TrajectorySpec{ID: "one", Path: Trajectory{Waypoints: []Point{Pt(nan, negZero)}}, Budget: 1},
		TrajectorySpec{ID: "many", Path: Trajectory{Waypoints: many}, Budget: subnormal},
		LocationMonitoringSpec{ID: "lm", Loc: Pt(1, 2), Duration: -1, Budget: nan, Samples: math.MaxInt32},
		RegionMonitoringSpec{ID: "rm", Region: NewRect(1, 1, 7, 12), Duration: math.MaxInt32, Budget: negZero},
		EventDetectionSpec{ID: "ev", Loc: Pt(3, 4), Duration: 0, Threshold: nan, Confidence: negZero, BudgetPerSlot: subnormal},
		RegionEventSpec{ID: "re", Region: NewRect(0, 0, 1, 1), Duration: 7, Threshold: math.Inf(1), Confidence: nan, BudgetPerSlot: negZero},
	)
}

// TestAppendSpecBinaryInputs: a pointer spec encodes as its value, and a
// spec that cannot be encoded leaves the batch as it was.
func TestAppendSpecBinaryInputs(t *testing.T) {
	val := LocationMonitoringSpec{ID: "lm", Loc: Pt(30, 30), Duration: 4, Budget: 150, Samples: 3}
	if byVal, byPtr := encodeSpecs(t, val), encodeSpecs(t, &val); !bytes.Equal(byVal, byPtr) {
		t.Error("a pointer spec encodes differently from the value it points to")
	}
	batch := encodeSpecs(t, val)
	for name, bad := range map[string]Spec{"nil": nil, "typed nil": (*PointSpec)(nil)} {
		got, err := AppendSpecBinary(batch, bad)
		if err == nil || !bytes.Equal(got, batch) {
			t.Errorf("%s spec: err = %v, batch %d -> %d bytes", name, err, len(batch), len(got))
		}
	}
}

// TestDecodeSpecBatchRejects pins the decoder's refusals: a batch cut
// anywhere but between two specs, trailing bytes, another layout byte, an
// unknown kind byte, and a waypoint count the input cannot hold — refused
// before anything is allocated for it.
func TestDecodeSpecBatchRejects(t *testing.T) {
	specs := []Spec{
		PointSpec{ID: "pt", Loc: Pt(30, 31), Budget: 12},
		TrajectorySpec{ID: "tr", Path: Trajectory{Waypoints: []Point{Pt(25, 42), Pt(55, 42)}}, Budget: 150},
		EventDetectionSpec{ID: "ev", Loc: Pt(3, 4), Duration: 5, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30},
	}
	enc := encodeSpecs(t, specs...)
	boundary := map[int]int{0: 0} // prefix length -> specs in it
	for i := range specs {
		boundary[len(encodeSpecs(t, specs[:i+1]...))] = i + 1
	}
	for n := 0; n < len(enc); n++ {
		got, err := DecodeSpecBatch(enc[:n])
		if want, whole := boundary[n]; whole {
			if err != nil || len(got) != want {
				t.Fatalf("the first %d specs (%d bytes): %d specs, %v", want, n, len(got), err)
			}
		} else if err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte batch decodes", n, len(enc))
		}
	}
	for _, trailing := range []byte{0, specFormat, 0xff} {
		if _, err := DecodeSpecBatch(append(bytes.Clone(enc), trailing)); err == nil {
			t.Errorf("trailing byte %#x is accepted", trailing)
		}
	}
	otherLayout := bytes.Clone(enc)
	otherLayout[0]++
	if _, err := DecodeSpecBatch(otherLayout); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Errorf("an unknown layout byte: err = %v", err)
	}
	otherKind := bytes.Clone(enc)
	otherKind[1] = byte(KindRegionEvent) + 1
	if _, err := DecodeSpecBatch(otherKind); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("an unknown kind byte: err = %v", err)
	}

	// A trajectory "q" claiming 2^40 waypoints.
	huge := []byte{specFormat, byte(KindTrajectory), 1, 'q', 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := DecodeSpecBatch(huge)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Error("a waypoint count beyond the input is accepted")
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing a 10-byte input allocated %d bytes", grew)
	}
}

// metroLaneBatch is one metro-cluster lane's slot of demand: 250 points,
// four multipoints, three aggregates and a trajectory, 258 specs.
func metroLaneBatch() []Spec {
	var specs []Spec
	for i := 0; i < 250; i++ {
		specs = append(specs, PointSpec{ID: fmt.Sprintf("pt12-%d", 1000+i), Loc: Pt(21+float64(i%13), 21+float64(i%11)), Budget: 8 + float64(i%6)})
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, MultiPointSpec{ID: fmt.Sprintf("mp12-%d", 1000+i), Loc: Pt(25+float64(i), 30), Budget: 100 + float64(i), K: 6})
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, AggregateSpec{ID: fmt.Sprintf("agg12-%d", 1000+i), Region: NewRect(22, 22, 30+float64(i), 31), Budget: 250})
	}
	return append(specs, TrajectorySpec{ID: "span-tr12-0", Path: Trajectory{Waypoints: []Point{Pt(25, 42), Pt(55, 42)}}, Budget: 150})
}

// BenchmarkSpecBatchCodec times the cluster submit path's codec on a
// metro lane's batch: what the coordinator pays to encode a slot's specs
// and the node to decode them.
func BenchmarkSpecBatchCodec(b *testing.B) {
	specs := metroLaneBatch()
	enc := encodeSpecs(b, specs...)
	perSpec := float64(len(enc)) / float64(len(specs))
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		buf := make([]byte, 0, len(enc))
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, spec := range specs {
				buf, _ = AppendSpecBinary(buf, spec)
			}
		}
		b.ReportMetric(perSpec, "bytes/spec")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSpecBatch(enc); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perSpec, "bytes/spec")
	})
}

// FuzzDecodeSpecBatch: arbitrary bytes never panic the decoder and never
// make it allocate more than a constant factor of the input; whatever
// decodes re-encodes to bytes that decode to the same specs.
func FuzzDecodeSpecBatch(f *testing.F) {
	f.Add(encodeSpecs(f, metroLaneBatch()[240:]...))
	f.Add(encodeSpecs(f, everySpecKind()...))
	f.Add([]byte(nil))
	f.Add([]byte{specFormat, byte(KindTrajectory), 1, 'q', 0x80, 0x80, 0x80, 0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		specs, err := DecodeSpecBatch(data)
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := encodeSpecs(t, specs...)
		back, err := DecodeSpecBatch(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if err := specsDiff(specs, back); err != nil {
			t.Fatalf("re-encoding changed %v", err)
		}
	})
}
