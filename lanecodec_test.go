package ps

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// bitDiff walks two values of the same type and reports the first place
// they differ, comparing floats by their bits (so NaN equals the same NaN
// and 0 differs from -0) and keeping nil apart from empty. Unexported
// fields are skipped: LanePartial.exec never crosses the wire.
func bitDiff(path string, a, b reflect.Value) error {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%s: %v (%#x) != %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				if err := bitDiff(path+"."+f.Name, a.Field(i), b.Field(i)); err != nil {
					return err
				}
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Errorf("%s: nil %v/%v, len %d/%d", path, a.IsNil(), b.IsNil(), a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Errorf("%s: nil %v/%v, len %d/%d", path, a.IsNil(), b.IsNil(), a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Errorf("%s: key %v missing", path, k)
			}
			if err := bitDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); err != nil {
				return err
			}
		}
	default: // ints, strings, bools
		if !a.Equal(b) {
			return fmt.Errorf("%s: %v != %v", path, a, b)
		}
	}
	return nil
}

// requireRoundTrip checks decode(encode(p)) against p field for field,
// bit for bit, and that the encoding is a fixed point.
func requireRoundTrip(t *testing.T, name string, p *LanePartial) {
	t.Helper()
	enc := p.AppendBinary(nil)
	back, err := DecodeLanePartial(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if err := bitDiff("partial", reflect.ValueOf(*p), reflect.ValueOf(*back)); err != nil {
		t.Fatalf("%s: round trip changed %v", name, err)
	}
	if again := back.AppendBinary(nil); !bytes.Equal(enc, again) {
		t.Fatalf("%s: re-encoding the decoded partial gives different bytes", name)
	}
}

// realPartials runs node lanes over demand of every query kind and
// returns the partials they produced (RWM for seven kinds, IntelLab for
// region monitoring).
func realPartials(t testing.TB) []*LanePartial {
	t.Helper()
	const slots = 3
	rwm := NewNodeLane(NewRWMWorld(21, 220, SensorConfig{}), 1, 0)
	lab := NewNodeLane(NewIntelLabWorld(5, SensorConfig{}), 1, 0)
	submit := func(n *NodeLane, spec Spec) {
		if _, err := n.Submit(spec); err != nil {
			t.Fatalf("Submit(%q): %v", spec.QueryID(), err)
		}
	}
	box := quadrantInner[0]
	submit(rwm, LocationMonitoringSpec{ID: "lm", Loc: box.Center(), Duration: slots, Budget: 150, Samples: 2})
	submit(rwm, EventDetectionSpec{ID: "ev", Loc: Pt(30, 25), Duration: slots, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30})
	submit(rwm, RegionEventSpec{ID: "re", Region: NewRect(21, 21, 31, 31), Duration: slots, Threshold: 0.5, Confidence: 0.5, BudgetPerSlot: 60})
	submit(lab, RegionMonitoringSpec{ID: "rm", Region: NewRect(1, 1, 7, 12), Duration: slots, Budget: 200})

	var out []*LanePartial
	for slot := 0; slot < slots; slot++ {
		for i := 0; i < 6; i++ {
			submit(rwm, PointSpec{ID: fmt.Sprintf("pt-%d-%d", slot, i), Loc: Pt(22+float64(i*7%13), 23+float64(i*5%13)), Budget: 10 + float64(i)})
		}
		submit(rwm, MultiPointSpec{ID: fmt.Sprintf("mp-%d", slot), Loc: box.Center(), Budget: 60, K: 3})
		submit(rwm, AggregateSpec{ID: fmt.Sprintf("agg-%d", slot), Region: NewRect(47, 22, 58, 33), Budget: 250})
		submit(rwm, TrajectorySpec{ID: fmt.Sprintf("tr-%d", slot), Path: Trajectory{Waypoints: []Point{Pt(22, 47), Pt(33, 58)}}, Budget: 120})
		submit(lab, PointSpec{ID: fmt.Sprintf("pt-%d", slot), Loc: Pt(15, 8), Budget: 15})
		// Points inside the monitored region: the sensors they buy are
		// what the region monitor contributes to (stage-4 sharing).
		for i := 0; i < 4; i++ {
			submit(lab, PointSpec{ID: fmt.Sprintf("in-%d-%d", slot, i), Loc: Pt(2+float64(i), 3+2*float64(i)), Budget: 25})
		}
		for _, n := range []*NodeLane{rwm, lab} {
			p, err := n.RunSlot(slot)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Commit(slot, p.SelectedIDs); err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// TestLanePartialBinaryRoundTripReal: partials from real lanes, every
// query kind among them, cross the codec unchanged to the last bit.
func TestLanePartialBinaryRoundTripReal(t *testing.T) {
	var outcomes, continuous, events int
	for i, p := range realPartials(t) {
		requireRoundTrip(t, fmt.Sprintf("partial %d (slot %d)", i, p.Slot), p)
		outcomes += len(p.Outcomes)
		continuous += len(p.Continuous)
		events += len(p.Events)
	}
	if outcomes == 0 || continuous == 0 || events == 0 {
		t.Fatalf("demand left a section empty: %d outcomes, %d continuous, %d events",
			outcomes, continuous, events)
	}
}

// fill sets every exported field reachable from v to a distinct non-zero
// value, so a field the codec forgets shows up as a round-trip diff.
func fill(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.String:
		// Zero-padded, so strings made later sort later: the per-query
		// sections must ascend by ID.
		v.SetString(fmt.Sprintf("s%04d", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), next)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), next)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, next)
			fill(e, next)
			v.SetMapIndex(k, e)
		}
	default:
		panic(fmt.Sprintf("fill: LanePartial grew a %s field; teach fill and the codec about it", v.Kind()))
	}
}

// TestLanePartialBinaryCoversEveryField guards the hand-written codec
// against a field added to LanePartial (or to a struct it embeds) and not
// to AppendBinary/DecodeLanePartial.
func TestLanePartialBinaryCoversEveryField(t *testing.T) {
	var p LanePartial
	n := 0
	fill(reflect.ValueOf(&p).Elem(), &n)
	requireRoundTrip(t, "filled", &p)
}

// TestLanePartialBinaryEdgeValues: what JSON could not carry (NaN with a
// payload, infinities) or would not keep apart (-0 from 0, nil from
// empty) survives, as do subnormals and a partial with nothing in it.
func TestLanePartialBinaryEdgeValues(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	subnormal := math.Float64frombits(1)
	negZero := math.Copysign(0, -1)
	edge := &LanePartial{
		Slot: -1, Offers: math.MaxInt32, Queries: 0,
		SelectedIDs: []int{},
		Trace:       nil,
		Outcomes:    []LaneValue{{"", nan}, {"q", math.Inf(1)}, {"q\x00", negZero}},
		Continuous:  []ContinuousOutcome{},
		TotalCost:   negZero, PointValue: nan, AggValue: math.Inf(-1), LocMonValue: subnormal,
		RegMonValue: math.MaxFloat64, ExtraValue: math.SmallestNonzeroFloat64, Welfare: -math.MaxFloat64,
		Values:   []LaneValue{{"a", nan}, {"b", negZero}},
		Payments: []LaneValue{},
		Answered: []LaneFlag{{"a", false}, {"b", true}},
		Events:   []EventNotification{},
		SelectMs: nan, StepMs: negZero,
	}
	requireRoundTrip(t, "edge", edge)
	requireRoundTrip(t, "zero", &LanePartial{})
	if got := len((&LanePartial{}).AppendBinary(nil)); got > 160 {
		t.Errorf("an empty partial encodes to %d bytes", got)
	}
}

// TestDecodeLanePartialRejects pins the decoder's refusals: every strict
// prefix of a valid encoding, trailing bytes, another layout byte (the
// previous layout among them), a repeated or out-of-order key, a bool
// byte that is neither 0 nor 1, and lengths the input cannot hold.
func TestDecodeLanePartialRejects(t *testing.T) {
	p := realPartials(t)[0]
	enc := p.AppendBinary(nil)
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeLanePartial(enc[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte partial decodes", n, len(enc))
		}
	}
	if _, err := DecodeLanePartial(append(bytes.Clone(enc), 0)); err == nil {
		t.Error("a trailing byte is accepted")
	}
	for _, layout := range []byte{lanePartialFormat - 1, lanePartialFormat + 1} {
		other := bytes.Clone(enc)
		other[0] = layout
		if _, err := DecodeLanePartial(other); err == nil {
			t.Errorf("layout byte %d is accepted", layout)
		}
	}

	dup := (&LanePartial{Values: []LaneValue{{"a", 1}, {"b", 2}}}).AppendBinary(nil)
	i := bytes.Index(dup, []byte{1, 'b'})
	if i < 0 {
		t.Fatal("key b not found in the encoding")
	}
	dup[i+1] = 'a'
	if _, err := DecodeLanePartial(dup); err == nil {
		t.Error("a section with a repeated key is accepted")
	}
	for _, swapped := range []*LanePartial{
		{Outcomes: []LaneValue{{"b", 1}, {"a", 2}}},
		{Continuous: []ContinuousOutcome{{ID: "b"}, {ID: "a"}}},
		{Payments: []LaneValue{{"b", 1}, {"a", 2}}},
		{Answered: []LaneFlag{{"b", true}, {"a", true}}},
	} {
		if _, err := DecodeLanePartial(swapped.AppendBinary(nil)); err == nil {
			t.Errorf("a section out of ID order is accepted: %+v", swapped)
		}
	}

	badBool := (&LanePartial{Answered: []LaneFlag{{"a", true}}}).AppendBinary(nil)
	i = bytes.Index(badBool, []byte{1, 'a', 1})
	if i < 0 {
		t.Fatal("answered entry not found in the encoding")
	}
	badBool[i+2] = 2
	if _, err := DecodeLanePartial(badBool); err == nil {
		t.Error("bool byte 2 is accepted")
	}

	// Slot, offers, queries, then a selected-IDs length of 2^40.
	huge := []byte{lanePartialFormat, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := DecodeLanePartial(huge)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Error("a length beyond the input is accepted")
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16 {
		t.Errorf("refusing a 10-byte input allocated %d bytes", grew)
	}
}

// decodeAllocBound is how much DecodeLanePartial may allocate for an
// input of n bytes: a constant factor (the widest blow-up is a one-byte
// varint becoming an 8-byte int, or a two-byte map entry becoming a map
// slot) plus a constant.
func decodeAllocBound(n int) uint64 { return 64*uint64(n) + 1<<14 }

// FuzzDecodeLanePartial: arbitrary bytes never panic the decoder and never
// make it allocate more than a constant factor of the input; whatever
// decodes re-encodes to bytes that decode to the same partial.
func FuzzDecodeLanePartial(f *testing.F) {
	for _, p := range realPartials(f) {
		f.Add(p.AppendBinary(nil))
	}
	f.Add([]byte(nil))
	f.Add((&LanePartial{}).AppendBinary(nil))
	f.Add([]byte{lanePartialFormat, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40})
	// Refusals: the previous layout's format byte (layout 4: strategy
	// label removed, so a layout 3 partial is refused, never misread), a
	// repeated map key, and two outcomes in 17 bytes where each takes at
	// least 9.
	prev := goldenPartial().AppendBinary(nil)
	prev[0] = lanePartialFormat - 1
	f.Add(prev)
	dup := (&LanePartial{Values: []LaneValue{{"a", 1}, {"b", 2}}}).AppendBinary(nil)
	f.Add(bytes.Replace(dup, []byte{1, 'b'}, []byte{1, 'a'}, 1))
	f.Add(append([]byte{lanePartialFormat, 0, 0, 0, 0, 0, 3}, make([]byte, 17)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p, err := DecodeLanePartial(data)
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc := p.AppendBinary(nil)
		back, err := DecodeLanePartial(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if err := bitDiff("partial", reflect.ValueOf(*p), reflect.ValueOf(*back)); err != nil {
			t.Fatalf("re-encoding changed %v", err)
		}
	})
}

// goldenPartial exercises every section of the layout.
func goldenPartial() *LanePartial {
	return &LanePartial{
		Slot: 7, Offers: 120, Queries: 5,
		SelectedIDs: []int{42, 3, 17},
		Trace: []SelectionStep{
			{Offer: 5, SensorID: 42, Cost: 1.5, Net: 2.25},
			{Offer: 0, SensorID: 3, Cost: 0.75, Net: 0.5},
			{Offer: 9, SensorID: 17, Cost: 2, Net: 1.0 / 3},
		},
		Outcomes:   []LaneValue{{"agg-7", 44}, {"idle", 0}, {"lm#p", 1.5}, {"mp-7", 30.125}, {"pt-7-1", 9.5}},
		Continuous: []ContinuousOutcome{{ID: "lm", Satisfied: true, ValueDelta: 1.5, Payment: 0.25}},
		TotalCost:  4.25, PointValue: 9.5, AggValue: 44, LocMonValue: 1.5, ExtraValue: 30.125, Welfare: 80.875,
		Values:   []LaneValue{{"agg-7", 44}, {"lm", 1.5}, {"mp-7", 30.125}, {"pt-7-1", 9.5}},
		Payments: []LaneValue{{"agg-7", 1.75}, {"lm", 0.25}, {"mp-7", 1.75}, {"pt-7-1", 0.75}},
		Answered: []LaneFlag{{"idle", false}, {"lm", true}},
		Events:   []EventNotification{{QueryID: "lm", Slot: 7, Detected: true, Confidence: 0.875, Reading: -1.25}},
		Selection: SelectionStats{ValuationCalls: 310, SerialEquivCalls: 900, LazyReevaluations: 12,
			SubmodularityViolations: 1, FallbackRescans: 1, GeomCacheHits: 40, GeomCacheLookups: 48, PosteriorAppends: 2, PosteriorRebuilds: 1,
			ConservationViolations: 3},
		SelectMs: 1.75, StepMs: 0.5,
	}
}

// goldenPartialHex is goldenPartial's encoding in layout 4. It was
// first pinned against the encoder from when outcome payments were a map
// from sensor ID to amount. Layout 2 changed only the leading format byte
// and appended ConservationViolations to the selection counters; layout 3
// changed only the format byte and dropped each outcome's payments list
// and the contributions map; layout 4 (strategy label removed) changed
// only the format byte and dropped the selection counters' leading
// strategy string.
const goldenPartialHex = "040ef0010a04540622040a54000000000000f83f000000000000024000060000" +
	"00000000e83f000000000000e03f12220000000000000040555555555555d53f" +
	"06056167672d3700000000000046400469646c650000000000000000046c6d23" +
	"70000000000000f83f046d702d370000000000203e400670742d372d31000000" +
	"000000234002026c6d01000000000000f83f000000000000d03f000000000000" +
	"114000000000000023400000000000004640000000000000f83f000000000000" +
	"00000000000000203e40000000000038544005056167672d3700000000000046" +
	"40026c6d000000000000f83f046d702d370000000000203e400670742d372d31" +
	"000000000000234005056167672d37000000000000fc3f026c6d000000000000" +
	"d03f046d702d37000000000000fc3f0670742d372d31000000000000e83f0304" +
	"69646c6500026c6d0102026c6d0e01000000000000ec3f000000000000f4bfec" +
	"04880e1802025060040206000000000000fc3f000000000000e03f"

// TestLanePartialGoldenBytes: the wire bytes of layout 4 are fixed, and
// they decode back to the partial they encode.
func TestLanePartialGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenPartialHex)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenPartial().AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got %x\nwant %x", got, want)
	}
	back, err := DecodeLanePartial(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := bitDiff("partial", reflect.ValueOf(*goldenPartial()), reflect.ValueOf(*back)); err != nil {
		t.Fatalf("golden bytes decode to a different partial: %v", err)
	}
}

// TestLanePartialPaymentsRoundTrip: the per-query payments the report
// publishes, random amounts with edge floats among them, come back with
// the same bits.
func TestLanePartialPaymentsRoundTrip(t *testing.T) {
	s := rng.New(3, "payments")
	edge := []float64{math.Copysign(0, -1), math.Float64frombits(1), math.Inf(1), math.Float64frombits(0x7ff8_0000_0000_0bad)}
	p := &LanePartial{Payments: []LaneValue{}}
	for q := 0; q < 50; q++ {
		amount := s.Norm(0, 1e3)
		if s.Bool(0.2) {
			amount = edge[s.Intn(len(edge))]
		}
		p.Payments = append(p.Payments, LaneValue{fmt.Sprintf("q%02d", q), amount})
	}
	back, err := DecodeLanePartial(p.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Payments) != len(p.Payments) {
		t.Fatalf("%d payments came back, want %d", len(back.Payments), len(p.Payments))
	}
	for i, want := range p.Payments {
		if got := back.Payments[i]; got.ID != want.ID || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("payment %d = %s %#x, want %s %#x", i, got.ID, math.Float64bits(got.Value), want.ID, math.Float64bits(want.Value))
		}
	}
}

// queriesPartial is an n-query partial shaped like a metro lane's: one
// outcome per query, and the query's value, payment and answered flag.
func queriesPartial(n int) *LanePartial {
	p := &LanePartial{
		Outcomes: make([]LaneValue, n),
		Values:   make([]LaneValue, n),
		Payments: make([]LaneValue, n),
		Answered: make([]LaneFlag, n),
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s12-point-%04d", i)
		p.Outcomes[i] = LaneValue{id, float64(i)}
		p.Values[i], p.Payments[i], p.Answered[i] = LaneValue{id, float64(i)}, LaneValue{id, 0.5}, LaneFlag{id, true}
	}
	return p
}

// TestDecodeLanePartialAllocations: decoding allocates per partial, not
// per query — a 1000-query partial costs at most a constant more
// allocations than a 10-query one (the larger maps' extra tables).
func TestDecodeLanePartialAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	allocs := func(n int) float64 {
		enc := queriesPartial(n).AppendBinary(nil)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeLanePartial(enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(1000)
	t.Logf("decode allocations: %.0f for 10 queries, %.0f for 1000", small, large)
	if large > small+24 {
		t.Errorf("a 1000-query partial takes %.0f allocations to decode, a 10-query one %.0f", large, small)
	}
}
