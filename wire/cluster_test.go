package wire

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	ps "repro"
)

// frameOf is a well-formed length-prefixed frame of n bytes in all, its
// body filled with c.
func frameOf(n int, c byte) []byte {
	f := bytes.Repeat([]byte{c}, n)
	f[0], f[1], f[2], f[3] = byte((n-4)>>24), byte((n-4)>>16), byte((n-4)>>8), byte(n-4)
	return f
}

// TestReadFrameCap: frames shorter than, longer than and exactly at the
// limit come back whole (length prefix included) whatever the reader's
// buffer size; a longer one is refused from its length prefix, before any
// of it is buffered; a stream ending mid-frame is an error, not a frame.
func TestReadFrameCap(t *testing.T) {
	const limit = 100
	short, spanning, exact := frameOf(9, 's'), frameOf(40, 'm'), frameOf(limit, 'e')
	for _, bufSize := range []int{16, 64, 4096} {
		var stream []byte
		for _, f := range [][]byte{short, spanning, exact, frameOf(limit+1, 'x'), frameOf(9, 'a')} {
			stream = append(stream, f...)
		}
		br := bufio.NewReaderSize(bytes.NewReader(stream), bufSize)
		for _, want := range [][]byte{short, spanning, exact} {
			got, err := readFrame(br, limit)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("buffer %d: readFrame = %q, %v; want %q", bufSize, got, err, want)
			}
		}
		if _, err := readFrame(br, limit); !errors.Is(err, ErrClusterFrameTooLarge) {
			t.Fatalf("buffer %d: a %d-byte frame under a %d-byte limit: err = %v", bufSize, limit+1, limit, err)
		}
	}
	// A length prefix alone is enough to refuse: the reader does not wait
	// for a body it would not take.
	br := bufio.NewReaderSize(bytes.NewReader([]byte{0x40, 0, 0, 0}), 16)
	if _, err := readFrame(br, limit); !errors.Is(err, ErrClusterFrameTooLarge) {
		t.Fatalf("a bare 1 GiB length prefix: err = %v", err)
	}
	for _, cut := range [][]byte{frameOf(40, 'c')[:30], {0, 0}} {
		br := bufio.NewReaderSize(bytes.NewReader(cut), 16)
		if _, err := readFrame(br, limit); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("a frame cut after %d bytes: err = %v, want EOF", len(cut), err)
		}
	}
}

// TestClusterPartialTravelsAsBinary pins the partial's carrier: the frame
// holds ps's binary layout verbatim — not base64, not JSON — and
// non-finite floats, which JSON cannot carry, cross intact.
func TestClusterPartialTravelsAsBinary(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	p := &ps.LanePartial{Slot: 4, Outcomes: []ps.LaneValue{{ID: "q", Value: math.Inf(-1)}}, Welfare: nan}
	buf, err := MarshalClusterFrame(ClusterFrame{V: ClusterVersion, Type: ClusterPartial, Seq: 9, Epoch: 1, Slot: 4, Applied: 3, Partial: p})
	if err != nil {
		t.Fatalf("a partial carrying NaN does not encode: %v", err)
	}
	raw := p.AppendBinary(nil)
	if !bytes.Contains(buf, raw) || bytes.Contains(buf, []byte(base64.StdEncoding.EncodeToString(raw))) || bytes.ContainsAny(buf, "{\"") {
		t.Fatalf("frame = %x, want the partial's %x verbatim", buf, raw)
	}
	if len(buf) > len(raw)+32 {
		t.Fatalf("a %d-byte partial takes a %d-byte frame", len(raw), len(buf))
	}
	back, err := DecodeClusterFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Applied != 3 || back.Partial == nil || back.Partial.Slot != 4 ||
		!sameBits(back.Partial.Welfare, nan) || len(back.Partial.Outcomes) != 1 || !sameBits(back.Partial.Outcomes[0].Value, math.Inf(-1)) {
		t.Fatalf("decoded %+v (partial %+v)", back, back.Partial)
	}
}

// metroPartial is a partial the shape of one metro-cluster lane's: ~260
// one-shot outcomes, as many results, ~75 committed sensors.
func metroPartial() *ps.LanePartial {
	const outcomes, selected = 260, 75
	p := &ps.LanePartial{
		Slot: 12, Queries: outcomes,
		Outcomes:  make([]ps.LaneValue, outcomes),
		Results:   make([]ps.LaneResult, outcomes),
		Welfare:   3149.125,
		Selection: ps.SelectionStats{ValuationCalls: 812345, SerialEquivCalls: 961234, LazyReevaluations: 15623},
		SelectMs:  6.9, StepMs: 4.1,
	}
	for i := 0; i < selected; i++ {
		p.SelectedIDs = append(p.SelectedIDs, 17*i+3)
		p.Trace = append(p.Trace, ps.SelectionStep{Offer: 61 * i % 5000, SensorID: 17*i + 3, Cost: 9.5 + float64(i)/7, Net: 140.25 - float64(i)/3})
	}
	for i := 0; i < outcomes; i++ {
		id := fmt.Sprintf("s12-point-%03d", i) // zero-padded: sections ascend by ID
		v := 11.5 + float64(i)/13
		p.Outcomes[i] = ps.LaneValue{ID: id, Value: v}
		p.Results[i] = ps.LaneResult{ID: id, Value: v, Payment: v / 3, Paid: true}
	}
	return p
}

// slotFrames are the frames of one metro-shaped slot on one lane: a
// spec batch, the run_slot fence and its partial, and the commit.
func slotFrames(t testing.TB) []ClusterFrame {
	var batch []byte
	for i := 0; i < 200; i++ {
		var err error
		batch, err = ps.AppendSpecBinary(batch, ps.PointSpec{ID: fmt.Sprintf("s12-point-%03d", i), Loc: ps.Pt(float64(i%50), 30), Budget: 15})
		if err != nil {
			t.Fatal(err)
		}
	}
	return []ClusterFrame{
		{V: ClusterVersion, Type: ClusterSubmits, Seq: 40, Epoch: 1, Node: "coordinator", Specs: batch},
		{V: ClusterVersion, Type: ClusterRunSlot, Seq: 41, Epoch: 1, Node: "coordinator", Slot: 12},
		{V: ClusterVersion, Type: ClusterPartial, Seq: 41, Epoch: 1, Node: "node0", Slot: 12, Applied: 1, Partial: metroPartial()},
		{V: ClusterVersion, Type: ClusterCommit, Seq: 42, Epoch: 1, Node: "coordinator", Slot: 12, Selected: metroPartial().SelectedIDs},
	}
}

// TestAppendClusterFrameAllocations: encoding a slot's frames into a
// connection's warm buffer allocates nothing, the partial included.
func TestAppendClusterFrameAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	frames := slotFrames(t)
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		buf = buf[:0]
		for _, f := range frames {
			var err error
			if buf, err = AppendClusterFrame(buf, f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("encoding a slot's frames into a warm buffer makes %.1f allocations, want 0", allocs)
	}
}

// TestReadClusterFrameAllocations: reading frames that fit the reader's
// buffer allocates nothing — each comes back as a view.
func TestReadClusterFrameAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	var stream []byte
	for _, f := range slotFrames(t) {
		var err error
		if stream, err = AppendClusterFrame(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(stream)
	br := bufio.NewReaderSize(src, ClusterFrameBuffer)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(stream)
		br.Reset(src)
		for range 4 {
			if _, err := ReadClusterFrame(br); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("reading a slot's frames makes %.1f allocations, want 0", allocs)
	}
}

// TestDecodePartialFrameAllocations: a partial frame decodes in at most
// one allocation more than its partial does alone — the node's name; the
// frame around the partial costs no copy of it.
func TestDecodePartialFrameAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	p := metroPartial()
	raw := p.AppendBinary(nil)
	frame, err := MarshalClusterFrame(ClusterFrame{V: ClusterVersion, Type: ClusterPartial, Seq: 41, Epoch: 1, Node: "node0", Slot: 12, Applied: 1, Partial: p})
	if err != nil {
		t.Fatal(err)
	}
	alone := testing.AllocsPerRun(20, func() {
		if _, err := ps.DecodeLanePartial(raw); err != nil {
			t.Fatal(err)
		}
	})
	framed := testing.AllocsPerRun(20, func() {
		if _, err := DecodeClusterFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode allocations: %.0f for the partial, %.0f for its frame", alone, framed)
	if framed > alone+1 {
		t.Errorf("a partial frame takes %.0f allocations to decode, its partial alone %.0f", framed, alone)
	}
}

// BenchmarkLanePartialCodec times the run_slot response's frame codec —
// what the repository benchmark reports as wire.partial_* — on a
// metro-shaped partial.
func BenchmarkLanePartialCodec(b *testing.B) {
	frame := ClusterFrame{V: ClusterVersion, Type: ClusterPartial, Seq: 7, Epoch: 1, Node: "node0", Slot: 12, Partial: metroPartial()}
	buf, err := MarshalClusterFrame(frame)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if _, err := MarshalClusterFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeClusterFrame(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
