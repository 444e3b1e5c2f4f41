package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	ps "repro"
)

// TestReadLineCap: lines shorter than, spanning and exactly at the limit
// come back whole (newline included) whatever the reader's buffer size; a
// longer one is refused before it is buffered; a stream ending mid-line is
// an error, not a frame.
func TestReadLineCap(t *testing.T) {
	const limit = 100
	short, spanning, exact := "short\n", strings.Repeat("s", 40)+"\n", strings.Repeat("e", limit-1)+"\n"
	for _, bufSize := range []int{16, 64, 4096} {
		br := bufio.NewReaderSize(strings.NewReader(short+spanning+exact+strings.Repeat("x", limit)+"\nafter\n"), bufSize)
		for _, want := range []string{short, spanning, exact} {
			got, err := readLine(br, limit)
			if err != nil || string(got) != want {
				t.Fatalf("buffer %d: readLine = %q, %v; want %q", bufSize, got, err, want)
			}
		}
		if _, err := readLine(br, limit); !errors.Is(err, ErrClusterFrameTooLarge) {
			t.Fatalf("buffer %d: a %d-byte line under a %d-byte limit: err = %v", bufSize, limit+1, limit, err)
		}
	}
	br := bufio.NewReaderSize(strings.NewReader("no newline"), 16)
	if _, err := readLine(br, limit); !errors.Is(err, io.EOF) {
		t.Fatalf("unterminated line: err = %v, want io.EOF", err)
	}
}

// TestClusterPartialTravelsAsBinary pins the partial's carrier: the frame
// is one JSON line whose "partial_bin" holds ps's binary layout, there is
// no JSON "partial" object, and non-finite floats — which encoding/json
// refuses — cross intact.
func TestClusterPartialTravelsAsBinary(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	p := &ps.LanePartial{Slot: 4, Outcomes: map[string]float64{"q": math.Inf(-1)}, Welfare: nan}
	buf, err := MarshalClusterFrame(ClusterFrame{V: ClusterVersion, Type: ClusterPartial, Seq: 9, Epoch: 1, Slot: 4, Applied: 3, Partial: p})
	if err != nil {
		t.Fatalf("a partial carrying NaN does not encode: %v", err)
	}
	if bytes.ContainsAny(buf, "\n") || !bytes.Contains(buf, []byte(`"partial_bin":"`)) || bytes.Contains(buf, []byte(`"partial":`)) {
		t.Fatalf("frame = %s", buf)
	}
	back, err := DecodeClusterFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Applied != 3 || back.Partial == nil || back.Partial.Slot != 4 ||
		!sameBits(back.Partial.Welfare, nan) || !sameBits(back.Partial.Outcomes["q"], math.Inf(-1)) {
		t.Fatalf("decoded %+v (partial %+v)", back, back.Partial)
	}
}

// metroPartial is a partial the shape of one metro-cluster lane's: ~260
// one-shot outcomes, as many values/payments/answered entries, ~75
// committed sensors.
func metroPartial() *ps.LanePartial {
	const outcomes, selected = 260, 75
	p := &ps.LanePartial{
		Slot: 12, Offers: 5000, Queries: outcomes,
		Outcomes:  make(map[string]float64, outcomes),
		Values:    make(map[string]float64, outcomes),
		Payments:  make(map[string]float64, outcomes),
		Answered:  make(map[string]bool, outcomes),
		TotalCost: 812.25, PointValue: 2950.5, AggValue: 890.125, ExtraValue: 120.75, Welfare: 3149.125,
		Selection: ps.SelectionStats{Strategy: "lazy", ValuationCalls: 812345, SerialEquivCalls: 961234, LazyReevaluations: 15623},
		SelectMs:  6.9, StepMs: 4.1,
	}
	for i := 0; i < selected; i++ {
		p.SelectedIDs = append(p.SelectedIDs, 17*i+3)
		p.Trace = append(p.Trace, ps.SelectionStep{Offer: 61 * i % 5000, SensorID: 17*i + 3, Cost: 9.5 + float64(i)/7, Net: 140.25 - float64(i)/3})
	}
	for i := 0; i < outcomes; i++ {
		id := fmt.Sprintf("s12-point-%d", i)
		v := 11.5 + float64(i)/13
		p.Outcomes[id] = v
		p.Values[id], p.Payments[id], p.Answered[id] = v, v/3, true
	}
	return p
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
