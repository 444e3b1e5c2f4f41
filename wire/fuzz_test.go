package wire_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	ps "repro"
	"repro/wire"
)

// envelopeSeeds are valid (and near-valid) submission bodies covering
// every query kind, both envelope versions and the documented error
// shapes, so the fuzzers start from interesting corpus points.
var envelopeSeeds = []string{
	`{"v":1,"type":"point","id":"q1","loc":{"x":30,"y":30},"budget":15}`,
	`{"type":"point","loc":{"x":30,"y":30},"budget":15}`, // legacy body (v 0)
	`{"v":1,"type":"multipoint","id":"m","loc":{"x":1,"y":2},"budget":60,"k":4}`,
	`{"v":1,"type":"aggregate","id":"a","region":{"x0":20,"y0":20,"x1":40,"y1":40},"budget":250}`,
	`{"v":1,"type":"trajectory","id":"t","path":[{"x":0,"y":0},{"x":10,"y":10}],"budget":120}`,
	`{"v":1,"type":"locmon","id":"l","loc":{"x":5,"y":5},"duration":8,"budget":150,"samples":4}`,
	`{"v":1,"type":"regmon","id":"r","region":{"x0":1,"y0":1,"x1":10,"y1":10},"duration":6,"budget":200}`,
	`{"v":1,"type":"event","id":"e","loc":{"x":3,"y":4},"duration":5,"threshold":0.7,"confidence":0.9,"budget_per_slot":30}`,
	`{"v":1,"type":"regionevent","id":"re","region":{"x0":25,"y0":25,"x1":40,"y1":40},"duration":5,"threshold":0.5,"confidence":0.5,"budget_per_slot":60}`,
	`{"v":2,"type":"point"}`,                                            // unsupported version
	`{"v":1,"type":"warp"}`,                                             // unknown kind
	`{"v":1,"type":"point","budget":15}`,                                // missing loc
	`{"v":1,"type":"trajectory","path":[]}`,                             // empty path
	`{"v":1,"type":"aggregate","region":{"x0":9,"y0":9,"x1":1,"y1":1}}`, // inverted corners
	`{"v":1,"type":"POINT","loc":{"x":1,"y":1}}`,                        // case folding
	`{}`, `null`, `[]`, `"point"`, `{"type":12}`, `{"v":-1,"type":"point"}`,
}

// FuzzDecodeEnvelope: arbitrary bytes never panic the decoder, and every
// successfully decoded spec is non-nil and re-encodable.
func FuzzDecodeEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(nil))
	f.Add([]byte(`{"v":1,"type":"point","loc":{"x":1e308,"y":-1e308},"budget":1e308}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := wire.UnmarshalSpec(data)
		if err != nil {
			return
		}
		if spec == nil {
			t.Fatalf("UnmarshalSpec(%q) returned nil spec without error", data)
		}
		if _, err := wire.MarshalSpec(spec); err != nil {
			t.Fatalf("decoded spec %#v does not re-encode: %v", spec, err)
		}
	})
}

// FuzzSpecRoundTrip: every decodable body round-trips through the v1
// envelope to a deep-equal spec — the codec loses no field of any kind.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, s := range envelopeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := wire.UnmarshalSpec(data)
		if err != nil {
			t.Skip() // not a valid envelope; FuzzDecodeEnvelope covers this side
		}
		encoded, err := wire.MarshalSpec(spec)
		if err != nil {
			t.Fatalf("MarshalSpec(%#v): %v", spec, err)
		}
		back, err := wire.UnmarshalSpec(encoded)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", encoded, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip diverged:\n first  %#v\n second %#v\n wire   %s", spec, back, encoded)
		}
		// The kind survives too (guards a spec type whose Kind() and
		// envelope mapping disagree).
		if spec.Kind() != back.Kind() || spec.QueryID() != back.QueryID() {
			t.Fatalf("kind/id diverged: %v/%q vs %v/%q",
				spec.Kind(), spec.QueryID(), back.Kind(), back.QueryID())
		}
	})
}

// frameSeeds are valid (and near-valid) v2 event frames covering every
// frame type and the documented error shapes.
var frameSeeds = []string{
	`{"v":2,"event":"accepted","id":"q1","slot":-1,"start":0,"end":9,"ts":1700000000000000000}`,
	`{"v":2,"event":"slot_update","id":"q1","slot":3,"result":{"slot":3,"answered":true,"value":12.4,"payment":1.7,"final":false}}`,
	`{"v":2,"event":"slot_update","id":"e1","slot":4,"result":{"slot":4,"answered":true,"value":1,"payment":0.1,"final":true,"events":[{"slot":4,"detected":true,"confidence":0.9,"reading":33.1}]}}`,
	`{"v":2,"event":"gap","id":"q1","slot":7,"dropped":3,"from":4,"to":6}`,
	`{"v":2,"event":"final","id":"q1","slot":9}`,
	`{"v":2,"event":"canceled","id":"q1","slot":5,"error":"ps: query canceled","code":"canceled"}`,
	`{"v":2,"event":"server_closing","slot":0,"code":"server_closing"}`,
	`{"v":1,"event":"final","id":"q1","slot":9}`,      // wrong version
	`{"v":2,"event":"warp","id":"q1","slot":9}`,       // unknown type
	`{"v":2,"event":"final","slot":9}`,                // missing id
	`{"v":2,"event":"slot_update","id":"q","slot":1}`, // missing result
	`{"v":2,"event":"gap","id":"q","slot":1}`,         // missing dropped
	`{}`, `null`, `[]`, `"final"`, `{"event":12}`, `{"v":-2,"event":"final"}`,
}

// FuzzDecodeEventFrame: arbitrary bytes never panic the v2 frame
// decoder, and every successfully decoded frame re-encodes to a stable
// canonical form (encode∘decode is a fixed point on the codec's own
// output).
func FuzzDecodeEventFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(nil))
	f.Add([]byte(`{"v":2,"event":"slot_update","id":"q","slot":9007199254740993,"result":{"value":1e308}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := wire.DecodeEventFrame(data)
		if err != nil {
			return
		}
		encoded, err := wire.MarshalEventFrame(frame)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", frame, err)
		}
		back, err := wire.DecodeEventFrame(encoded)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", encoded, err)
		}
		// Compare canonical encodings, not structs: an input like
		// "events":[] legitimately decodes to an empty slice that
		// re-encodes away under omitempty.
		encoded2, err := wire.MarshalEventFrame(back)
		if err != nil {
			t.Fatalf("re-encode of %s: %v", encoded, err)
		}
		if !bytes.Equal(encoded, encoded2) {
			t.Fatalf("frame encoding is not a fixed point:\n first  %s\n second %s", encoded, encoded2)
		}
	})
}

// TestFrameSeedsDecode pins which frame seeds are valid, keeping the
// fuzz corpus honest about the shapes the decoder accepts.
func TestFrameSeedsDecode(t *testing.T) {
	decoded := 0
	for _, s := range frameSeeds {
		if _, err := wire.DecodeEventFrame([]byte(s)); err == nil {
			decoded++
		}
	}
	if decoded != 7 {
		t.Errorf("%d frame seeds decode, want exactly the 7 valid ones", decoded)
	}
}

// clusterSeeds are valid (and near-valid) cluster frames, hex-encoded,
// covering every frame type, the oplog shapes and the documented error
// cases. The first eleven are the frames of TestClusterFrameGolden.
var clusterSeeds = []string{
	// hello: node n0, config rwm seed 21, 220 sensors, shard 0 of 4.
	"0000001770736306010101000001026e30020372776d2ab8030800",
	// resync: intellab seed 7, shard 1 of 2; ops: a one-spec batch (point
	// q1), cancel q2, slot 0 ran selecting [3 1 7], slot 1 degraded.
	"0000006370736306020202000001026e300208696e74656c6c61620e0004020304010000001d01000271310000000000003e400000000000003e400000000000002e40000000000200000000027132000000030000000000000306020e01030000000000020000",
	// submits: a batch of two specs, an aggregate and a two-waypoint
	// trajectory.
	"0000006770736306030301000004000000590102016100000000000034400000000000003440000000000000444000000000000044400000000000406f400103017403000000000000394000000000000045400000000000804b4000000000000045400000000000c06240",
	"0000000d70736306040401000005027131",                       // cancel q1
	"00000009707363060506010600",                               // run_slot 3
	"0000000e70736306060701060006030a0412",                     // commit slot 3, selected [5 2 9]
	"000000187073630607080100000801026e3005616c6976650131b817", // ping: n0 alive 1, 1500 ms
	"0000000a70736306080401001109",                             // ok: applied 17, removed
	"00000009707363060802020000",                               // ok
	// partial: slot 3, two committed sensors, one point outcome.
	"000000b370736306090601060407000000a504061804030a0403080a000000000000e03f00000000000002400204000000000000d03f000000000000f83f020271310000000000000c4000000000000000e83f0000000000000c4000000000000000000000000000000000000000000000000000000000000000000000000000000640020271310000000000000c4002027131000000000000e03f0000000000000000000000009a9999999999d93f9a9999999999b93f",
	"0000002f707363060a090200030a1770733a207374616c6520636c75737465722065706f63680b0b7374616c655f65706f6368", // error: stale_epoch

	"00000009707363050708010000",                                         // wrong version: the one before this, in binary
	"00000009707363060b01010000",                                         // unknown type code
	"00000009707363060101010000",                                         // hello without a config
	"0000001370736306010101000002046d6f6f6e00000200",                     // unknown world
	"00000012707363060101010000020372776d00000404",                       // shard out of range
	"00000009707363060301010000",                                         // submits without a batch
	"00000009707363060401010000",                                         // cancel without an id
	"00000009707363060901010000",                                         // partial without a partial
	"00000009707363060a01010000",                                         // error without its text
	"0000001d707363060201010000020372776d000002000301040000000000000000", // unknown op code
	"000000147073630609060106040700000006040618040303",                   // truncated partial
	"0000000978797a060701010000",                                         // bad magic
	"0000000a707363060701010000",                                         // length prefix past the frame
	"000000117073630604010100000502713101026e30",                         // sections out of order
	"0000000a7073630607010100000c",                                       // unknown section tag
	"00000010707363060301010000040000ffff0102",                           // batch longer than the frame
	"00000015707363060201010000020372776d0000020003ff01",                 // more ops than bytes
	"0000000470736306",                                                   // header cut short
	"000000",                                                             // length prefix cut short
}

// FuzzDecodeClusterFrame: arbitrary bytes never panic the cluster frame
// decoder, and every successfully decoded frame re-encodes to a stable
// canonical form (encode∘decode is a fixed point on the codec's own
// output), mirroring FuzzDecodeEventFrame.
func FuzzDecodeClusterFrame(f *testing.F) {
	for _, s := range clusterSeeds {
		f.Add(mustHex(f, s))
	}
	for _, tc := range removedClusterSeeds {
		f.Add([]byte(tc.frame))
	}
	for _, s := range []string{`{}`, `null`, `[]`, `"ping"`, `{"type":12}`, `{"v":-1,"type":"ping"}`} {
		f.Add([]byte(s))
	}
	f.Add([]byte(nil))
	// commit: seq 2^64-1, slot -9, selected [0 0 0].
	f.Add(mustHex(f, "000000177073630606ffffffffffffffffff01011100"+"0603000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := wire.DecodeClusterFrame(data)
		if err != nil {
			return
		}
		encoded, err := wire.MarshalClusterFrame(frame)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", frame, err)
		}
		back, err := wire.DecodeClusterFrame(encoded)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", encoded, err)
		}
		encoded2, err := wire.MarshalClusterFrame(back)
		if err != nil {
			t.Fatalf("re-encode of %x: %v", encoded, err)
		}
		if !bytes.Equal(encoded, encoded2) {
			t.Fatalf("frame encoding is not a fixed point:\n first  %x\n second %x", encoded, encoded2)
		}
	})
}

func mustHex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatalf("seed %q: %v", s, err)
	}
	return b
}

// TestClusterSeedsDecode pins which cluster seeds are valid, keeping the
// fuzz corpus honest about the shapes the decoder accepts.
func TestClusterSeedsDecode(t *testing.T) {
	decoded := 0
	for _, s := range clusterSeeds {
		if _, err := wire.DecodeClusterFrame(mustHex(t, s)); err == nil {
			decoded++
		}
	}
	if decoded != 11 {
		t.Errorf("%d cluster seeds decode, want exactly the 11 valid ones", decoded)
	}
}

// removedClusterSeeds are JSON frames of versions 2 to 5: what a v2 peer
// used to switch a lane's strategy at runtime, v3's per-query JSON submit
// frame and oplog op, hellos of v2 to v4, a v4 hello fixing the lane's
// strategy in its config, and v5's own hello and partial. Each must be
// refused by its version.
var removedClusterSeeds = []struct{ frame, wantErr string }{
	{`{"v":2,"type":"set_strategy","seq":5,"epoch":1,"slot":0,"strategy":"lazy"}`, "unsupported cluster frame version 2 (this build speaks v6)"},
	{`{"v":2,"type":"resync","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","shards":1,"shard":0},"ops":[{"op":"strategy","strategy":"serial"}]}`, "unsupported cluster frame version 2 (this build speaks v6)"},
	{`{"v":3,"type":"submit","seq":3,"epoch":1,"slot":0,"spec":{"v":1,"type":"point","id":"q1","loc":{"x":30,"y":30},"budget":15}}`, "unsupported cluster frame version 3 (this build speaks v6)"},
	{`{"v":3,"type":"resync","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","shards":1,"shard":0},"ops":[{"op":"submit","spec":{"v":1,"type":"point","id":"q1","loc":{"x":30,"y":30},"budget":15}}]}`, "unsupported cluster frame version 3 (this build speaks v6)"},
	{`{"v":2,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0}}`, "unsupported cluster frame version 2 (this build speaks v6)"},
	{`{"v":3,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0}}`, "unsupported cluster frame version 3 (this build speaks v6)"},
	{`{"v":4,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0,"strategy":"serial"}}`, "unsupported cluster frame version 4 (this build speaks v6)"},
	{`{"v":5,"type":"hello","seq":1,"epoch":1,"node":"n0","slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0}}`, "unsupported cluster frame version 5 (this build speaks v6)"},
	{`{"v":5,"type":"partial","seq":6,"epoch":1,"slot":3,"applied":4,"partial_bin":"BAYYBAMKBAMI"}`, "unsupported cluster frame version 5 (this build speaks v6)"},
}

// TestClusterFrameRefusesRemovedStrategySurface: the JSON frames of
// versions 2 to 5 are refused by their version, and the frame types and
// oplog ops earlier versions removed (set_strategy, the per-query submit,
// the strategy op) do not encode.
func TestClusterFrameRefusesRemovedStrategySurface(t *testing.T) {
	for _, tc := range removedClusterSeeds {
		_, err := wire.DecodeClusterFrame([]byte(tc.frame))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("DecodeClusterFrame(%s) = %v, want an error containing %q", tc.frame, err, tc.wantErr)
		}
	}
	cfg := &wire.NodeConfig{World: "rwm", Shards: 1}
	for _, tc := range []struct {
		frame   wire.ClusterFrame
		wantErr string
	}{
		{wire.ClusterFrame{Type: "set_strategy"}, `unknown cluster frame type "set_strategy"`},
		{wire.ClusterFrame{Type: "submit", ID: "q1"}, `unknown cluster frame type "submit"`},
		{wire.ClusterFrame{Type: wire.ClusterResync, Config: cfg, Ops: []wire.ClusterOp{{Op: "strategy"}}}, `unknown cluster op "strategy"`},
		{wire.ClusterFrame{Type: wire.ClusterResync, Config: cfg, Ops: []wire.ClusterOp{{Op: "submit"}}}, `unknown cluster op "submit"`},
	} {
		tc.frame.V = wire.ClusterVersion
		if _, err := wire.MarshalClusterFrame(tc.frame); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("MarshalClusterFrame(%+v) = %v, want an error containing %q", tc.frame, err, tc.wantErr)
		}
	}
}

// TestEnvelopeSeedsDecode pins which seeds are valid: the fuzz corpus
// stays honest about which shapes the codec accepts.
func TestEnvelopeSeedsDecode(t *testing.T) {
	validKinds := map[string]ps.QueryKind{
		"q1": ps.KindPoint, "m": ps.KindMultiPoint, "a": ps.KindAggregate,
		"t": ps.KindTrajectory, "l": ps.KindLocationMonitoring,
		"r": ps.KindRegionMonitoring, "e": ps.KindEventDetection, "re": ps.KindRegionEvent,
	}
	decoded := 0
	for _, s := range envelopeSeeds {
		spec, err := wire.UnmarshalSpec([]byte(s))
		if err != nil {
			continue
		}
		decoded++
		if want, ok := validKinds[spec.QueryID()]; ok && spec.Kind() != want {
			t.Errorf("seed %s decoded to kind %v, want %v", s, spec.Kind(), want)
		}
	}
	if decoded < 10 {
		t.Errorf("only %d seeds decode; the corpus lost its valid shapes", decoded)
	}
}
