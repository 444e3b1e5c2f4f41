package wire_test

import (
	"bytes"
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

// clusterSeeds are valid (and near-valid) cluster frames covering every
// frame type, the oplog shapes and the documented error cases.
var clusterSeeds = []string{
	`{"v":4,"type":"hello","seq":1,"epoch":1,"node":"n0","slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0}}`,
	`{"v":4,"type":"resync","seq":2,"epoch":2,"node":"n0","slot":0,"config":{"world":"intellab","seed":7,"shards":2,"shard":1,"strategy":"lazy"},"ops":[{"op":"submits","specs_bin":"AQACcTEAAAAAAAA+QAAAAAAAAD5AAAAAAAAALkA="},{"op":"cancel","id":"q2"},{"op":"slot","slot":0,"selected":[3,1,7],"ran":true},{"op":"slot","slot":1,"ran":false}]}`,
	// A batch of two specs: an aggregate and a two-waypoint trajectory.
	`{"v":4,"type":"submits","seq":3,"epoch":1,"slot":0,"specs_bin":"AQIBYQAAAAAAADRAAAAAAAAANEAAAAAAAABEQAAAAAAAAERAAAAAAABAb0ABAwF0AwAAAAAAADlAAAAAAAAARUAAAAAAAIBLQAAAAAAAAEVAAAAAAADAYkA="}`,
	`{"v":4,"type":"cancel","seq":4,"epoch":1,"slot":0,"id":"q1"}`,
	`{"v":4,"type":"run_slot","seq":6,"epoch":1,"slot":3}`,
	`{"v":4,"type":"commit","seq":7,"epoch":1,"slot":3,"selected":[5,2,9]}`,
	`{"v":4,"type":"ping","seq":8,"epoch":1,"slot":0,"facts":[{"subject":"n0","attribute":"alive","value":"1","ttl_ms":1500}]}`,
	`{"v":4,"type":"ok","seq":4,"epoch":1,"slot":0,"applied":17,"removed":true}`,
	`{"v":4,"type":"ok","seq":2,"epoch":2,"slot":0}`,
	// A partial: slot 3, two committed sensors, one point outcome.
	`{"v":4,"type":"partial","seq":6,"epoch":1,"slot":3,"applied":4,"partial_bin":"AwYYBAMKBAMICgAAAAAAAOA/AAAAAAAAAkACBAAAAAAAANA/AAAAAAAA+D8CAnExAAAAAAAADEAAAAAAAAAA6D8AAAAAAAAMQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAABkACAnExAAAAAAAADEACAnExAAAAAAAA4D8AAAAAAAAAAAAAAAAAmpmZmZmZ2T+amZmZmZm5Pw=="}`,
	`{"v":4,"type":"error","seq":9,"epoch":2,"slot":0,"applied":3,"error":"ps: stale cluster epoch","code":"stale_epoch"}`,
	`{"v":1,"type":"ping","seq":1,"epoch":1,"slot":0}`,                                                                       // wrong version
	`{"v":3,"type":"ping","seq":1,"epoch":1,"slot":0}`,                                                                       // wrong version: the one before this
	`{"v":4,"type":"warp","seq":1,"epoch":1,"slot":0}`,                                                                       // unknown type
	`{"v":4,"type":"hello","seq":1,"epoch":1,"slot":0}`,                                                                      // missing config
	`{"v":4,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"moon","shards":1,"shard":0}}`,                       // unknown world
	`{"v":4,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","shards":2,"shard":2}}`,                        // shard out of range
	`{"v":4,"type":"submits","seq":1,"epoch":1,"slot":0}`,                                                                    // missing batch
	`{"v":4,"type":"cancel","seq":1,"epoch":1,"slot":0}`,                                                                     // missing id
	`{"v":4,"type":"partial","seq":1,"epoch":1,"slot":0}`,                                                                    // missing partial
	`{"v":4,"type":"error","seq":1,"epoch":1,"slot":0}`,                                                                      // missing error text
	`{"v":4,"type":"resync","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","shards":1,"shard":0},"ops":[{"op":"warp"}]}`, // unknown op
	`{"v":4,"type":"submitted","seq":3,"epoch":1,"slot":0,"id":"a"}`,                                                         // v1's submit reply: gone
	`{"v":4,"type":"partial","seq":6,"epoch":1,"slot":3,"partial":{"slot":3,"offers":12,"queries":2}}`,                       // v1's JSON partial: gone
	`{"v":4,"type":"partial","seq":6,"epoch":1,"slot":3,"partial_bin":"AwYYBAMKBAMI"}`,                                       // truncated partial
	`{"v":4,"type":"partial","seq":6,"epoch":1,"slot":3,"partial_bin":"not base64"}`,
	`{}`, `null`, `[]`, `"ping"`, `{"type":12}`, `{"v":-1,"type":"ping"}`,
}

// FuzzDecodeClusterFrame: arbitrary bytes never panic the cluster frame
// decoder, and every successfully decoded frame re-encodes to a stable
// canonical form (encode∘decode is a fixed point on the codec's own
// output), mirroring FuzzDecodeEventFrame.
func FuzzDecodeClusterFrame(f *testing.F) {
	for _, s := range clusterSeeds {
		f.Add([]byte(s))
	}
	for _, tc := range removedClusterSeeds {
		f.Add([]byte(tc.frame))
	}
	f.Add([]byte(nil))
	f.Add([]byte(`{"v":4,"type":"commit","seq":18446744073709551615,"epoch":1,"slot":-9,"selected":[0,0,0]}`))
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
			t.Fatalf("re-decode of %s: %v", encoded, err)
		}
		encoded2, err := wire.MarshalClusterFrame(back)
		if err != nil {
			t.Fatalf("re-encode of %s: %v", encoded, err)
		}
		if !bytes.Equal(encoded, encoded2) {
			t.Fatalf("frame encoding is not a fixed point:\n first  %s\n second %s", encoded, encoded2)
		}
	})
}

// TestClusterSeedsDecode pins which cluster seeds are valid, keeping the
// fuzz corpus honest about the shapes the decoder accepts.
func TestClusterSeedsDecode(t *testing.T) {
	decoded := 0
	for _, s := range clusterSeeds {
		if _, err := wire.DecodeClusterFrame([]byte(s)); err == nil {
			decoded++
		}
	}
	if decoded != 11 {
		t.Errorf("%d cluster seeds decode, want exactly the 11 valid ones", decoded)
	}
}

// removedClusterSeeds are what a v2 peer used to switch a lane's strategy
// at runtime, v3's per-query JSON submit frame and oplog op, and hellos
// of both versions: each must be refused, for the reason given.
var removedClusterSeeds = []struct{ frame, wantErr string }{
	{`{"v":4,"type":"set_strategy","seq":5,"epoch":1,"slot":0,"strategy":"lazy"}`, "unknown cluster frame type"},
	{`{"v":4,"type":"resync","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","shards":1,"shard":0},"ops":[{"op":"strategy","strategy":"serial"}]}`, `unknown cluster op "strategy"`},
	{`{"v":4,"type":"submit","seq":3,"epoch":1,"slot":0,"spec":{"v":1,"type":"point","id":"q1","loc":{"x":30,"y":30},"budget":15}}`, "unknown cluster frame type"},
	{`{"v":4,"type":"resync","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","shards":1,"shard":0},"ops":[{"op":"submit","spec":{"v":1,"type":"point","id":"q1","loc":{"x":30,"y":30},"budget":15}}]}`, `unknown cluster op "submit"`},
	{`{"v":2,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0}}`, "unsupported cluster frame version 2 (this build speaks v4)"},
	{`{"v":3,"type":"hello","seq":1,"epoch":1,"slot":0,"config":{"world":"rwm","seed":21,"sensors":220,"shards":4,"shard":0}}`, "unsupported cluster frame version 3 (this build speaks v4)"},
}

func TestClusterFrameRefusesRemovedStrategySurface(t *testing.T) {
	for _, tc := range removedClusterSeeds {
		_, err := wire.DecodeClusterFrame([]byte(tc.frame))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("DecodeClusterFrame(%s) = %v, want an error containing %q", tc.frame, err, tc.wantErr)
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
