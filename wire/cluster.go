// The cluster wire surface: versioned NDJSON frames between the
// coordinator and its shard nodes, one JSON object per line.
//
// The coordinator -> node direction is write-behind with a fence. submits
// and commit are posted frames: the coordinator writes them and moves on,
// the node applies them in arrival order and sends nothing back. Every
// other request (hello, resync, cancel, run_slot, ping) is a
// fence: it gets exactly one response, and that response carries applied,
// the number of posted frames the node has applied on this connection
// since the last hello/resync. A coordinator that posted more than the
// node applied — a frame was lost, or the node refused one, which it
// remembers and reports on the fence — treats the connection as broken.
// Nothing flows node -> coordinator except the answer to a fence, so the
// two ends can never block writing to each other.
//
// Queries travel in batches: a submits frame carries every spec the lane
// accepted since the frame it last wrote, back to back in ps's binary spec
// layout (ps.AppendSpecBinary). A batch is one posted frame however many
// specs it holds, and the node counts it applied only when it has
// submitted every one of them; a spec it refuses is a refused frame.
//
// Two guards make a flaky network safe for the bit-identical
// reconciliation guarantee, on posted frames and fences alike:
//
//   - Seq: every frame on a connection carries the next sequence number
//     and a response echoes its request's, so a late answer to an
//     abandoned request can never be mistaken for the current one.
//   - Epoch fencing: every frame carries the lane's resync epoch. A node
//     answers a fence from a superseded coordinator generation with
//     CodeStaleEpoch and does not apply a posted frame from one, and the
//     coordinator discards partials tagged with an old epoch — a rejoining
//     stale node can never contribute to a slot it did not run under the
//     current generation.
//
// The two bulk payloads, a submits frame's spec batch (also what a resync's
// submits ops carry) and the run_slot response's LanePartial, travel in
// ps's binary layouts (bit-exact floats, NaN included) as base64 strings
// inside the same JSON line; everything else is plain JSON.
//
// Membership rides on the same frames: ping requests and their replies
// exchange facts (subject/attribute/value/TTL, wirelink-style); the
// coordinator expires them by TTL to drive live/suspect/dead states.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"

	ps "repro"
)

// ClusterVersion is the coordinator <-> node frame version. Version 2
// made submit and commit posted frames and the partial binary; version 3
// removed the frame and the oplog op that switched a lane's strategy at
// runtime (the hello/resync config fixes it); version 4 replaced the
// per-query JSON submit frame and oplog op with the binary submits batch;
// version 5 dropped the hello/resync config's strategy and carries lane
// partial layout 4. A peer speaking another version is refused at hello.
const ClusterVersion = 5

// MaxClusterFrame bounds one frame line, newline included. Both ends
// refuse to buffer a longer one (ReadClusterLine).
const MaxClusterFrame = 64 << 20

// ClusterLineBuffer sizes both ends' buffered readers and writers, so that
// the lines of a slot — a spec batch, a metro-scale partial (tens of KB) —
// leave in one write, arrive in one or two reads and are decoded in place
// (ReadClusterLine).
const ClusterLineBuffer = 64 << 10

// Cluster frame type names. Coordinator -> node: hello/resync configure or
// rebuild the node's lane, submits/cancel manage queries,
// run_slot/commit drive the slot cycle, ping exchanges membership facts.
// Node -> coordinator, in answer to a fence only: ok, partial, error.
const (
	ClusterHello   = "hello"
	ClusterResync  = "resync"
	ClusterSubmits = "submits"
	ClusterCancel  = "cancel"
	ClusterRunSlot = "run_slot"
	ClusterCommit  = "commit"
	ClusterPing    = "ping"

	ClusterOK      = "ok"
	ClusterPartial = "partial"
	ClusterError   = "error"
)

// clusterTypes enumerates every valid ClusterFrame.Type value.
var clusterTypes = map[string]bool{
	ClusterHello:   true,
	ClusterResync:  true,
	ClusterSubmits: true,
	ClusterCancel:  true,
	ClusterRunSlot: true,
	ClusterCommit:  true,
	ClusterPing:    true,

	ClusterOK:      true,
	ClusterPartial: true,
	ClusterError:   true,
}

// ClusterPosted reports whether frames of the given type are posted:
// one-way, applied in order, never answered.
func ClusterPosted(typ string) bool { return typ == ClusterSubmits || typ == ClusterCommit }

// NodeConfig tells a shard node which world replica to build and which
// shard of it to serve. Nodes are config-free: the coordinator pushes
// this in every hello/resync, so a bare `psnode -listen` is a complete
// deployment.
type NodeConfig struct {
	// World names the deterministic world factory: "rwm", "rnc" or
	// "intellab".
	World string `json:"world"`
	// Seed is the world's random seed; identical seeds produce identical
	// replicas, the foundation of the lockstep model.
	Seed int64 `json:"seed"`
	// Sensors is the fleet size (rwm only; the other worlds fix it).
	Sensors int `json:"sensors,omitempty"`
	// Shards and Shard select the node's slice of the grid partition.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
}

// Fact is one membership assertion with a time-to-live, exchanged on
// ping frames: "subject's attribute has this value for the next TTL".
// The receiver expires facts locally; an expired liveness fact is what
// turns a node suspect.
type Fact struct {
	Subject   string `json:"subject"`
	Attribute string `json:"attribute"`
	Value     string `json:"value"`
	TTLMs     int64  `json:"ttl_ms"`
}

// ClusterOp is one replayable operation of a lane's oplog. A resync
// frame carries the full log; the node rebuilds a fresh world replica
// and replays it deterministically, which reproduces the exact lane
// state — including slots the node missed while dead (Ran false: the
// replica steps and commits but skips execution, exactly the degraded
// timeline the coordinator served).
type ClusterOp struct {
	// Op is "submits", "cancel" or "slot".
	Op string `json:"op"`
	// Specs is one posted batch, the very bytes of its submits frame
	// (submits ops).
	Specs []byte `json:"specs_bin,omitempty"`
	// ID names the canceled query (cancel ops).
	ID string `json:"id,omitempty"`
	// Slot, Selected and Ran describe one executed slot (slot ops):
	// the slot number, the global commit in replay order, and whether
	// this lane's partial made it into the merge.
	Slot     int   `json:"slot,omitempty"`
	Selected []int `json:"selected,omitempty"`
	Ran      bool  `json:"ran,omitempty"`
}

// ClusterMember is one node's membership row as reported by /healthz.
type ClusterMember struct {
	Node  string `json:"node"`
	Shard int    `json:"shard"`
	// Addr is the node's dial address; empty for in-process lanes.
	Addr string `json:"addr,omitempty"`
	// State is "local", "live", "suspect" or "dead".
	State string `json:"state"`
	// Epoch is the lane's current resync generation.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ClusterFrame is one coordinator <-> node frame. Type selects which
// optional fields are meaningful:
//
//	hello         config                          -> ok
//	resync        config, ops                     -> ok
//	submits       specs_bin                       posted
//	cancel        id                              -> ok (removed)
//	run_slot      slot                            -> partial (slot, partial)
//	commit        slot, selected                  posted
//	ping          facts                           -> ok (facts)
//	error         error, code                     (response only)
//
// Every frame carries V, Type, Seq and Epoch; responses echo the
// request's Seq, the node's current Epoch and its Applied count.
type ClusterFrame struct {
	V     int    `json:"v"`
	Type  string `json:"type"`
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch"`
	Node  string `json:"node,omitempty"`

	Config *NodeConfig `json:"config,omitempty"`
	Ops    []ClusterOp `json:"ops,omitempty"`
	// Specs is a submits frame's batch in ps's binary spec layout, base64
	// on the wire like any JSON []byte. The frame codec carries it as it
	// is; the node decodes it when it applies the frame.
	Specs []byte `json:"specs_bin,omitempty"`
	ID    string `json:"id,omitempty"`

	Slot     int   `json:"slot"`
	Selected []int `json:"selected,omitempty"`
	// Partial is the run_slot result. On the wire it is the "partial_bin"
	// field: the partial's binary layout, base64 like any JSON []byte.
	Partial *ps.LanePartial `json:"-"`

	Facts []Fact `json:"facts,omitempty"`

	// Applied is how many posted frames the node has applied on this
	// connection since the last hello/resync (responses only).
	Applied uint64 `json:"applied,omitempty"`
	Removed bool   `json:"removed,omitempty"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
}

// clusterFrameJSON is a frame's JSON shape: the frame's own fields plus
// the encoded partial.
type clusterFrameJSON struct {
	ClusterFrame
	PartialBin []byte `json:"partial_bin,omitempty"`
}

// MarshalClusterFrame encodes a frame as one JSON object (no trailing
// newline; NDJSON writers add it).
func MarshalClusterFrame(f ClusterFrame) ([]byte, error) {
	if f.V != ClusterVersion {
		return nil, fmt.Errorf("wire: cluster frame version %d (this build speaks v%d)", f.V, ClusterVersion)
	}
	if !clusterTypes[f.Type] {
		return nil, fmt.Errorf("wire: unknown cluster frame type %q", f.Type)
	}
	j := clusterFrameJSON{ClusterFrame: f}
	if f.Partial != nil {
		j.PartialBin = f.Partial.AppendBinary(nil)
	}
	return json.Marshal(j)
}

// DecodeClusterFrame decodes and shape-checks one cluster frame: the
// version must match, the type must be known, and per-type required
// fields are checked so a consumer can rely on them.
func DecodeClusterFrame(data []byte) (ClusterFrame, error) {
	var j clusterFrameJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return ClusterFrame{}, fmt.Errorf("wire: bad cluster frame JSON: %v", err)
	}
	f := j.ClusterFrame
	if f.V != ClusterVersion {
		return ClusterFrame{}, fmt.Errorf("wire: unsupported cluster frame version %d (this build speaks v%d)", f.V, ClusterVersion)
	}
	if !clusterTypes[f.Type] {
		return ClusterFrame{}, fmt.Errorf("wire: unknown cluster frame type %q", f.Type)
	}
	if j.PartialBin != nil {
		p, err := ps.DecodeLanePartial(j.PartialBin)
		if err != nil {
			return ClusterFrame{}, fmt.Errorf("wire: %s frame: %v", f.Type, err)
		}
		f.Partial = p
	}
	switch f.Type {
	case ClusterHello, ClusterResync:
		if f.Config == nil {
			return ClusterFrame{}, fmt.Errorf(`wire: %s frame without a "config"`, f.Type)
		}
		if !clusterWorlds[f.Config.World] {
			return ClusterFrame{}, fmt.Errorf("wire: %s frame names unknown world %q", f.Type, f.Config.World)
		}
		if f.Config.Shards < 1 || f.Config.Shard < 0 || f.Config.Shard >= f.Config.Shards {
			return ClusterFrame{}, fmt.Errorf("wire: %s frame shard %d of %d out of range",
				f.Type, f.Config.Shard, f.Config.Shards)
		}
	case ClusterSubmits:
		if len(f.Specs) == 0 {
			return ClusterFrame{}, errors.New(`wire: submits frame without a "specs_bin"`)
		}
	case ClusterCancel:
		if f.ID == "" {
			return ClusterFrame{}, errors.New(`wire: cancel frame without an "id"`)
		}
	case ClusterPartial:
		if f.Partial == nil {
			return ClusterFrame{}, errors.New(`wire: partial frame without a "partial_bin"`)
		}
	case ClusterError:
		if f.Error == "" {
			return ClusterFrame{}, errors.New(`wire: error frame without an "error"`)
		}
	}
	for _, op := range f.Ops {
		if !clusterOpKinds[op.Op] {
			return ClusterFrame{}, fmt.Errorf("wire: unknown cluster op %q", op.Op)
		}
	}
	return f, nil
}

// ErrClusterFrameTooLarge reports a frame line longer than MaxClusterFrame.
var ErrClusterFrameTooLarge = fmt.Errorf("wire: cluster frame exceeds %d bytes", MaxClusterFrame)

// ReadClusterLine reads one newline-terminated frame from br, refusing to
// buffer more than MaxClusterFrame bytes of it. A line that fits br's own
// buffer is returned as a view into it, valid until the next read; only a
// longer one is copied. Both ends rely on the view — the lane for a slot's
// partial, the node for a slot's spec batch — which is why both size br
// with ClusterLineBuffer and decode a line before they read the next.
func ReadClusterLine(br *bufio.Reader) ([]byte, error) { return readLine(br, MaxClusterFrame) }

func readLine(br *bufio.Reader, limit int) ([]byte, error) {
	var long []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(long)+len(chunk) > limit {
			return nil, ErrClusterFrameTooLarge
		}
		if err == nil && long == nil {
			return chunk, nil
		}
		long = append(long, chunk...)
		if err == nil {
			return long, nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// clusterWorlds enumerates the deterministic world factories a NodeConfig
// may name.
var clusterWorlds = map[string]bool{"rwm": true, "rnc": true, "intellab": true}

// clusterOpKinds enumerates the replayable oplog operations.
var clusterOpKinds = map[string]bool{"submits": true, "cancel": true, "slot": true}
