// The cluster wire surface: versioned, length-prefixed binary frames
// between the coordinator and its shard nodes.
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
// Membership rides on the same frames: ping requests and their replies
// exchange facts (subject/attribute/value/TTL, wirelink-style); the
// coordinator expires them by TTL to drive live/suspect/dead states.
//
// # Framing
//
// A frame is a 4-byte big-endian length, counting the bytes after it,
// then the body:
//
//	body     = "psc" version type seq epoch slot applied section*
//	version  = one byte, ClusterVersion
//	type     = one byte, the frame type's code
//	seq, epoch, applied = uvarints; slot = a zig-zag varint
//	section  = tag payload, tags strictly ascending, each at most once
//
// The sections are node, config, ops, specs, id, selected, partial,
// facts, removed, error and code, in that order (tag 1 to 11); a field
// at its zero value is left out. Strings and counts are uvarint-length
// prefixed, ints zig-zag varints. The two bulk payloads, a submits
// frame's spec batch (also what a resync's submits ops carry) and the
// run_slot response's LanePartial, are raw bytes behind a 4-byte
// big-endian length, in ps's binary layouts (bit-exact floats, NaN
// included): the encoder writes the partial straight into the frame, and
// the decoder hands the spec batch on as it lies in the frame.
//
// # Views
//
// Both ends read a connection through a bufio.Reader sized with
// ClusterFrameBuffer. ReadClusterFrame returns a frame that fits that
// buffer as a view into it, valid until the next read, and
// DecodeClusterFrame's Specs (a frame's and each op's) are views into the
// frame it decodes. So a frame is decoded, and its spec batches applied,
// before the next read: the node submits a batch as it handles its
// frame. Everything else a decode returns is the caller's own.
//
// # Versions
//
// A node refuses a frame of any other version with one error frame that
// names it, then closes the connection. Frames before version 6 were JSON
// lines; their version is read from the line's leading {"v":N, so a
// coordinator built from an older release gets the same answer.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	ps "repro"
)

// ClusterVersion is the coordinator <-> node frame version. Version 2
// made submit and commit posted frames and the partial binary; version 3
// removed the frame and the oplog op that switched a lane's strategy at
// runtime (the hello/resync config fixes it); version 4 replaced the
// per-query JSON submit frame and oplog op with the binary submits batch;
// version 5 dropped the hello/resync config's strategy and carries lane
// partial layout 4; version 6 replaced the NDJSON lines, whose payloads
// rode as base64, with length-prefixed binary frames. A peer speaking
// another version is refused at hello.
const ClusterVersion = 6

// MaxClusterFrame bounds one frame, its length prefix included. Both ends
// refuse a longer one before they buffer any of it (ReadClusterFrame).
const MaxClusterFrame = 64 << 20

// ClusterFrameBuffer sizes both ends' buffered readers, so that the
// frames of a slot — a spec batch, a metro-scale partial (tens of KB) —
// arrive in one or two reads and are decoded in place
// (ReadClusterFrame).
const ClusterFrameBuffer = 64 << 10

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

// clusterTypes lists every frame type; a type's wire code is its index
// plus one.
var clusterTypes = [...]string{
	ClusterHello, ClusterResync, ClusterSubmits, ClusterCancel, ClusterRunSlot, ClusterCommit, ClusterPing,
	ClusterOK, ClusterPartial, ClusterError,
}

// clusterOpKinds lists the replayable oplog operations; an op's wire code
// is its index plus one.
var clusterOpKinds = [...]string{"submits", "cancel", "slot"}

// codeOf returns name's wire code in names, 0 for none.
func codeOf(names []string, name string) byte {
	for i, n := range names {
		if n == name {
			return byte(i + 1)
		}
	}
	return 0
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
	World string
	// Seed is the world's random seed; identical seeds produce identical
	// replicas, the foundation of the lockstep model.
	Seed int64
	// Sensors is the fleet size (rwm only; the other worlds fix it).
	Sensors int
	// Shards and Shard select the node's slice of the grid partition.
	Shards int
	Shard  int
}

// Fact is one membership assertion with a time-to-live, exchanged on
// ping frames: "subject's attribute has this value for the next TTL".
// The receiver expires facts locally; an expired liveness fact is what
// turns a node suspect.
type Fact struct {
	Subject   string
	Attribute string
	Value     string
	TTLMs     int64
}

// ClusterOp is one replayable operation of a lane's oplog. A resync
// frame carries the full log; the node rebuilds a fresh world replica
// and replays it deterministically, which reproduces the exact lane
// state — including slots the node missed while dead (Ran false: the
// replica steps and commits but skips execution, exactly the degraded
// timeline the coordinator served).
type ClusterOp struct {
	// Op is "submits", "cancel" or "slot".
	Op string
	// Specs is one posted batch, the very bytes of its submits frame
	// (submits ops).
	Specs []byte
	// ID names the canceled query (cancel ops).
	ID string
	// Slot, Selected and Ran describe one executed slot (slot ops):
	// the slot number, the global commit in replay order, and whether
	// this lane's partial made it into the merge.
	Slot     int
	Selected []int
	Ran      bool
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
//	submits       specs                           posted
//	cancel        id                              -> ok (removed)
//	run_slot      slot                            -> partial (slot, partial)
//	commit        slot, selected                  posted
//	ping          facts                           -> ok (facts)
//	error         error, code                     (response only)
//
// Every frame carries V, Type, Seq and Epoch; responses echo the
// request's Seq, the node's current Epoch and its Applied count.
type ClusterFrame struct {
	V     int
	Type  string
	Seq   uint64
	Epoch uint64
	Node  string

	Config *NodeConfig
	Ops    []ClusterOp
	// Specs is a submits frame's batch in ps's binary spec layout. The
	// frame codec carries it as it is; the node decodes it when it
	// applies the frame.
	Specs []byte
	ID    string

	Slot     int
	Selected []int
	// Partial is the run_slot result, in the partial's binary layout on
	// the wire.
	Partial *ps.LanePartial

	Facts []Fact

	// Applied is how many posted frames the node has applied on this
	// connection since the last hello/resync (responses only).
	Applied uint64
	Removed bool
	Error   string
	Code    string
}

// frameMagic opens every frame body, ahead of its version byte.
const frameMagic = "psc"

// The section tags, in the order a frame carries its sections.
const (
	tagNode = iota + 1
	tagConfig
	tagOps
	tagSpecs
	tagID
	tagSelected
	tagPartial
	tagFacts
	tagRemoved
	tagError
	tagCode
)

// MarshalClusterFrame encodes a frame, length prefix included, into a
// fresh buffer: AppendClusterFrame(nil, f).
func MarshalClusterFrame(f ClusterFrame) ([]byte, error) { return AppendClusterFrame(nil, f) }

// AppendClusterFrame appends f's encoding, length prefix included, to dst
// and returns the extended slice; on an error it returns dst unchanged.
// Appending to a buffer with room for the frame allocates nothing, so a
// connection that keeps its buffer encodes every frame in place.
func AppendClusterFrame(dst []byte, f ClusterFrame) ([]byte, error) {
	if f.V != ClusterVersion {
		return dst, fmt.Errorf("wire: cluster frame version %d (this build speaks v%d)", f.V, ClusterVersion)
	}
	typ := codeOf(clusterTypes[:], f.Type)
	if typ == 0 {
		return dst, fmt.Errorf("wire: unknown cluster frame type %q", f.Type)
	}
	for _, op := range f.Ops {
		if codeOf(clusterOpKinds[:], op.Op) == 0 {
			return dst, fmt.Errorf("wire: unknown cluster op %q", op.Op)
		}
	}
	start := len(dst)
	b := append(dst, 0, 0, 0, 0)
	b = append(b, frameMagic...)
	b = append(b, ClusterVersion, typ)
	b = binary.AppendUvarint(b, f.Seq)
	b = binary.AppendUvarint(b, f.Epoch)
	b = binary.AppendVarint(b, int64(f.Slot))
	b = binary.AppendUvarint(b, f.Applied)
	if f.Node != "" {
		b = appendStr(append(b, tagNode), f.Node)
	}
	if c := f.Config; c != nil {
		b = appendStr(append(b, tagConfig), c.World)
		b = binary.AppendVarint(b, c.Seed)
		b = binary.AppendVarint(b, int64(c.Sensors))
		b = binary.AppendVarint(b, int64(c.Shards))
		b = binary.AppendVarint(b, int64(c.Shard))
	}
	if len(f.Ops) > 0 {
		b = binary.AppendUvarint(append(b, tagOps), uint64(len(f.Ops)))
		for _, op := range f.Ops {
			b = append(b, codeOf(clusterOpKinds[:], op.Op))
			b = appendBlob(b, op.Specs)
			b = appendStr(b, op.ID)
			b = binary.AppendVarint(b, int64(op.Slot))
			b = appendInts(b, op.Selected)
			b = appendFlag(b, op.Ran)
		}
	}
	if len(f.Specs) > 0 {
		b = appendBlob(append(b, tagSpecs), f.Specs)
	}
	if f.ID != "" {
		b = appendStr(append(b, tagID), f.ID)
	}
	if len(f.Selected) > 0 {
		b = appendInts(append(b, tagSelected), f.Selected)
	}
	if f.Partial != nil {
		b = append(b, tagPartial, 0, 0, 0, 0)
		at := len(b)
		b = f.Partial.AppendBinary(b)
		binary.BigEndian.PutUint32(b[at-4:], uint32(len(b)-at))
	}
	if len(f.Facts) > 0 {
		b = binary.AppendUvarint(append(b, tagFacts), uint64(len(f.Facts)))
		for _, fa := range f.Facts {
			b = appendStr(b, fa.Subject)
			b = appendStr(b, fa.Attribute)
			b = appendStr(b, fa.Value)
			b = binary.AppendVarint(b, fa.TTLMs)
		}
	}
	if f.Removed {
		b = append(b, tagRemoved)
	}
	if f.Error != "" {
		b = appendStr(append(b, tagError), f.Error)
	}
	if f.Code != "" {
		b = appendStr(append(b, tagCode), f.Code)
	}
	if len(b)-start > MaxClusterFrame {
		return dst, ErrClusterFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b, nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBlob(b, blob []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(blob))), blob...)
}

func appendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeClusterFrame decodes and shape-checks one frame, length prefix
// included: the version must match, the type must be known, and per-type
// required fields are checked so a consumer can rely on them. The input
// is untrusted: every count is checked against the bytes that remain
// before anything is allocated for it, and no input panics. The Specs of
// the frame and of its ops are views into data.
func DecodeClusterFrame(data []byte) (ClusterFrame, error) {
	if v, ok := jsonFrameVersion(data); ok {
		return ClusterFrame{}, versionErr(v)
	}
	if len(data) < 4 {
		return ClusterFrame{}, fmt.Errorf("wire: cluster frame of %d bytes has no length prefix", len(data))
	}
	if n := binary.BigEndian.Uint32(data); uint64(n) != uint64(len(data)-4) {
		return ClusterFrame{}, fmt.Errorf("wire: cluster frame length prefix says %d bytes, %d follow", n, len(data)-4)
	}
	r := frameReader{b: data[4:]}
	if !bytes.HasPrefix(r.b, []byte(frameMagic)) {
		return ClusterFrame{}, errors.New("wire: not a cluster frame (bad magic)")
	}
	r.take(len(frameMagic))
	var f ClusterFrame
	if f.V = int(r.byte()); r.err == nil && f.V != ClusterVersion {
		return ClusterFrame{}, versionErr(f.V)
	}
	typ := r.byte()
	if r.err == nil && (typ == 0 || int(typ) > len(clusterTypes)) {
		return ClusterFrame{}, fmt.Errorf("wire: unknown cluster frame type code %d", typ)
	}
	if r.err == nil {
		f.Type = clusterTypes[typ-1]
	}
	f.Seq = r.uvarint()
	f.Epoch = r.uvarint()
	f.Slot = r.int()
	f.Applied = r.uvarint()
	last := 0
	for r.err == nil && len(r.b) > 0 {
		tag := int(r.byte())
		if tag <= last || tag > tagCode {
			return ClusterFrame{}, fmt.Errorf("wire: %s frame: section tag %d after %d", f.Type, tag, last)
		}
		last = tag
		switch tag {
		case tagNode:
			f.Node = r.str()
		case tagConfig:
			f.Config = &NodeConfig{World: r.str(), Seed: r.varint(), Sensors: r.int(), Shards: r.int(), Shard: r.int()}
		case tagOps:
			// An op is at least 9 bytes: code, 4-byte blob length, id,
			// slot, selected count, ran.
			if n, ok := r.count(9); ok {
				f.Ops = make([]ClusterOp, n)
				for i := range f.Ops {
					f.Ops[i] = r.op()
				}
			}
		case tagSpecs:
			f.Specs = r.blob()
		case tagID:
			f.ID = r.str()
		case tagSelected:
			f.Selected = r.ints()
		case tagPartial:
			if blob := r.blob(); r.err == nil {
				p, err := ps.DecodeLanePartial(blob)
				if err != nil {
					return ClusterFrame{}, fmt.Errorf("wire: %s frame: %v", f.Type, err)
				}
				f.Partial = p
			}
		case tagFacts:
			if n, ok := r.count(4); ok {
				f.Facts = make([]Fact, n)
				for i := range f.Facts {
					f.Facts[i] = Fact{Subject: r.str(), Attribute: r.str(), Value: r.str(), TTLMs: r.varint()}
				}
			}
		case tagRemoved:
			f.Removed = true
		case tagError:
			f.Error = r.str()
		case tagCode:
			f.Code = r.str()
		}
	}
	if r.err != nil {
		return ClusterFrame{}, fmt.Errorf("wire: bad cluster frame: %v", r.err)
	}
	switch f.Type {
	case ClusterHello, ClusterResync:
		if f.Config == nil {
			return ClusterFrame{}, fmt.Errorf(`wire: %s frame without a config`, f.Type)
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
			return ClusterFrame{}, errors.New("wire: submits frame without a spec batch")
		}
	case ClusterCancel:
		if f.ID == "" {
			return ClusterFrame{}, errors.New("wire: cancel frame without an id")
		}
	case ClusterPartial:
		if f.Partial == nil {
			return ClusterFrame{}, errors.New("wire: partial frame without a partial")
		}
	case ClusterError:
		if f.Error == "" {
			return ClusterFrame{}, errors.New("wire: error frame without an error")
		}
	}
	return f, nil
}

func versionErr(v int) error {
	return fmt.Errorf("wire: unsupported cluster frame version %d (this build speaks v%d)", v, ClusterVersion)
}

// jsonFrameVersion reads the version of a frame from before version 6: a
// JSON line that encoding/json opened with its "v" field.
func jsonFrameVersion(data []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"v":`))
	v, digits := 0, 0
	for ; ok && digits < len(rest) && digits < 9 && '0' <= rest[digits] && rest[digits] <= '9'; digits++ {
		v = 10*v + int(rest[digits]-'0')
	}
	return v, digits > 0
}

// frameReader reads a frame body's fields; the first fault sticks and
// every later read returns zero values.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n > len(r.b) {
		r.fail("truncated: want %d bytes, %d remain", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) int() int { return int(r.varint()) }

// count reads a collection's length, refusing one the remaining input
// cannot hold at elemMin bytes an element before the caller allocates.
func (r *frameReader) count(elemMin int) (int, bool) {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return 0, false
	}
	if n > uint64(len(r.b)/elemMin) {
		r.fail("%d elements of at least %d bytes, %d remain", n, elemMin, len(r.b))
		return 0, false
	}
	return int(n), true
}

func (r *frameReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes, %d remain", n, len(r.b))
		return ""
	}
	return string(r.take(int(n)))
}

// blob reads a 4-byte length and returns that many bytes in place; an
// empty blob is nil.
func (r *frameReader) blob() []byte {
	b := r.take(4)
	if b == nil {
		return nil
	}
	if n := binary.BigEndian.Uint32(b); n > 0 {
		return r.take(int(n))
	}
	return nil
}

func (r *frameReader) ints() []int {
	n, ok := r.count(1)
	if !ok {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.int()
	}
	return vs
}

func (r *frameReader) op() ClusterOp {
	code := r.byte()
	if r.err == nil && (code == 0 || int(code) > len(clusterOpKinds)) {
		r.fail("unknown cluster op code %d", code)
		return ClusterOp{}
	}
	op := ClusterOp{Specs: r.blob(), ID: r.str(), Slot: r.int(), Selected: r.ints()}
	switch ran := r.byte(); {
	case ran > 1:
		r.fail("ran byte %d", ran)
	case r.err == nil:
		op.Op, op.Ran = clusterOpKinds[code-1], ran == 1
	}
	return op
}

// ErrClusterFrameTooLarge reports a frame longer than MaxClusterFrame.
var ErrClusterFrameTooLarge = fmt.Errorf("wire: cluster frame exceeds %d bytes", MaxClusterFrame)

// jsonFramePeek is how much of a pre-v6 JSON frame ReadClusterFrame
// returns: enough for its {"v":N.
const jsonFramePeek = 16

// ReadClusterFrame reads one frame, length prefix included, from br,
// refusing one longer than MaxClusterFrame before it buffers any of it. A
// frame that fits br's buffer is returned as a view into it, valid until
// the next read; only a longer one is copied. Both ends rely on the view —
// the lane for a slot's partial, the node for a slot's spec batch — which
// is why both size br with ClusterFrameBuffer and decode a frame before
// they read the next.
//
// A peer from before version 6 sends a JSON line instead, whose first
// byte no valid length begins with; ReadClusterFrame returns the line's
// start, so that DecodeClusterFrame names its version.
func ReadClusterFrame(br *bufio.Reader) ([]byte, error) { return readFrame(br, MaxClusterFrame) }

func readFrame(br *bufio.Reader, limit int) ([]byte, error) {
	head, err := br.Peek(4)
	if len(head) > 0 && head[0] == '{' {
		line, _ := br.Peek(jsonFramePeek) // every JSON frame was longer
		_, _ = br.Discard(len(line))
		return line, nil
	}
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(head)
	if uint64(n) > uint64(limit-4) {
		return nil, ErrClusterFrameTooLarge
	}
	size := 4 + int(n)
	if size <= br.Size() {
		frame, err := br.Peek(size)
		if err != nil {
			return nil, err
		}
		_, _ = br.Discard(size) // cannot fail: the bytes are buffered
		return frame, nil
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, err
	}
	return frame, nil
}

// clusterWorlds enumerates the deterministic world factories a NodeConfig
// may name.
var clusterWorlds = map[string]bool{"rwm": true, "rnc": true, "intellab": true}
