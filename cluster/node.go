package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"

	ps "repro"
	"repro/wire"
)

// NodeServer is one shard node: a config-free frame server that builds
// its world replica and lane when a coordinator says hello (or resync)
// and then executes that coordinator's slot commands. All lane state is
// guarded by one mutex — a connection's frames are handled one at a time,
// and a node serves exactly one lane, so contention is not a concern;
// what the mutex buys is safety when a coordinator reconnects while an
// abandoned connection still drains.
type NodeServer struct {
	name string

	mu    sync.Mutex
	lane  *ps.NodeLane
	epoch uint64

	connMu sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewNodeServer builds a node that will introduce itself by name in
// membership facts.
func NewNodeServer(name string) *NodeServer {
	return &NodeServer{name: name, conns: map[net.Conn]struct{}{}}
}

// Serve accepts coordinator connections on ln until Close. It returns
// nil after a Close-initiated shutdown, otherwise the accept error.
func (s *NodeServer) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return fmt.Errorf("cluster: node %s is closed", s.name)
	}
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to drain. The lane state is kept: a coordinator may reconnect
// a closed-then-reopened listener, though it will resync regardless.
func (s *NodeServer) Close() {
	s.connMu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// connState is what a node remembers per connection about the posted
// frames it received since the last hello/resync: how many it applied, and
// the error of the first one it could not apply. After that error it
// applies no further posted frame and answers every fence with it, until
// a hello/resync starts over.
type connState struct {
	applied uint64
	failed  error
}

// handleConn runs one connection's frame loop: posted frames are applied
// silently, every other frame is answered. An oversized frame closes the
// connection; so does a frame that does not decode — a malformed frame, a
// peer built from another wire.ClusterVersion, a frame type this build
// does not have — after one error frame saying why (with sequence number
// zero: there is none to echo). Either way the coordinator sees a
// transport fault and resyncs. Each frame is handled, its spec batch
// submitted, before the next read: the frame is a view into br.
func (s *NodeServer) handleConn(conn net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, wire.ClusterFrameBuffer)
	// out is the connection's encode buffer: each response is encoded
	// into it and leaves in one write.
	var out []byte
	send := func(resp wire.ClusterFrame) error {
		var err error
		if out, err = wire.AppendClusterFrame(out[:0], resp); err != nil {
			return err
		}
		_, err = conn.Write(out)
		return err
	}
	var cs connState
	for {
		frame, err := wire.ReadClusterFrame(br)
		if err != nil {
			return
		}
		f, err := wire.DecodeClusterFrame(frame)
		if err != nil {
			_ = send(errFrame(wire.ClusterFrame{V: wire.ClusterVersion, Node: s.name}, err))
			return
		}
		if resp, ok := s.dispatch(f, &cs); ok && send(resp) != nil {
			return
		}
	}
}

// dispatch executes one frame against the node's lane and returns the
// response to send, if the frame gets one. hello and resync adopt the
// frame's epoch, (re)build the lane and reset the connection's posted
// count; every other frame is fenced — with a missing lane or any epoch
// mismatch a posted frame is not applied and a request earns a
// stale_epoch rejection carrying the node's current epoch, which tells the
// coordinator to resync onto a fresh generation.
func (s *NodeServer) dispatch(f wire.ClusterFrame, cs *connState) (wire.ClusterFrame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := wire.ClusterFrame{V: wire.ClusterVersion, Seq: f.Seq, Node: s.name, Epoch: s.epoch}
	switch f.Type {
	case wire.ClusterHello, wire.ClusterResync:
		*cs = connState{}
		lane, err := buildLane(*f.Config, f.Ops)
		if err != nil {
			return errFrame(resp, err), true
		}
		s.lane, s.epoch = lane, f.Epoch
		resp.Type, resp.Epoch = wire.ClusterOK, f.Epoch
		return resp, true
	}
	stale := s.lane == nil || f.Epoch != s.epoch
	if wire.ClusterPosted(f.Type) {
		if !stale && cs.failed == nil {
			if cs.failed = s.applyPosted(f); cs.failed == nil {
				cs.applied++
			}
		}
		return wire.ClusterFrame{}, false
	}
	resp.Applied = cs.applied
	if stale {
		resp.Type = wire.ClusterError
		resp.Code = wire.CodeStaleEpoch
		resp.Error = fmt.Sprintf("node %s at epoch %d rejects %s frame at epoch %d: %v",
			s.name, s.epoch, f.Type, f.Epoch, ps.ErrStaleEpoch)
		return resp, true
	}
	if cs.failed != nil {
		return errFrame(resp, cs.failed), true
	}
	switch f.Type {
	case wire.ClusterCancel:
		resp.Type = wire.ClusterOK
		resp.Removed = s.lane.Cancel(f.ID)
	case wire.ClusterRunSlot:
		p, err := s.lane.RunSlot(f.Slot)
		if err != nil {
			return errFrame(resp, err), true
		}
		resp.Type = wire.ClusterPartial
		resp.Slot, resp.Partial = f.Slot, p
	case wire.ClusterPing:
		// The node's self-report; the coordinator's fact table carries the
		// TTL policy, so a short node-chosen TTL is merely a floor.
		resp.Type = wire.ClusterOK
		resp.Facts = []wire.Fact{
			{Subject: s.name, Attribute: "alive", Value: "1", TTLMs: 2000},
			{Subject: s.name, Attribute: "epoch", Value: strconv.FormatUint(s.epoch, 10), TTLMs: 2000},
			{Subject: s.name, Attribute: "slot", Value: strconv.Itoa(s.lane.Slot()), TTLMs: 2000},
		}
	default:
		return errFrame(resp, fmt.Errorf("frame type %q is not a request", f.Type)), true
	}
	return resp, true
}

// applyPosted applies one submits or commit frame to the lane. Callers
// hold mu.
func (s *NodeServer) applyPosted(f wire.ClusterFrame) error {
	if f.Type == wire.ClusterCommit {
		return s.lane.Commit(f.Slot, f.Selected)
	}
	return submitBatch(s.lane, f.Specs)
}

// submitBatch decodes a batch of specs and submits them in order — what a
// submits frame and a replayed submits op both carry. A batch that does
// not decode submits nothing; a spec the lane refuses stops the batch
// there, and only a rebuild of the lane undoes the ones before it.
func submitBatch(lane *ps.NodeLane, batch []byte) error {
	specs, err := ps.DecodeSpecBatch(batch)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		if _, err := lane.Submit(spec); err != nil {
			return err
		}
	}
	return nil
}

// errFrame shapes an error response, carrying the stable wire code when
// the error wraps a ps sentinel so the coordinator can reconstruct it.
func errFrame(resp wire.ClusterFrame, err error) wire.ClusterFrame {
	resp.Type = wire.ClusterError
	resp.Error = err.Error()
	resp.Code = wire.ErrorCode(err)
	return resp
}

// buildLane constructs a fresh replica lane from a hello/resync config
// and deterministically replays the oplog into it.
func buildLane(cfg wire.NodeConfig, ops []wire.ClusterOp) (*ps.NodeLane, error) {
	world, err := BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	lane := ps.NewNodeLane(world, cfg.Shards, cfg.Shard)
	for i, op := range ops {
		if err := replayOp(lane, op); err != nil {
			return nil, fmt.Errorf("cluster: resync replay op %d (%s): %w", i, op.Op, err)
		}
	}
	return lane, nil
}

// replayOp applies one oplog entry. Slot ops with Ran=false reproduce a
// slot this lane degraded out of: the replica steps and applies the
// global commit but skips execution, exactly the timeline the
// coordinator served while the node was dead (the slot's one-shot
// queries stay lost by design).
func replayOp(lane *ps.NodeLane, op wire.ClusterOp) error {
	switch op.Op {
	case "submits":
		return submitBatch(lane, op.Specs)
	case "cancel":
		lane.Cancel(op.ID)
		return nil
	case "slot":
		if op.Ran {
			if _, err := lane.RunSlot(op.Slot); err != nil {
				return err
			}
		} else if err := lane.Advance(op.Slot); err != nil {
			return err
		}
		return lane.Commit(op.Slot, op.Selected)
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}
