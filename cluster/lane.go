package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/wire"
)

// networkLane is the coordinator-side LaneRunner for a remote shard: one
// TCP connection speaking binary cluster frames, plus the oplog that lets
// a dead node rebuild the lane's exact state.
//
// The connection is write-behind with a fence (see repro/wire's cluster
// surface): submits and commit are posted — encoded into the connection's
// output buffer, counted, never answered — and every other request is a round
// trip whose response must report as many posted frames applied as the
// lane has written. Submitted specs gather in an open batch that is cut
// into one submits frame in front of the next frame the lane writes, so
// wire order is call order. Every public method serializes on mu, so the
// sharded layer's slot goroutine and the coordinator's heartbeat never
// interleave frames on the wire, and the lane always reads a fence's
// answer before it writes anything else.
//
// Any fault breaks the connection, and the next use redials and replays
// the oplog under a bumped epoch: a transport fault (dial, timeout, short
// or oversized read, sequence mismatch), an applied count short of the
// posted one, or an error frame. The lane validates what it sends against
// the coordinator's own replica, so a node that refuses a frame has
// diverged from it (a replica out of lockstep, a foreign coordinator's
// state) and only a rebuild heals that. An error frame's wire code still
// selects the ps sentinel the error wraps.
type networkLane struct {
	co    *Coordinator
	shard int
	name  string
	addr  string

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// out holds the frames written since the last flush, encoded back to
	// back; a flush hands them to the socket in one write and keeps the
	// buffer for the next ones.
	out   []byte
	seq   uint64
	epoch uint64
	// posted counts the submits and commit frames written on this
	// connection; the node's applied count must match it at every fence.
	posted uint64
	// batch is the open batch: the binary form of the specs accepted since
	// the last frame written, not yet on the wire nor in the oplog.
	batch []byte
	// ops is the lane's replayable history: one submits op per batch (the
	// bytes that were posted), cancels and one slot op per completed
	// slot. A resync ships the whole log; checkpointing to bound it is
	// future work.
	ops []wire.ClusterOp
	// ranSlot is the last slot whose RunLane partial was delivered; a
	// FinishSlot for any other slot records Ran=false (degraded slot).
	ranSlot int
	// lastAnswer is when the node last answered a fence well, in Unix
	// nanoseconds (0: never). Membership reads it without mu.
	lastAnswer atomic.Int64
}

// batchCut is the size past which the open batch is cut without waiting
// for the next frame: a burst of submits becomes several frames, each
// about half the node's read buffer (wire.ClusterFrameBuffer), never one
// frame near wire.MaxClusterFrame.
const batchCut = wire.ClusterFrameBuffer / 2

// keptOut is the largest output buffer a flush keeps: a resync frame,
// which carries the whole oplog, may grow it far past a slot's frames.
const keptOut = 4 * wire.ClusterFrameBuffer

func newNetworkLane(co *Coordinator, shard int, name, addr string) *networkLane {
	return &networkLane{co: co, shard: shard, name: name, addr: addr, ranSlot: -1}
}

// Epoch returns the lane's current resync generation.
func (l *networkLane) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// connect eagerly establishes the lane (used by New for fail-fast
// startup).
func (l *networkLane) connect() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ensure()
}

// ensure makes the lane usable: if the connection is down it redials and
// replays state under epoch+1 — a hello when the lane has no history yet,
// otherwise a resync carrying the full oplog. Callers hold mu.
func (l *networkLane) ensure() error {
	if l.conn != nil {
		return nil
	}
	d := net.Dialer{Timeout: l.co.rpcTimeout}
	conn, err := d.Dial("tcp", l.addr)
	if err != nil {
		return fmt.Errorf("cluster: lane %d (%s) dial %s: %v: %w", l.shard, l.name, l.addr, err, ps.ErrNodeUnavailable)
	}
	// With no connection yet cut cannot fail: the open batch just joins
	// the oplog the resync ships.
	_ = l.cut()
	l.conn = conn
	l.br = bufio.NewReaderSize(conn, wire.ClusterFrameBuffer)
	l.posted = 0
	cfg := l.co.nodeConfig(l.shard)
	f := wire.ClusterFrame{Type: wire.ClusterHello, Config: &cfg}
	if len(l.ops) > 0 {
		f.Type = wire.ClusterResync
		f.Ops = l.ops
	}
	next := l.epoch + 1
	if _, err := l.call(f, next, wire.ClusterOK); err != nil {
		return err
	}
	l.epoch = next
	return nil
}

// breakConn tears the connection down; the next use redials and resyncs.
func (l *networkLane) breakConn() {
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn, l.br, l.out = nil, nil, l.out[:0]
}

// transportErr breaks the lane and wraps the fault as node-unavailable.
func (l *networkLane) transportErr(stage string, err error) error {
	l.breakConn()
	return fmt.Errorf("cluster: lane %d (%s) %s: %v: %w", l.shard, l.name, stage, err, ps.ErrNodeUnavailable)
}

// cut closes the open batch, if there is one: its bytes become the
// oplog's next op and, on a live connection, one posted submits frame.
// The oplog comes first — Submit has already answered for these specs, so
// a batch whose post fails must still reach the node, by resync. Callers
// hold mu.
func (l *networkLane) cut() error {
	if len(l.batch) == 0 {
		return nil
	}
	specs := bytes.Clone(l.batch)
	l.batch = l.batch[:0]
	l.ops = append(l.ops, wire.ClusterOp{Op: "submits", Specs: specs})
	if l.conn == nil {
		return nil
	}
	return l.post(wire.ClusterFrame{Type: wire.ClusterSubmits, Specs: specs})
}

// write cuts the open batch in front of f, stamps f with the next
// sequence number and the given epoch and encodes it into the output
// buffer. Callers hold mu.
func (l *networkLane) write(f wire.ClusterFrame, epoch uint64) error {
	if err := l.cut(); err != nil {
		return err
	}
	l.seq++
	f.V, f.Seq, f.Epoch, f.Node = wire.ClusterVersion, l.seq, epoch, l.co.name
	out, err := wire.AppendClusterFrame(l.out, f)
	if err != nil {
		return fmt.Errorf("cluster: lane %d (%s) encode %s: %w", l.shard, l.name, f.Type, err)
	}
	l.out = out
	return nil
}

// post writes a one-way frame (submits, commit), flushing once the output
// buffer holds a read buffer's worth. A nil return means the frame is on
// its way, not that the node has it: a frame the node never applies shows
// up as a short applied count at the next fence. Callers hold mu.
func (l *networkLane) post(f wire.ClusterFrame) error {
	if err := l.write(f, l.epoch); err != nil {
		return err
	}
	l.posted++
	if len(l.out) >= wire.ClusterFrameBuffer {
		return l.flush()
	}
	return nil
}

// flush writes the buffered frames to the socket in one write, under the
// lane's RPC timeout. Callers hold mu.
func (l *networkLane) flush() error {
	err := l.conn.SetWriteDeadline(time.Now().Add(l.co.rpcTimeout))
	if err == nil {
		_, err = l.conn.Write(l.out)
	}
	if cap(l.out) > keptOut {
		l.out = nil
	}
	l.out = l.out[:0]
	if err != nil {
		return l.transportErr("flush", err)
	}
	return nil
}

// call runs one fence: it flushes everything posted so far behind the
// request, reads the one response and checks it — the request's sequence
// number echoed, the same epoch (a mismatch, or an explicit stale_epoch
// rejection, counts an epoch rejection and surfaces ps.ErrStaleEpoch),
// every posted frame applied, not an error frame, and of the wanted type.
// Any failure breaks the lane. A good response is also what keeps the
// node live (lastAnswer). Callers hold mu.
func (l *networkLane) call(f wire.ClusterFrame, epoch uint64, want string) (wire.ClusterFrame, error) {
	if err := l.write(f, epoch); err != nil {
		return wire.ClusterFrame{}, err
	}
	if err := l.flush(); err != nil {
		return wire.ClusterFrame{}, err
	}
	if err := l.conn.SetReadDeadline(time.Now().Add(l.co.rpcTimeout)); err != nil {
		return wire.ClusterFrame{}, l.transportErr("deadline", err)
	}
	frame, err := wire.ReadClusterFrame(l.br)
	if err != nil {
		return wire.ClusterFrame{}, l.transportErr("read "+f.Type+" response", err)
	}
	resp, err := wire.DecodeClusterFrame(frame)
	if err != nil {
		return wire.ClusterFrame{}, l.transportErr("decode "+f.Type+" response", err)
	}
	if resp.Seq != l.seq {
		return wire.ClusterFrame{}, l.transportErr(f.Type, fmt.Errorf("response seq %d for request seq %d", resp.Seq, l.seq))
	}
	if resp.Type == wire.ClusterError && resp.Code == wire.CodeStaleEpoch {
		l.co.metrics().epochRejections.Inc()
		l.breakConn()
		return wire.ClusterFrame{}, fmt.Errorf("cluster: lane %d (%s): node fenced epoch %d (node at %d): %w",
			l.shard, l.name, epoch, resp.Epoch, ps.ErrStaleEpoch)
	}
	if resp.Epoch != epoch {
		l.co.metrics().epochRejections.Inc()
		l.breakConn()
		return wire.ClusterFrame{}, fmt.Errorf("cluster: lane %d (%s): %s response tagged epoch %d, want %d: %w",
			l.shard, l.name, f.Type, resp.Epoch, epoch, ps.ErrStaleEpoch)
	}
	if resp.Applied != l.posted {
		lost := fmt.Errorf("node applied %d of %d posted frames", resp.Applied, l.posted)
		if resp.Type == wire.ClusterError { // the posted frame the node refused
			lost = fmt.Errorf("%v: %s", lost, resp.Error)
		}
		return wire.ClusterFrame{}, l.transportErr(f.Type, lost)
	}
	if resp.Type == wire.ClusterError {
		l.breakConn()
		err := fmt.Errorf("cluster: lane %d (%s): node refused %s: %s", l.shard, l.name, f.Type, resp.Error)
		if s := wire.SentinelError(resp.Code); s != nil {
			err = fmt.Errorf("%w: %w", err, s)
		}
		return wire.ClusterFrame{}, err
	}
	if resp.Type != want {
		return wire.ClusterFrame{}, l.transportErr(f.Type, fmt.Errorf("unexpected %s response", resp.Type))
	}
	l.lastAnswer.Store(time.Now().UnixNano())
	return resp, nil
}

// Submit appends the spec's binary form to the open batch; the batch goes
// out in front of the lane's next frame, or here once it is batchCut
// long. The node's answer would be a pure function of the spec and the
// lockstep slot number, so the lane computes it (ps.DescribeSubmission)
// instead of waiting for it. The spec is validated here, against the
// coordinator's replica of the node's world: whatever reaches the oplog
// is something the node, and every later resync replay, will accept.
func (l *networkLane) Submit(spec ps.Spec) (ps.SubmittedQuery, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return ps.SubmittedQuery{}, err
	}
	if err := spec.Validate(l.co.world); err != nil {
		return ps.SubmittedQuery{}, err
	}
	batch, err := ps.AppendSpecBinary(l.batch, spec)
	if err != nil {
		return ps.SubmittedQuery{}, err
	}
	if l.batch = batch; len(batch) >= batchCut {
		// A post that fails here has broken the lane, but the spec is in
		// the oplog: it is submitted, and the next fence resyncs.
		_ = l.cut()
	}
	return ps.DescribeSubmission(spec, l.co.sa.NextSlot()), nil
}

// Cancel withdraws a query on the node; a broken lane reports false (the
// query is not canceled anywhere, consistently).
func (l *networkLane) Cancel(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return false
	}
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterCancel, ID: id}, l.epoch, wire.ClusterOK)
	if err != nil {
		return false
	}
	if resp.Removed {
		l.ops = append(l.ops, wire.ClusterOp{Op: "cancel", ID: id})
	}
	return resp.Removed
}

// RunLane commands the node to step its replica into slot t, run the
// shard's selection and return the partial. The offers argument is
// ignored: the node computes the identical slice from its own replica.
// run_slot is the slot's fence: the batch of specs submitted since the
// last one reaches the node ahead of it, and its response vouches for it.
func (l *networkLane) RunLane(t int, _ []ps.Offer) (*ps.LanePartial, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := l.call(wire.ClusterFrame{Type: wire.ClusterRunSlot, Slot: t}, l.epoch, wire.ClusterPartial)
	if err != nil {
		return nil, err
	}
	m := l.co.metrics()
	m.partialRTT.Observe(time.Since(start).Seconds())
	m.replicaStep.Observe(resp.Partial.StepMs / 1e3)
	l.ranSlot = t
	return resp.Partial, nil
}

// FinishSlot appends the slot's global commit to the oplog and, when the
// lane delivered this slot's partial over a live connection, posts the
// commit frame and flushes it, so the node's replica applies it while the
// coordinator goes on to publish the slot and take the next one's
// submits. A commit the node fails to apply surfaces at the next fence.
// Degraded slots send nothing: the node missed the slot entirely and will
// reproduce it (Ran=false: step + commit, no execution) from the oplog on
// resync.
func (l *networkLane) FinishSlot(t int, selectedIDs []int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The oplog keeps call order, specs before the slot. A post that fails
	// here has broken the lane, which the check below sees.
	_ = l.cut()
	ran := l.ranSlot == t
	l.ops = append(l.ops, wire.ClusterOp{Op: "slot", Slot: t, Selected: selectedIDs, Ran: ran})
	if !ran || l.conn == nil {
		return nil
	}
	if err := l.post(wire.ClusterFrame{Type: wire.ClusterCommit, Slot: t, Selected: selectedIDs}); err != nil {
		return err
	}
	return l.flush()
}

// ping is the heartbeat's empty fence: its answer keeps the node live. A
// broken lane is redialed (and resynced) first, so rejoins happen between
// slots.
func (l *networkLane) ping() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensure(); err != nil {
		return
	}
	_, _ = l.call(wire.ClusterFrame{Type: wire.ClusterPing}, l.epoch, wire.ClusterOK)
}

// close shuts the connection without clearing lane state.
func (l *networkLane) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.breakConn()
}
