package cluster_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ps "repro"
	"repro/cluster"
	"repro/wire"
)

// killerProxy sits between the coordinator and one node, forwarding
// cluster frames one by one, each direction on its own (posted frames
// have no reply to wait for). While armed it drops the connection the
// moment a run_slot frame arrives — a deterministic node death exactly
// between offer gather and partial return; while armedBatch it drops it
// halfway through a submits frame, so the node is left holding half a
// frame. It also counts the frames the node sends back and shows every
// coordinator frame to tap, if set before the first connection.
type killerProxy struct {
	ln         net.Listener
	backend    string
	armed      atomic.Bool
	armedBatch atomic.Bool
	kills      atomic.Int32
	replies    atomic.Int64 // node -> coordinator frames
	tap        func(frame []byte)
}

func startKillerProxy(t *testing.T, backend string) *killerProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killerProxy{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close() })
	go p.run()
	return p
}

func (p *killerProxy) addr() string { return p.ln.Addr().String() }

func (p *killerProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *killerProxy) handle(conn net.Conn) {
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		conn.Close()
		return
	}
	back := make(chan struct{})
	go func() { // node -> coordinator
		defer close(back)
		defer conn.Close()
		br := bufio.NewReaderSize(backend, wire.ClusterFrameBuffer)
		for {
			frame, err := wire.ReadClusterFrame(br)
			if err != nil {
				return
			}
			p.replies.Add(1)
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	cr := bufio.NewReaderSize(conn, wire.ClusterFrameBuffer)
	for {
		frame, err := wire.ReadClusterFrame(cr)
		if err != nil {
			break
		}
		if p.tap != nil {
			p.tap(frame)
		}
		typ := frameType(frame)
		if p.armed.Load() && typ == wire.ClusterRunSlot {
			p.kills.Add(1)
			break // both connections close: the node sees EOF, the coordinator a dead read
		}
		if p.armedBatch.Load() && typ == wire.ClusterSubmits {
			p.kills.Add(1)
			backend.Write(frame[:len(frame)/2])
			break
		}
		if _, err := backend.Write(frame); err != nil {
			break
		}
	}
	conn.Close()
	backend.Close()
	<-back
}

// frameType is the type of an encoded frame, "" for one that does not
// decode.
func frameType(frame []byte) string {
	f, err := wire.DecodeClusterFrame(frame)
	if err != nil {
		return ""
	}
	return f.Type
}

// rogueConn is a raw connection to a node, as a foreign or zombie
// coordinator would hold one.
type rogueConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
}

func dialRogue(t *testing.T, addr string) *rogueConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rogueConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// post writes one frame at the given epoch and waits for nothing.
func (r *rogueConn) post(f wire.ClusterFrame, epoch uint64) {
	r.t.Helper()
	r.seq++
	f.V, f.Seq, f.Epoch, f.Node = wire.ClusterVersion, r.seq, epoch, "rogue"
	buf, err := wire.MarshalClusterFrame(f)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(buf); err != nil {
		r.t.Fatal(err)
	}
}

// call sends one request frame at the given epoch and returns the node's
// response.
func (r *rogueConn) call(f wire.ClusterFrame, epoch uint64) wire.ClusterFrame {
	r.t.Helper()
	r.post(f, epoch)
	frame, err := wire.ReadClusterFrame(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := wire.DecodeClusterFrame(frame)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// hijackNode says hello to a node as a foreign coordinator would, moving
// it onto the given epoch and a ten-sensor RWM world of the rogue's own.
// The connection stays open for further rogue frames.
func hijackNode(t *testing.T, addr string, epoch uint64) *rogueConn {
	t.Helper()
	r := dialRogue(t, addr)
	resp := r.call(wire.ClusterFrame{
		Type:   wire.ClusterHello,
		Config: &wire.NodeConfig{World: "rwm", Seed: 1, Sensors: 10, Shards: 1, Shard: 0},
	}, epoch)
	if resp.Type != wire.ClusterOK {
		t.Fatalf("hijack hello rejected: %+v", resp)
	}
	return r
}

// TestClusterNodeFailureMidSlot is the node-kill chaos test: shard 1's
// node dies between the coordinator's offer gather and the partial
// return. The slot must complete degraded — ps.ErrNodeUnavailable on the
// lost lane, healthy shards merged, no deadlock — and the next slot must
// recover the node by resync replay under a fresh epoch, after which
// reports are clean again.
func TestClusterNodeFailureMidSlot(t *testing.T) {
	const seed, sensors, slots = 21, 220, 4
	const down = 1 // the slot during which shard 1's node is killed

	addrs := startNodes(t, 4)
	proxy := startKillerProxy(t, addrs[1])
	addrs[1] = proxy.addr()

	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: seed, Sensors: sensors, Shards: 4,
		Nodes: addrs, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sa := co.Sharded()

	for q, box := range quadrantInner {
		if _, err := sa.Submit(ps.LocationMonitoringSpec{
			ID: fmt.Sprintf("lm-%d", q), Loc: box.Center(), Duration: slots, Budget: 160, Samples: 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 5; i++ {
				x := box.MinX + float64((i*37+slot*11+q*5)%13)
				y := box.MinY + float64((i*53+slot*29+q*3)%13)
				if _, err := sa.Submit(ps.PointSpec{
					ID: fmt.Sprintf("pt-%d-%d-%d", slot, q, i), Loc: ps.Pt(x, y), Budget: 12,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if slot == down {
			proxy.armed.Store(true)
		}
		rep := sa.RunSlot()
		requireConserved(t, slot, rep)
		if slot == down {
			proxy.armed.Store(false)
			if proxy.kills.Load() != 1 {
				t.Fatalf("slot %d: proxy killed %d connections, want 1", slot, proxy.kills.Load())
			}
			if len(rep.Degraded) != 1 || rep.Degraded[0].Shard != 1 {
				t.Fatalf("slot %d: Degraded = %v, want exactly shard 1", slot, rep.Degraded)
			}
			if !errors.Is(rep.Degraded[0].Err, ps.ErrNodeUnavailable) {
				t.Fatalf("slot %d: degraded error %v does not wrap ps.ErrNodeUnavailable", slot, rep.Degraded[0].Err)
			}
			// The lost lane contributed nothing this slot.
			for q := range quadrantInner {
				id := fmt.Sprintf("pt-%d-1-%d", slot, q%5)
				if rep.Value(id) != 0 || rep.Payment(id) != 0 {
					t.Fatalf("slot %d: shard 1 query %q has an outcome during the outage", slot, id)
				}
			}
			if rep.Shards[1].Queries != 0 {
				t.Fatalf("slot %d: dead shard's stats = %+v, want zero", slot, rep.Shards[1])
			}
			continue
		}
		if len(rep.Degraded) != 0 {
			t.Fatalf("slot %d: Degraded = %v, want none", slot, rep.Degraded)
		}
	}

	// The rejoin happened through a resync onto a bumped epoch.
	var node1 wire.ClusterMember
	for _, m := range co.Membership() {
		if m.Shard == 1 {
			node1 = m
		}
	}
	if node1.State != "live" || node1.Epoch != 2 {
		t.Fatalf("shard 1 member after rejoin = %+v, want live at epoch 2", node1)
	}
}

// TestClusterHeartbeatRejoin: with heartbeats on, a killed node rejoins
// between slots (the ping path redials and resyncs) and its liveness
// fact recovers without any slot traffic.
func TestClusterHeartbeatRejoin(t *testing.T) {
	const seed, sensors = 9, 80
	addr := startNode(t, "node0")
	proxy := startKillerProxy(t, addr)
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: seed, Sensors: sensors, Shards: 1,
		Nodes:      []string{proxy.addr()},
		Heartbeat:  20 * time.Millisecond,
		FactTTL:    150 * time.Millisecond,
		RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Kill the connection mid-slot, then let only heartbeats run.
	proxy.armed.Store(true)
	rep := co.Sharded().RunSlot()
	proxy.armed.Store(false)
	if len(rep.Degraded) != 1 {
		t.Fatalf("Degraded = %v, want the lone lane", rep.Degraded)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := co.Membership()
		if len(m) == 1 && m[0].State == "live" && m[0].Epoch >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never rejoined via heartbeat: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep := co.Sharded().RunSlot(); len(rep.Degraded) != 0 {
		t.Fatalf("slot after heartbeat rejoin degraded: %v", rep.Degraded)
	}
}

// TestClusterNodeRefusesOtherVersions: a hello from a v5 coordinator, an
// NDJSON line, is answered with exactly one error frame naming the
// version and a closed connection; the node stays up and serves the next
// coordinator that speaks its version.
func TestClusterNodeRefusesOtherVersions(t *testing.T) {
	addr := startNode(t, "node0")
	r := dialRogue(t, addr)
	const v5Hello = `{"v":5,"type":"hello","seq":1,"epoch":1,"node":"old","slot":0,"config":{"world":"rwm","seed":1,"sensors":10,"shards":1,"shard":0}}`
	if _, err := r.conn.Write([]byte(v5Hello + "\n")); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadClusterFrame(r.br)
	if err != nil {
		t.Fatalf("no answer to a v5 hello: %v", err)
	}
	const want = "unsupported cluster frame version 5 (this build speaks v6)"
	if resp, err := wire.DecodeClusterFrame(frame); err != nil || resp.Type != wire.ClusterError || !strings.Contains(resp.Error, want) {
		t.Errorf("answer to a v5 hello = %x (%v), want an error frame containing %q", frame, err, want)
	}
	if _, err := r.br.ReadByte(); err == nil {
		t.Error("connection still open after a v5 hello")
	}
	hijackNode(t, addr, 2)
}
