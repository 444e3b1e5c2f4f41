package cluster_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	ps "repro"
	"repro/cluster"
	"repro/wire"
)

// memberOf returns shard k's membership row.
func memberOf(t *testing.T, co *cluster.Coordinator, k int) wire.ClusterMember {
	t.Helper()
	for _, m := range co.Membership() {
		if m.Shard == k {
			return m
		}
	}
	t.Fatalf("no member for shard %d", k)
	return wire.ClusterMember{}
}

// TestClusterPostedFramesGetNoReply counts what the nodes send back: one
// frame for the hello, then exactly one per slot — the partial — however
// many submits the slot took and although every slot also commits.
func TestClusterPostedFramesGetNoReply(t *testing.T) {
	const seed, sensors, slots = 21, 220, 3
	addrs := startNodes(t, 4)
	proxies := make([]*killerProxy, len(addrs))
	for k := range addrs {
		proxies[k] = startKillerProxy(t, addrs[k])
		addrs[k] = proxies[k].addr()
	}
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: seed, Sensors: sensors, Shards: 4,
		Nodes: addrs, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for slot := 0; slot < slots; slot++ {
		for q, box := range quadrantInner {
			for i := 0; i < 5+3*q; i++ {
				x := box.MinX + float64((i*37+slot*11)%13)
				y := box.MinY + float64((i*53+slot*29)%13)
				if _, err := co.Sharded().Submit(ps.PointSpec{
					ID: fmt.Sprintf("pt-%d-%d-%d", slot, q, i), Loc: ps.Pt(x, y), Budget: 12,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		rep := co.Sharded().RunSlot()
		if len(rep.Degraded) != 0 {
			t.Fatalf("slot %d degraded: %v", slot, rep.Degraded)
		}
		if rep.Welfare <= 0 {
			t.Fatalf("slot %d: welfare %v, the posted submits did not reach the nodes", slot, rep.Welfare)
		}
		for k, p := range proxies {
			if got, want := p.replies.Load(), int64(1+slot+1); got != want {
				t.Fatalf("slot %d: node %d has sent %d frames, want %d (hello + one partial a slot)", slot, k, got, want)
			}
		}
	}
}

// specBatch is the batch of a submits frame carrying specs.
func specBatch(t *testing.T, specs ...ps.Spec) []byte {
	t.Helper()
	var batch []byte
	for _, spec := range specs {
		var err error
		if batch, err = ps.AppendSpecBinary(batch, spec); err != nil {
			t.Fatal(err)
		}
	}
	return batch
}

// TestClusterPostedSubmitRejected: a posted spec the node cannot apply is
// not dropped silently. A rogue hello at the lane's own epoch swaps the
// node's IntelLab replica for an RWM one, which has no GP model; the
// region-monitoring spec in the middle of the batch the coordinator then
// posts is valid on its own replica and refused by the node's. The next
// fence reports it: the lane degrades with ps.ErrNodeUnavailable and
// resyncs, and the replayed oplog leaves the rebuilt replica with exactly
// the coordinator's queries — the two specs the node had applied before
// the refusal once, not twice, the refused one and the one behind it not
// missing — as many as an in-process lane given the same submissions.
func TestClusterPostedSubmitRejected(t *testing.T) {
	batch := []ps.Spec{
		ps.LocationMonitoringSpec{ID: "lm-0", Loc: ps.Pt(3, 4), Duration: 4, Budget: 150, Samples: 3},
		ps.LocationMonitoringSpec{ID: "lm-1", Loc: ps.Pt(5, 9), Duration: 4, Budget: 150, Samples: 3},
		ps.RegionMonitoringSpec{ID: "rm", Region: ps.NewRect(1, 1, 7, 12), Duration: 4, Budget: 200},
		ps.EventDetectionSpec{ID: "ev", Loc: ps.Pt(4, 6), Duration: 4, Threshold: 0.5, Confidence: 0.6, BudgetPerSlot: 30},
	}
	ref, err := cluster.New(cluster.Config{World: "intellab", Seed: 5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Sharded().RunSlot()
	for _, spec := range batch {
		if _, err := ref.Sharded().Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	ref.Sharded().RunSlot()
	want := ref.Sharded().RunSlot().Shards[0].Queries

	addr := startNode(t, "node0")
	co, err := cluster.New(cluster.Config{
		World: "intellab", Seed: 5, Shards: 1,
		Nodes: []string{addr}, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if rep := co.Sharded().RunSlot(); len(rep.Degraded) != 0 {
		t.Fatalf("slot 0 degraded: %v", rep.Degraded)
	}

	// A fence first, so that slot 0's posted commit is applied to the
	// replica it was meant for, not to the rogue's.
	co.Sharded().CancelQuery("no-such-query")
	hijackNode(t, addr, 1)
	for _, spec := range batch {
		if _, err := co.Sharded().Submit(spec); err != nil {
			t.Fatalf("posted submit: %v", err)
		}
	}
	rep := co.Sharded().RunSlot()
	if len(rep.Degraded) != 1 || !errors.Is(rep.Degraded[0].Err, ps.ErrNodeUnavailable) {
		t.Fatalf("slot 1 Degraded = %v, want one ps.ErrNodeUnavailable lane", rep.Degraded)
	}
	if msg := rep.Degraded[0].Err.Error(); !strings.Contains(msg, "applied 1 of 2 posted frames") || !strings.Contains(msg, "GP") {
		t.Fatalf("slot 1 degraded with %q, want the refused spec's own error", msg)
	}

	rep = co.Sharded().RunSlot()
	if len(rep.Degraded) != 0 {
		t.Fatalf("slot 2 degraded after resync: %v", rep.Degraded)
	}
	if m := memberOf(t, co, 0); m.Epoch != 2 {
		t.Fatalf("member after resync = %+v, want epoch 2", m)
	}
	if rep.Value("rm") <= 0 {
		t.Errorf("slot 2: region monitor has value %v; the refused spec was lost", rep.Value("rm"))
	}
	if got := rep.Shards[0].Queries; got != want {
		t.Errorf("slot 2: the rebuilt lane runs %d queries, an in-process lane %d", got, want)
	}
}

// TestClusterPostedBatchStopsAtRefusedSpec watches the node's side of a
// refused spec, frame by frame: the batch holding it does not count as
// applied, the next fence answers with that spec's error instead of doing
// what it was asked, the batch posted behind it is not applied, and the
// specs in front of it are on the lane (until the resync a coordinator
// would now run rebuilds the lane without them).
func TestClusterPostedBatchStopsAtRefusedSpec(t *testing.T) {
	addr := startNode(t, "node0")
	r := hijackNode(t, addr, 1) // an RWM world: no GP model
	pt := func(id string) ps.Spec { return ps.PointSpec{ID: id, Loc: ps.Pt(30, 30), Budget: 10} }
	r.post(wire.ClusterFrame{Type: wire.ClusterSubmits, Specs: specBatch(t,
		pt("a1"), pt("a2"),
		ps.RegionMonitoringSpec{ID: "bad", Region: ps.NewRect(20, 20, 30, 30), Duration: 4, Budget: 200},
		pt("a3"),
	)}, 1)
	r.post(wire.ClusterFrame{Type: wire.ClusterSubmits, Specs: specBatch(t, pt("b1"))}, 1)
	resp := r.call(wire.ClusterFrame{Type: wire.ClusterCancel, ID: "a1"}, 1)
	if resp.Type != wire.ClusterError || resp.Applied != 0 || !strings.Contains(resp.Error, "GP") {
		t.Fatalf("fence after a refused spec = %+v, want its error and applied 0", resp)
	}

	// A second connection at the same epoch sees what is on the lane.
	probe := dialRogue(t, addr)
	for id, want := range map[string]bool{"a1": true, "a2": true, "bad": false, "a3": false, "b1": false} {
		if resp := probe.call(wire.ClusterFrame{Type: wire.ClusterCancel, ID: id}, 1); resp.Type != wire.ClusterOK || resp.Removed != want {
			t.Errorf("cancel %q = %+v, want removed %v", id, resp, want)
		}
	}

	// A batch that does not decode is refused whole.
	r = hijackNode(t, addr, 2)
	good := specBatch(t, pt("c1"), pt("c2"))
	r.post(wire.ClusterFrame{Type: wire.ClusterSubmits, Specs: good[:len(good)-1]}, 2)
	if resp := r.call(wire.ClusterFrame{Type: wire.ClusterPing}, 2); resp.Type != wire.ClusterError || resp.Applied != 0 || !strings.Contains(resp.Error, "bad spec batch") {
		t.Fatalf("fence after a truncated batch = %+v", resp)
	}
	if resp := dialRogue(t, addr).call(wire.ClusterFrame{Type: wire.ClusterCancel, ID: "c1"}, 2); resp.Removed {
		t.Error("a spec of a truncated batch is on the lane")
	}
}

// TestClusterPostedBatchCutMidLine: the connection dies halfway through a
// submits line. The node is left with half a frame and applies nothing;
// the coordinator sees a dead fence, degrades that slot, and the resync
// of the next one delivers the batch from the oplog.
func TestClusterPostedBatchCutMidLine(t *testing.T) {
	proxy := startKillerProxy(t, startNode(t, "node0"))
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: 9, Sensors: 80, Shards: 1,
		Nodes: []string{proxy.addr()}, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sa := co.Sharded()
	for i := 0; i < 3; i++ {
		if _, err := sa.Submit(ps.LocationMonitoringSpec{
			ID: fmt.Sprintf("lm-%d", i), Loc: ps.Pt(30+float64(5*i), 40), Duration: 4, Budget: 160, Samples: 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	proxy.armedBatch.Store(true)
	rep := sa.RunSlot()
	proxy.armedBatch.Store(false)
	if proxy.kills.Load() != 1 {
		t.Fatalf("proxy cut %d connections, want 1", proxy.kills.Load())
	}
	if len(rep.Degraded) != 1 || !errors.Is(rep.Degraded[0].Err, ps.ErrNodeUnavailable) {
		t.Fatalf("slot 0 Degraded = %v, want the lone lane unavailable", rep.Degraded)
	}
	rep = sa.RunSlot()
	if len(rep.Degraded) != 0 {
		t.Fatalf("slot 1 degraded, the lane did not heal: %v", rep.Degraded)
	}
	if m := memberOf(t, co, 0); m.State != "live" || m.Epoch != 2 {
		t.Fatalf("member after the cut = %+v, want live at epoch 2", m)
	}
	if got := rep.Shards[0].Queries; got != 3 {
		t.Fatalf("slot 1 runs %d queries, want the 3 of the batch that was cut", got)
	}
}

// TestClusterPostedCancelFollowsOpenBatch: canceling a query whose spec
// has not left the open batch yet finds it on the node — the batch goes
// out in front of the cancel — and the oplog keeps that order, so a
// resync does not bring the query back.
func TestClusterPostedCancelFollowsOpenBatch(t *testing.T) {
	proxy := startKillerProxy(t, startNode(t, "node0"))
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: 9, Sensors: 80, Shards: 1,
		Nodes: []string{proxy.addr()}, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sa := co.Sharded()
	for _, id := range []string{"keep", "drop"} {
		if _, err := sa.Submit(ps.LocationMonitoringSpec{ID: id, Loc: ps.Pt(30, 40), Duration: 6, Budget: 160, Samples: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if !sa.CancelQuery("drop") {
		t.Fatal("cancel of a query still in the open batch found nothing on the node")
	}
	if rep := sa.RunSlot(); len(rep.Degraded) != 0 || rep.Shards[0].Queries != 1 {
		t.Fatalf("slot 0: Degraded %v, %d queries, want one query on a healthy lane", rep.Degraded, rep.Shards[0].Queries)
	}
	proxy.armed.Store(true)
	rep := sa.RunSlot()
	proxy.armed.Store(false)
	if len(rep.Degraded) != 1 {
		t.Fatalf("slot 1 Degraded = %v, want the killed lane", rep.Degraded)
	}
	if rep := sa.RunSlot(); len(rep.Degraded) != 0 || rep.Shards[0].Queries != 1 {
		t.Fatalf("slot 2 after resync: Degraded %v, %d queries, want the one query that was not canceled", rep.Degraded, rep.Shards[0].Queries)
	}
}

// TestClusterPostedBurstIsCutIntoFrames: a burst of submits several times
// the cut size crosses as several submits frames, each well inside the
// node's read buffer, carrying the specs in submission order — and one
// fence vouches for them all.
func TestClusterPostedBurstIsCutIntoFrames(t *testing.T) {
	const burst = 2000
	var (
		mu      sync.Mutex
		frames  int
		longest int
		ids     []string
	)
	proxy := startKillerProxy(t, startNode(t, "node0"))
	proxy.tap = func(frame []byte) {
		f, err := wire.DecodeClusterFrame(frame)
		if err != nil || f.Type != wire.ClusterSubmits {
			return
		}
		specs, err := ps.DecodeSpecBatch(f.Specs)
		if err != nil {
			t.Errorf("a submits frame does not decode: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		frames++
		longest = max(longest, len(frame))
		for _, spec := range specs {
			ids = append(ids, spec.QueryID())
		}
	}
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: 3, Sensors: 200, Shards: 1,
		Nodes: []string{proxy.addr()}, RPCTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for i := 0; i < burst; i++ {
		spec := ps.PointSpec{ID: fmt.Sprintf("pt-%05d", i), Loc: ps.Pt(20+float64(i%40), 20+float64(i%37)), Budget: 10}
		if _, err := co.Sharded().Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	rep := co.Sharded().RunSlot()
	if len(rep.Degraded) != 0 || rep.Shards[0].Queries != burst {
		t.Fatalf("Degraded %v, %d queries on the lane, want %d", rep.Degraded, rep.Shards[0].Queries, burst)
	}
	mu.Lock()
	defer mu.Unlock()
	if frames < 3 || longest > wire.ClusterFrameBuffer/2+1024 {
		t.Errorf("%d specs crossed as %d frames, the longest %d bytes; want several, each about half of the node's %d-byte buffer", burst, frames, longest, wire.ClusterFrameBuffer)
	}
	if len(ids) != burst {
		t.Fatalf("%d specs crossed, want %d", len(ids), burst)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("pt-%05d", i); id != want {
			t.Fatalf("spec %d on the wire is %q, want %q: the frames are out of order", i, id, want)
		}
	}
}

// TestClusterPostedBatchViewsEndAtNextRead: the node decodes a submits
// frame's spec batch as a view into its read buffer, so it must submit
// the batch before it reads the next frame. Forty batches posted in one
// write, five times that buffer, make the node refill it over batches it
// has already read; every batch must still land whole, each query under
// its own ID.
func TestClusterPostedBatchViewsEndAtNextRead(t *testing.T) {
	const batches, perBatch = 40, 40
	r := hijackNode(t, startNode(t, "node0"), 1)
	pad := strings.Repeat("x", 160)
	id := func(b, i int) string { return fmt.Sprintf("b%02d-%02d-%s", b, i, pad) }
	var stream []byte
	for b := 0; b < batches; b++ {
		specs := make([]ps.Spec, perBatch)
		for i := range specs {
			specs[i] = ps.PointSpec{ID: id(b, i), Loc: ps.Pt(20+float64(i%30), 30), Budget: 10}
		}
		r.seq++
		var err error
		stream, err = wire.AppendClusterFrame(stream, wire.ClusterFrame{
			V: wire.ClusterVersion, Type: wire.ClusterSubmits, Seq: r.seq, Epoch: 1, Specs: specBatch(t, specs...),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(stream) < 4*wire.ClusterFrameBuffer {
		t.Fatalf("%d bytes posted, want several read buffers", len(stream))
	}
	if _, err := r.conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	if resp := r.call(wire.ClusterFrame{Type: wire.ClusterPing}, 1); resp.Type != wire.ClusterOK || resp.Applied != batches {
		t.Fatalf("fence after %d batches = %+v, want ok with all applied", batches, resp)
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			if resp := r.call(wire.ClusterFrame{Type: wire.ClusterCancel, ID: id(b, i)}, 1); resp.Type != wire.ClusterOK || !resp.Removed {
				t.Fatalf("query %d of batch %d is not on the lane: %+v", i, b, resp)
			}
		}
	}
}

// TestClusterDivergedReplicaHeals: a replica stepped behind the
// coordinator's back (an extra run_slot on a second connection at the
// current epoch) is out of lockstep for good — run_slot has stepped the
// fleet before it can refuse. The coordinator's next slot degrades exactly
// that shard and breaks the lane, so the slot after is clean on a replica
// rebuilt under the next epoch.
func TestClusterDivergedReplicaHeals(t *testing.T) {
	const seed, sensors, victim = 21, 220, 2
	addrs := startNodes(t, 4)
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
			ID: fmt.Sprintf("lm-%d", q), Loc: box.Center(), Duration: 4, Budget: 160, Samples: 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep := sa.RunSlot()
	requireConserved(t, 0, rep)
	if len(rep.Degraded) != 0 {
		t.Fatalf("slot 0 degraded: %v", rep.Degraded)
	}
	// A fence on every lane: slot 0's posted commits are applied before
	// the rogue frame, whichever goroutine the node schedules first.
	sa.CancelQuery("no-such-query")

	rogue := dialRogue(t, addrs[victim])
	if resp := rogue.call(wire.ClusterFrame{Type: wire.ClusterRunSlot, Slot: 1}, 1); resp.Type != wire.ClusterPartial {
		t.Fatalf("rogue run_slot: %+v", resp)
	}

	rep = sa.RunSlot()
	requireConserved(t, 1, rep)
	if len(rep.Degraded) != 1 || rep.Degraded[0].Shard != victim {
		t.Fatalf("slot 1 Degraded = %v, want exactly shard %d", rep.Degraded, victim)
	}
	if !strings.Contains(rep.Degraded[0].Err.Error(), "lockstep") {
		t.Fatalf("slot 1 degraded with %v, want the replica's lockstep error", rep.Degraded[0].Err)
	}
	rep = sa.RunSlot()
	requireConserved(t, 2, rep)
	if len(rep.Degraded) != 0 {
		t.Fatalf("slot 2 degraded, the diverged replica did not heal: %v", rep.Degraded)
	}
	for k := range addrs {
		want := uint64(1)
		if k == victim {
			want = 2
		}
		if m := memberOf(t, co, k); m.State != "live" || m.Epoch != want {
			t.Errorf("member %+v, want live at epoch %d", m, want)
		}
	}
}

// oversizedFrame is the start of a frame one byte past
// wire.MaxClusterFrame: its length prefix and a little of its body.
func oversizedFrame() []byte {
	head := binary.BigEndian.AppendUint32(nil, wire.MaxClusterFrame-3)
	return append(head, "pscpscpsc"...)
}

// TestClusterOversizedFrame: neither end buffers a frame past
// wire.MaxClusterFrame; its length prefix is enough to refuse it. A node
// hangs up on a peer that sends one, without an answer; a coordinator
// that is sent one counts it a transport fault.
func TestClusterOversizedFrame(t *testing.T) {
	rogue := dialRogue(t, startNode(t, "node0"))
	if _, err := rogue.conn.Write(oversizedFrame()); err != nil {
		t.Fatal(err)
	}
	rogue.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := rogue.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("node kept the connection after an oversized frame (read err = %v)", err)
	}

	// A fake node that answers hello with an oversized frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(oversizedFrame())
		io.Copy(io.Discard, conn) // hold the frame open until the coordinator hangs up
	}()
	_, err = cluster.New(cluster.Config{
		World: "rwm", Seed: 1, Sensors: 10, Shards: 1,
		Nodes: []string{ln.Addr().String()}, RPCTimeout: 30 * time.Second,
	})
	if !errors.Is(err, ps.ErrNodeUnavailable) || !strings.Contains(err.Error(), wire.ErrClusterFrameTooLarge.Error()) {
		t.Fatalf("New against an oversized hello response: err = %v, want ps.ErrNodeUnavailable naming the frame cap", err)
	}
}

// BenchmarkNetworkLaneSubmit measures one submit through the sharded
// layer and a network lane to a loopback node: validation, route, the
// spec's binary form appended to the lane's open batch and, once every
// few hundred submits, a batch cut into a posted frame; no round trip. A
// slot runs (off the clock) every 512 submits so the node's backlog stays
// slot-sized.
func BenchmarkNetworkLaneSubmit(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	node := cluster.NewNodeServer("node0")
	go node.Serve(ln)
	defer node.Close()
	co, err := cluster.New(cluster.Config{
		World: "rwm", Seed: 3, Sensors: 200, Shards: 1, Nodes: []string{ln.Addr().String()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	sa := co.Sharded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 511 {
			b.StopTimer()
			if rep := sa.RunSlot(); len(rep.Degraded) != 0 {
				b.Fatalf("degraded: %v", rep.Degraded)
			}
			b.StartTimer()
		}
		spec := ps.PointSpec{ID: fmt.Sprintf("p%d", i), Loc: ps.Pt(20+float64(i%40), 20+float64(i%37)), Budget: 10}
		if _, err := sa.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep := sa.RunSlot(); len(rep.Degraded) != 0 {
		b.Fatalf("degraded: %v", rep.Degraded)
	}
}
