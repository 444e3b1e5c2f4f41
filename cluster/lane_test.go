package cluster

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/wire"
)

// TestNetworkLanePostAllocations: once its output buffer has grown, a
// lane posts and flushes a slot's commit frame without allocating — the
// frame is encoded into the connection's buffer, not a fresh one.
func TestNetworkLanePostAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
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
		io.Copy(io.Discard, conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	l := &networkLane{co: &Coordinator{name: "coordinator", rpcTimeout: 10 * time.Second}, conn: conn, epoch: 1}
	selected := make([]int, 75)
	for i := range selected {
		selected[i] = 17*i + 3
	}
	commit := wire.ClusterFrame{Type: wire.ClusterCommit, Slot: 12, Selected: selected}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.post(commit); err != nil {
			t.Fatal(err)
		}
		if err := l.flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("posting and flushing a commit frame makes %.1f allocations, want 0", allocs)
	}
}
