package main

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	ps "repro"
	"repro/psclient"
	"repro/wire"
)

// The HTTP handler itself is covered in package serve (and end-to-end by
// package psclient); here we test the flag-level wiring.

func TestBuildWorld(t *testing.T) {
	tests := []struct {
		kind    string
		wantErr bool
	}{
		{"rwm", false},
		{"RWM", false},
		{"rnc", false},
		{"intellab", false},
		{"atlantis", true},
	}
	for _, tc := range tests {
		w, err := buildWorld(tc.kind, 1, 50)
		if tc.wantErr != (err != nil) {
			t.Errorf("buildWorld(%q): err = %v, wantErr %v", tc.kind, err, tc.wantErr)
		}
		if !tc.wantErr && w == nil {
			t.Errorf("buildWorld(%q) returned nil world", tc.kind)
		}
	}
}

// TestPsserveGracefulShutdownEndToEnd builds the real binary, serves
// real traffic, and delivers SIGINT mid-stream: the open watch stream
// must end with a server_closing frame and the process must exit
// cleanly (code 0) without being killed.
func TestPsserveGracefulShutdownEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the psserve binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "psserve-e2e")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserve a port; the race with the daemon re-binding it is
	// negligible on a loopback interface.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr, "-sensors", "50", "-interval", "10ms", "-drain", "4")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cmd.Process.Kill()

	c, err := psclient.Dial("http://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Healthz(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	q, err := c.Submit(ctx, ps.LocationMonitoringSpec{ID: "e2e-lm", Loc: ps.Pt(30, 30), Duration: 10_000, Budget: 500, Samples: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := q.Stream()
	defer st.Close()

	// One pushed slot proves the stream is live, then interrupt the
	// daemon mid-stream.
	sawUpdate := false
	for !sawUpdate {
		ev, err := st.Next(ctx)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		sawUpdate = ev.Event == wire.FrameSlotUpdate
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("SIGINT: %v", err)
	}

	sawClosing := false
	for !sawClosing {
		ev, err := st.Next(ctx)
		if err != nil {
			// The daemon is gone; acceptable only after the closing frame.
			break
		}
		sawClosing = ev.Event == wire.FrameServerClosing
	}
	if !sawClosing {
		t.Error("watch stream ended without a server_closing frame")
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
}
