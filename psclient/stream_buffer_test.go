package psclient

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/wire"
)

// TestStreamLongFrameArrivesWhole: a frame many times the stream's
// starting buffer — a canceled frame with a 200 KiB error text — arrives
// whole, and the stream goes on to its terminal state.
func TestStreamLongFrameArrivesWhole(t *testing.T) {
	long := strings.Repeat("e", 200<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"v":2,"event":"accepted","id":"lq","slot":-1,"start":0,"end":3}`)
		fmt.Fprintf(w, `{"v":2,"event":"canceled","id":"lq","slot":1,"error":%q,"code":"canceled"}`+"\n", long)
	}))
	defer ts.Close()
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stream("lq")
	defer st.Close()
	var frames []wire.EventFrame
	for f, err := range st.All(context.Background()) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		frames = append(frames, f)
	}
	if len(frames) != 2 || frames[1].Event != wire.FrameCanceled || frames[1].Error != long {
		t.Fatalf("got %d frames, the last %q with a %d-byte error; want accepted then canceled with %d bytes",
			len(frames), frames[len(frames)-1].Event, len(frames[len(frames)-1].Error), len(long))
	}
	if len(long) < 16*streamBufStart {
		t.Fatalf("a %d-byte frame does not outgrow the %d-byte starting buffer", len(long), streamBufStart)
	}
}

// TestStreamConnectAllocBytes pins what one watch connection allocates,
// client and the test's server together: dial, two frames, close.
// Measured 11.1 KiB (go1.24, linux/amd64); it was over 64 KiB while every
// connect started its scanner at 64 KiB.
func TestStreamConnectAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	const limit = 24 << 10
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"v":2,"event":"accepted","id":"aq","slot":-1,"start":0,"end":0}`)
		fmt.Fprintln(w, `{"v":2,"event":"final","id":"aq","slot":0}`)
	}))
	defer ts.Close()
	c, err := Dial(ts.URL, WithRetry(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	watch := func() {
		st := c.Stream("aq")
		defer st.Close()
		for _, err := range st.All(context.Background()) {
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
		}
	}
	watch() // warm the connection pool
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		watch()
	}
	runtime.ReadMemStats(&m1)
	perConnect := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("%.1f KiB allocated per watch connection", float64(perConnect)/1024)
	if perConnect > limit {
		t.Errorf("a watch connection allocates %.1f KiB, limit %d KiB", float64(perConnect)/1024, limit>>10)
	}
}
