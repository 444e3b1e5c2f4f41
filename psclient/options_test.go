package psclient

import (
	"errors"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	ps "repro"
	"repro/serve"
	"repro/wire"
)

// TestWithClientIDSeparatesAdmissionBuckets: two clients behind one
// source address draw from separate rate-limit buckets when they carry
// different WithClientID identities.
func TestWithClientIDSeparatesAdmissionBuckets(t *testing.T) {
	// One token per client, refilled once every ~17 minutes.
	url := newLiveServer(t, serve.Options{RateLimit: 0.001, RateBurst: 1})
	ctx := testCtx(t)
	submit := func(c *Client, id string) error {
		_, err := c.Submit(ctx, ps.PointSpec{ID: id, Loc: ps.Pt(30, 30), Budget: 15})
		return err
	}
	a, _ := Dial(url, WithRetry(0, time.Millisecond), WithClientID("a"))
	b, _ := Dial(url, WithRetry(0, time.Millisecond), WithClientID("b"))
	if err := submit(a, "a1"); err != nil {
		t.Fatalf("client a's first submit: %v", err)
	}
	var apiErr *APIError
	if err := submit(a, "a2"); !errors.As(err, &apiErr) || apiErr.Code != wire.CodeRateLimited {
		t.Fatalf("client a's second submit: err = %v, want rate_limited", err)
	}
	if err := submit(b, "b1"); err != nil {
		t.Fatalf("client b's first submit, same address, other ID: %v", err)
	}
	// Without an ID both fall back to the shared source address.
	anon, _ := Dial(url, WithRetry(0, time.Millisecond))
	if err := submit(anon, "n1"); err != nil {
		t.Fatalf("anonymous first submit: %v", err)
	}
	if err := submit(anon, "n2"); !errors.As(err, &apiErr) || apiErr.Code != wire.CodeRateLimited {
		t.Fatalf("anonymous second submit: err = %v, want rate_limited", err)
	}
}

// TestStreamWithCursorResumes: a stream opened WithCursor(c) on a
// finished query yields exactly the full stream's frames past c — none
// at or before c — and Cursor reports the resume point before the first
// frame and the terminal slot after the last.
func TestStreamWithCursorResumes(t *testing.T) {
	c := newLiveStack(t)
	ctx := testCtx(t)
	q, err := c.Submit(ctx, ps.LocationMonitoringSpec{
		ID: "cur-lm", Loc: ps.Pt(30, 30), Duration: 8, Budget: 200, Samples: 4,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	type frame struct {
		event    string
		slot     int
		from, to int
	}
	follow := func(st *Stream) []frame {
		defer st.Close()
		var out []frame
		for ev, err := range st.All(ctx) {
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			out = append(out, frame{ev.Event, ev.Slot, ev.From, ev.To})
		}
		return out
	}
	full := follow(q.Stream())
	if len(full) < 4 || full[0].event != wire.FrameAccepted {
		t.Fatalf("full stream = %+v, want accepted and several slots", full)
	}
	end := full[len(full)-1].slot
	cursor := full[len(full)/2].slot

	st := q.Stream(WithCursor(cursor))
	if got, ok := st.Cursor(); !ok || got != cursor {
		t.Fatalf("Cursor() before the first frame = %d, %v; want %d, true", got, ok, cursor)
	}
	resumed := follow(st)
	for _, f := range resumed {
		if f.slot <= cursor || f.event == wire.FrameGap && f.from <= cursor {
			t.Errorf("resumed after %d but got %+v", cursor, f)
		}
	}
	var want []frame
	for _, f := range full {
		if f.slot > cursor {
			want = append(want, f)
		}
	}
	if !slices.Equal(resumed, want) {
		t.Errorf("resumed = %+v, want the full stream's tail %+v", resumed, want)
	}
	if got, ok := st.Cursor(); !ok || got != end {
		t.Errorf("Cursor() after the terminal = %d, %v; want %d, true", got, ok, end)
	}
}

// countingTransport counts the round trips it carries.
type countingTransport struct{ n atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestWithHTTPClientTransportIsUsed: every request the client makes —
// submit, watch, status — goes through the WithHTTPClient client.
func TestWithHTTPClientTransportIsUsed(t *testing.T) {
	url := newLiveServer(t, serve.Options{})
	ct := &countingTransport{}
	c, err := Dial(url, WithHTTPClient(&http.Client{Transport: ct}))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	ctx := testCtx(t)
	q, err := c.Submit(ctx, ps.PointSpec{ID: "hc-pt", Loc: ps.Pt(30, 30), Budget: 20})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if n := ct.n.Load(); n != 1 {
		t.Fatalf("%d round trips through the transport after one submit, want 1", n)
	}
	finalStatus(ctx, t, q) // one watch, one status
	if n := ct.n.Load(); n != 3 {
		t.Errorf("%d round trips through the transport after submit, watch and status, want 3", n)
	}
}
