package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	ps "repro"
)

// testAdmission builds an admission controller with an injected clock
// and queue-stats source so decisions are a pure function of the table.
func testAdmission(o Options, depth, capacity int) (*admission, *time.Time) {
	now := time.Unix(1000, 0)
	a := newAdmission(o, func() (int, int) { return depth, capacity })
	a.now = func() time.Time { return now }
	return a, &now
}

// TestAdmissionTokenBucket drives one bucket through its edges: burst
// drain, deficit-derived Retry-After, partial refill, clamped oversized
// batches.
func TestAdmissionTokenBucket(t *testing.T) {
	steps := []struct {
		name    string
		advance time.Duration // clock advance before the step
		charge  int
		wantOK  bool
		wantRA  time.Duration // only checked when !wantOK
	}{
		{name: "burst admits first", charge: 1, wantOK: true},
		{name: "burst admits second", charge: 1, wantOK: true},
		{name: "empty bucket rejects", charge: 1, wantOK: false, wantRA: 500 * time.Millisecond},
		{name: "partial refill still short", advance: 200 * time.Millisecond, charge: 1, wantOK: false, wantRA: 300 * time.Millisecond},
		{name: "refill admits", advance: 300 * time.Millisecond, charge: 1, wantOK: true},
		{name: "oversized batch clamps to burst", advance: 10 * time.Second, charge: 100, wantOK: true},
		{name: "clamped charge drained the bucket", charge: 1, wantOK: false, wantRA: 500 * time.Millisecond},
	}
	a, now := testAdmission(Options{RateLimit: 2, RateBurst: 2}, 0, 0)
	for _, st := range steps {
		*now = now.Add(st.advance)
		ra, ok := a.admitSubmit("c1", st.charge)
		if ok != st.wantOK {
			t.Fatalf("%s: ok = %v, want %v", st.name, ok, st.wantOK)
		}
		if !ok && ra != st.wantRA {
			t.Fatalf("%s: retryAfter = %v, want %v", st.name, ra, st.wantRA)
		}
	}

	// Buckets are per client: a stranger is untouched by c1's spending.
	if _, ok := a.admitSubmit("c2", 2); !ok {
		t.Fatal("fresh client rejected")
	}

	// Rate limiting off admits everything.
	off, _ := testAdmission(Options{}, 0, 0)
	for range 1000 {
		if _, ok := off.admitSubmit("c1", 100); !ok {
			t.Fatal("disabled rate limit rejected a submission")
		}
	}
}

// TestAdmissionHighWater checks the queue-depth admission threshold and
// the pressure-scaled Retry-After (1s at an empty queue up to 5s full).
func TestAdmissionHighWater(t *testing.T) {
	cases := []struct {
		name            string
		highWater       float64
		depth, capacity int
		wantOK          bool
		wantRA          time.Duration
	}{
		{name: "disabled", highWater: 0, depth: 10, capacity: 10, wantOK: true},
		{name: "below mark", highWater: 0.8, depth: 7, capacity: 10, wantOK: true},
		{name: "at mark", highWater: 0.8, depth: 8, capacity: 10, wantOK: false, wantRA: 4200 * time.Millisecond},
		{name: "full queue", highWater: 0.8, depth: 10, capacity: 10, wantOK: false, wantRA: 5 * time.Second},
		{name: "unbuffered engine", highWater: 0.8, depth: 0, capacity: 0, wantOK: true},
	}
	for _, tc := range cases {
		a, _ := testAdmission(Options{HighWater: tc.highWater}, tc.depth, tc.capacity)
		ra, ok := a.admitQueue()
		if ok != tc.wantOK {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.wantOK)
			continue
		}
		if !ok && ra != tc.wantRA {
			t.Errorf("%s: retryAfter = %v, want %v", tc.name, ra, tc.wantRA)
		}
	}
}

// TestAdmissionStreamCaps: per-client cap rejects, the global cap evicts
// fair-share (the greediest client's oldest stream), and release is
// idempotent.
func TestAdmissionStreamCaps(t *testing.T) {
	a, _ := testAdmission(Options{MaxStreamsPerClient: 2, MaxStreams: 2}, 0, 0)
	var evicted []string
	a.onEvict = func(client string) { evicted = append(evicted, client) }

	canceled := map[string]bool{}
	admit := func(client, label string) func() {
		t.Helper()
		rel, _, ok := a.admitStream(client, func() { canceled[label] = true })
		if !ok {
			t.Fatalf("admitStream(%s/%s) rejected", client, label)
		}
		return rel
	}

	relA1 := admit("alice", "a1")
	admit("alice", "a2")
	if _, ra, ok := a.admitStream("alice", func() {}); ok || ra <= 0 {
		t.Fatalf("third alice stream: ok = %v ra = %v, want per-client rejection with a positive hint", ok, ra)
	}

	// Bob's first stream lands on the global cap: alice (2 streams to
	// bob's 0) is the fair-share victim, losing her OLDEST stream.
	admit("bob", "b1")
	if len(evicted) != 1 || evicted[0] != "alice" {
		t.Fatalf("evicted = %v, want [alice]", evicted)
	}
	if !canceled["a1"] || canceled["a2"] {
		t.Fatalf("canceled = %v, want a1 only (oldest first)", canceled)
	}

	// The evicted stream's handler still runs its deferred release; it
	// must not double-decrement and free a phantom slot.
	relA1()
	relA1()
	admit("carol", "c1") // at cap again: evicts from {alice:1, bob:1} -> tie, smallest key
	if len(evicted) != 2 || evicted[1] != "alice" {
		t.Fatalf("evicted = %v, want second eviction from alice (tie broken by key)", evicted)
	}
	if !canceled["a2"] {
		t.Fatal("tie-break eviction did not cancel a2")
	}
}

// TestServeAdmissionHTTP exercises the wired-up 429 surface: over-rate
// submissions get code rate_limited plus a Retry-After header, and
// distinct X-Client-ID values get distinct buckets.
func TestServeAdmissionHTTP(t *testing.T) {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world))
	eng.Start()
	srv := New(eng, world, Options{RateLimit: 0.001, RateBurst: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
	})

	submit := func(clientID, qid string) *http.Response {
		t.Helper()
		body := `{"type":"point","id":"` + qid + `","loc":{"x":30,"y":30},"budget":15}`
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := submit("alice", "adm-1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}
	resp := submit("alice", "adm-2")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// A different client identity is a different bucket.
	if resp := submit("bob", "adm-3"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client's submit: %d, want 202", resp.StatusCode)
	}
}
