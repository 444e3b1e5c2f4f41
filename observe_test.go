package ps

import (
	"strings"
	"testing"
	"time"
)

// The unsharded slot trace covers the canonical stage set in pipeline
// order, the engine books ingest before it and publish after it into
// EngineMetrics.SlotStages, and each stage's Last is the last slot's.
func TestSlotStageTraceUnsharded(t *testing.T) {
	w := NewRWMWorld(7, 200, SensorConfig{})
	runner := &lastReport{queryRuntime: NewAggregator(w)}
	eng := newEngine(runner, nil)
	eng.Start()
	defer eng.Stop()

	if _, err := eng.Submit(PointSpec{ID: "q1", Loc: Pt(30, 30), Budget: 50}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlots(3); err != nil {
		t.Fatal(err)
	}

	m := eng.Metrics()
	want := []string{StageIngest, StageOfferGather, StageSelection, StageCommit, StageAccounting, StagePublish}
	if len(m.SlotStages) != len(want) {
		t.Fatalf("SlotStages = %+v, want stages %v", m.SlotStages, want)
	}
	for i, s := range m.SlotStages {
		if s.Stage != want[i] {
			t.Errorf("stage[%d] = %q, want %q", i, s.Stage, want[i])
		}
		if s.Count != 3 {
			t.Errorf("stage %q count = %d, want 3", s.Stage, s.Count)
		}
		if s.Total < s.Max || s.Max < s.Last {
			t.Errorf("stage %q has inconsistent totals: %+v", s.Stage, s)
		}
	}

	requireStagesWithinSlot(t, m)
	requireLastStages(t, m, runner.rep)
}

// lastReport is a slot runner that keeps the last report it ran.
type lastReport struct {
	queryRuntime
	rep *SlotReport
}

func (l *lastReport) RunSlot() *SlotReport {
	l.rep = l.queryRuntime.RunSlot()
	return l.rep
}

// requireLastStages checks that each aggregator stage's Last is the last
// slot's duration of that stage to the nanosecond, and that the slot
// number and welfare are the last report's.
func requireLastStages(t *testing.T, m EngineMetrics, last *SlotReport) {
	t.Helper()
	if m.LastSlot != last.Slot || m.LastWelfare != last.Welfare {
		t.Errorf("LastSlot %d, LastWelfare %v; the last report has slot %d, welfare %v",
			m.LastSlot, m.LastWelfare, last.Slot, last.Welfare)
	}
	for _, want := range last.Stages {
		found := false
		for _, s := range m.SlotStages {
			if s.Stage == want.Stage {
				found = true
				if s.Last != want.Duration {
					t.Errorf("stage %q: Last %d ns, the last slot took %d ns", s.Stage, s.Last, want.Duration)
				}
			}
		}
		if !found {
			t.Errorf("stage %q of the last slot is missing from SlotStages", want.Stage)
		}
	}
}

// requireStagesWithinSlot checks that the aggregator's stages are
// sub-intervals of RunSlot, which is what the loop's slot latency
// measures: their sum can never exceed it. Ingest and publish are engine
// stages outside that window.
func requireStagesWithinSlot(t *testing.T, m EngineMetrics) {
	t.Helper()
	var sum int64
	for _, s := range m.SlotStages {
		if s.Stage == StageIngest || s.Stage == StagePublish {
			continue
		}
		sum += int64(s.Total)
	}
	// SlotLatencyAvg is the cumulative latency divided down, so allow the
	// division's remainder: at most one nanosecond per slot.
	if outer := (int64(m.SlotLatencyAvg) + 1) * int64(m.Slots); sum > outer {
		t.Errorf("aggregator stage total %d > cumulative slot latency %d", sum, outer)
	}
}

func TestSlotStageTraceSharded(t *testing.T) {
	w := NewRWMWorld(8, 200, SensorConfig{})
	runner := &lastReport{queryRuntime: NewShardedAggregator(w, 4)}
	eng := newEngine(runner, nil)
	eng.Start()
	defer eng.Stop()
	if err := eng.RunSlots(2); err != nil {
		t.Fatal(err)
	}

	m := eng.Metrics()
	want := []string{StageIngest, StageOfferGather, StageRoute, StageShardSelect,
		StageSpanning, StageReconcile, StageCommit, StageAccounting, StagePublish}
	if len(m.SlotStages) != len(want) {
		t.Fatalf("SlotStages = %+v, want stages %v", m.SlotStages, want)
	}
	for i, s := range m.SlotStages {
		if s.Stage != want[i] {
			t.Errorf("stage[%d] = %q, want %q", i, s.Stage, want[i])
		}
	}
	// The shard lanes run concurrently, but shard_select is the wall time
	// of the whole fan-out, so the sharded stages sum within the slot too.
	requireStagesWithinSlot(t, m)
	requireLastStages(t, m, runner.rep)
}

// TestSlotBookingAllocations: booking a warm slot into the registry —
// its stages, counters and gauges, and on a sharded engine every lane's
// series — allocates nothing.
func TestSlotBookingAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	for _, tc := range []struct {
		name string
		agg  func(*World) queryRuntime
	}{
		{"unsharded", func(w *World) queryRuntime { return NewAggregator(w) }},
		{"4 shards", func(w *World) queryRuntime { return NewShardedAggregator(w, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := &lastReport{queryRuntime: tc.agg(NewRWMWorld(3, 200, SensorConfig{}))}
			eng := newEngine(runner, nil)
			eng.Start()
			defer eng.Stop()
			if _, err := eng.Submit(AggregateSpec{ID: "a", Region: NewRect(20, 20, 45, 45), Budget: 300}); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunSlots(2); err != nil {
				t.Fatal(err)
			}
			rep := runner.rep
			if tc.name != "unsharded" && len(rep.Shards) != 5 {
				t.Fatalf("sharded report has %d shard entries, want 5", len(rep.Shards))
			}
			st := slotDelivery{answered: 1, payments: 2.5, subscribers: 1, bufCap: 4}
			if allocs := testing.AllocsPerRun(100, func() {
				eng.obs.bookSlot(rep, st, time.Millisecond, time.Microsecond, time.Microsecond)
			}); allocs != 0 {
				t.Errorf("booking a warm slot allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// The engine's registry carries the slot/stage histograms and hub
// gauges, passes the naming lint, and renders as Prometheus text.
func TestEngineObservabilityRegistry(t *testing.T) {
	w := NewRWMWorld(9, 200, SensorConfig{})
	eng := NewEngine(NewAggregator(w))
	eng.Start()
	defer eng.Stop()
	h, err := eng.Submit(PointSpec{ID: "q1", Loc: Pt(30, 30), Budget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSlots(2); err != nil {
		t.Fatal(err)
	}
	for range h.Events() { // drain to stream end
	}

	reg := eng.Observability()
	if err := reg.Validate(); err != nil {
		t.Fatalf("metric naming: %v", err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ps_slots_total 2",
		`ps_slot_stage_duration_seconds_bucket{stage="selection",le="+Inf"} 2`,
		"ps_queries_submitted_total 1",
		"# TYPE ps_hub_subscriber_lag_events gauge",
		"# TYPE ps_query_lifetime_seconds histogram",
		"ps_query_lifetime_seconds_count 1",
		"ps_query_time_to_first_update_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
