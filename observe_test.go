package ps

import (
	"strings"
	"testing"
)

// The unsharded slot trace covers the canonical stage set in pipeline
// order, and the engine prepends ingest / appends publish before
// accumulating into EngineMetrics.SlotStages.
func TestSlotStageTraceUnsharded(t *testing.T) {
	w := NewRWMWorld(7, 200, SensorConfig{})
	eng := NewEngine(NewAggregator(w))
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
	eng := NewShardedEngine(NewShardedAggregator(w, 4))
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
