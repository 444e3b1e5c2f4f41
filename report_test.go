package ps

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// urbanSlotSpecs is one slot of urban-shaped demand over the world's
// working region: 250 points, 20 multipoints of k = 8 and 8 aggregates.
func urbanSlotSpecs(w *World, s *rng.Stream, slot int) []Spec {
	box := w.Working
	loc := func() Point { return Pt(s.Uniform(box.MinX, box.MaxX), s.Uniform(box.MinY, box.MaxY)) }
	var specs []Spec
	for i := 0; i < 250; i++ {
		specs = append(specs, PointSpec{ID: fmt.Sprintf("pt%d-%d", slot, i), Loc: loc(), Budget: 10 + s.Uniform(0, 20)})
	}
	for i := 0; i < 20; i++ {
		specs = append(specs, MultiPointSpec{ID: fmt.Sprintf("mp%d-%d", slot, i), Loc: loc(), Budget: 100 + s.Uniform(0, 150), K: 8})
	}
	for i := 0; i < 8; i++ {
		x, y := s.Uniform(box.MinX, box.MaxX-25), s.Uniform(box.MinY, box.MaxY-25)
		specs = append(specs, AggregateSpec{ID: fmt.Sprintf("agg%d-%d", slot, i),
			Region: NewRect(x, y, x+s.Uniform(10, 25), y+s.Uniform(10, 25)), Budget: 200 + s.Uniform(0, 200)})
	}
	return specs
}

func submitSpecs(t testing.TB, a *Aggregator, specs []Spec) {
	t.Helper()
	for _, spec := range specs {
		if _, err := a.Submit(spec); err != nil {
			t.Fatalf("Submit(%q): %v", spec.QueryID(), err)
		}
	}
}

// TestSlotReportReadsAllocNothing: reading a slot's results — the three
// getters for every query and a full Outcomes walk — allocates nothing.
func TestSlotReportReadsAllocNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	w := NewRWMWorld(3, 600, SensorConfig{})
	a := NewAggregator(w)
	specs := urbanSlotSpecs(w, rng.New(3, "report-reads"), 0)
	submitSpecs(t, a, specs)
	rep := a.RunSlot()
	var answered int
	var sum float64
	allocs := testing.AllocsPerRun(20, func() {
		answered = 0
		for _, spec := range specs {
			if rep.Answered(spec.QueryID()) {
				answered++
			}
			sum += rep.Value(spec.QueryID()) - rep.Payment(spec.QueryID())
		}
		for _, o := range rep.Outcomes() {
			sum += o.Value
		}
	})
	if answered == 0 {
		t.Fatal("fixture: the slot answered nothing")
	}
	if allocs != 0 {
		t.Errorf("reading a %d-query report allocates %.0f times, want 0", len(specs), allocs)
	}
}

// TestWarmAggregatorSlotAllocBytes pins the bytes a warm urban-shaped
// slot allocates (RunSlot only, 4 000 sensors and 278 queries a slot),
// so per-query result maps do not grow back. Measured 202.2 KiB a slot
// (go1.24, linux/amd64, the same on every run); it was 327.4 KiB while
// the selection result, a point projection and the report each copied
// every query's result into string-keyed maps.
func TestWarmAggregatorSlotAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("-short is how CI runs the race detector, which inflates allocation counts")
	}
	const limit = 224 << 10
	w := NewRWMWorld(1, 4000, SensorConfig{})
	a := NewAggregator(w)
	s := rng.New(1, "warm-slot-bytes")
	var total uint64
	const warm, measured = 3, 5
	for slot := 0; slot < warm+measured; slot++ {
		submitSpecs(t, a, urbanSlotSpecs(w, s, slot))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		a.RunSlot()
		runtime.ReadMemStats(&m1)
		if slot >= warm {
			total += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	perSlot := total / measured
	t.Logf("%.1f KiB allocated per warm slot", float64(perSlot)/1024)
	if perSlot > limit {
		t.Errorf("a warm urban-shaped slot allocates %.1f KiB, limit %d KiB", float64(perSlot)/1024, limit>>10)
	}
}

// TestSlotReportGettersMatchOutcomes: for every query a slot scheduled,
// Answered/Value/Payment return exactly what Outcomes yields for its ID
// (the zero outcome when Outcomes skips it) — on answered and unanswered
// one-shots and on continuous queries answered with no value gained —
// and Outcomes yields the IDs in ascending order, none but the queries'
// own.
func TestSlotReportGettersMatchOutcomes(t *testing.T) {
	w := NewRWMWorld(5, 300, SensorConfig{})
	a := NewAggregator(w)
	const slots = 16
	var continuous []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("lm-%d", i)
		spec := LocationMonitoringSpec{ID: id, Loc: Pt(20+7*float64(i), 25+5*float64(i)), Duration: slots, Budget: 400, Samples: 8}
		submitSpecs(t, a, []Spec{spec})
		continuous = append(continuous, id)
	}
	var answered, unanswered, zeroDelta int
	for slot := 0; slot < slots; slot++ {
		ids := append([]string(nil), continuous...)
		for i := 0; i < 8; i++ {
			budget := 25.0
			if i%4 == 0 {
				budget = 0 // worth nothing: never answered
			}
			spec := PointSpec{ID: fmt.Sprintf("pt-%d-%d", slot, i), Loc: Pt(18+5*float64(i), 40), Budget: budget}
			submitSpecs(t, a, []Spec{spec})
			ids = append(ids, spec.ID)
		}
		rep := a.RunSlot()
		listed := map[string]QueryOutcome{}
		prev := ""
		for id, o := range rep.Outcomes() {
			if len(listed) > 0 && id <= prev {
				t.Fatalf("slot %d: Outcomes yields %q after %q", slot, id, prev)
			}
			listed[id], prev = o, id
		}
		for i, id := range ids {
			got := QueryOutcome{Answered: rep.Answered(id), Value: rep.Value(id), Payment: rep.Payment(id)}
			if got != listed[id] {
				t.Fatalf("slot %d: %s getters %+v, Outcomes %+v", slot, id, got, listed[id])
			}
			delete(listed, id)
			switch {
			case i < len(continuous) && got.Answered && got.Value == 0:
				zeroDelta++
			case i >= len(continuous) && got.Answered:
				answered++
			case i >= len(continuous):
				unanswered++
			}
		}
		for id := range listed {
			t.Fatalf("slot %d: Outcomes lists %q, which is no query of the slot", slot, id)
		}
	}
	t.Logf("%d answered and %d unanswered one-shots, %d continuous samples with no value gained", answered, unanswered, zeroDelta)
	if answered == 0 || unanswered == 0 || zeroDelta == 0 {
		t.Fatal("fixture: a case is missing")
	}
}

// TestSlotReportFoldsRepeatedIDs: an Aggregator does not refuse a
// repeated query ID (the Engine does), and the report then lists the ID
// once with its queries' results added up — the same sum the slot's
// per-type value holds.
func TestSlotReportFoldsRepeatedIDs(t *testing.T) {
	// One location: both are answered (by one shared sensor) or neither.
	a := NewAggregator(NewRWMWorld(4, 300, SensorConfig{}))
	submitSpecs(t, a, []Spec{
		PointSpec{ID: "twice", Loc: Pt(40, 40), Budget: 25},
		PointSpec{ID: "twice", Loc: Pt(40, 40), Budget: 30},
	})
	rep := a.RunSlot()
	var listed int
	for id := range rep.Outcomes() {
		if id == "twice" {
			listed++
		}
	}
	if listed != 1 {
		t.Fatalf("Outcomes lists the repeated ID %d times, want once", listed)
	}
	if rep.PointValue <= 0 || rep.Value("twice") != rep.PointValue || rep.Payment("twice") <= 0 {
		t.Fatalf("repeated ID: value %v, payment %v; slot point value %v",
			rep.Value("twice"), rep.Payment("twice"), rep.PointValue)
	}
}
