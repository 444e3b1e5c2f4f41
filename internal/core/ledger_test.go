package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/sensornet"
)

func TestLedgerPointConservation(t *testing.T) {
	l := &Ledger{}
	var wantWelfare float64
	for seed := int64(1); seed <= 5; seed++ {
		queries, offers := randomScenario(seed, 20, 50, 15)
		res := OptimalPoint(OptimalOptions{})(queries, offers)
		l.RecordPointResult(res)
		wantWelfare += res.Welfare()
	}
	if l.Slots() != 5 {
		t.Errorf("slots = %d", l.Slots())
	}
	if err := l.CheckBalance(1e-6); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.TotalWelfare()-wantWelfare) > 1e-6 {
		t.Errorf("welfare %v want %v", l.TotalWelfare(), wantWelfare)
	}
	// Payments equal sensor cost in point scheduling: earned == paid.
	if math.Abs(l.TotalPaid()-l.TotalEarned()) > 1e-6 {
		t.Errorf("paid %v != earned %v", l.TotalPaid(), l.TotalEarned())
	}
	// Paid should equal total cost of selected sensors.
	if math.Abs(l.TotalPaid()-(l.totalCost)) > 1e-6 {
		t.Errorf("paid %v != total cost %v", l.TotalPaid(), l.totalCost)
	}
}

func TestLedgerQueryAccessors(t *testing.T) {
	l := &Ledger{}
	queries, offers := randomScenario(7, 20, 40, 20)
	res := OptimalPoint(OptimalOptions{})(queries, offers)
	l.RecordPointResult(res)
	found := false
	for qid, o := range res.Outcomes {
		found = true
		if l.QueryPaid(qid) != o.Payment {
			t.Errorf("QueryPaid(%s) = %v want %v", qid, l.QueryPaid(qid), o.Payment)
		}
		if l.QueryValue(qid) != o.Value {
			t.Errorf("QueryValue(%s) = %v want %v", qid, l.QueryValue(qid), o.Value)
		}
		if u := l.QueryUtility(qid); u <= 0 {
			t.Errorf("QueryUtility(%s) = %v, want positive", qid, u)
		}
	}
	if !found {
		t.Fatal("no outcomes to verify")
	}
	// Unknown query returns zeros.
	if l.QueryPaid("nope") != 0 || l.QueryUtility("nope") != 0 {
		t.Error("unknown query should report zero")
	}
}

func TestLedgerMixConservation(t *testing.T) {
	l := &Ledger{}
	grid := geo.NewUnitGrid(100, 100)
	for seed := int64(1); seed <= 3; seed++ {
		queries, offers := randomScenario(seed, 25, 50, 15)
		aggs := makeAggregates(grid, 120,
			geo.NewRect(5, 5, 25, 25), geo.NewRect(10, 10, 22, 28))
		res := RunMixSlot(0, MixQueries{Points: queries, Aggregates: aggs}, offers)
		l.RecordMixResult(res)
	}
	if err := l.CheckBalance(1e-6); err != nil {
		t.Fatal(err)
	}
	if l.TotalEarned() <= 0 {
		t.Error("sensors earned nothing in a dense mix")
	}
}

func TestLedgerTopEarnersAndGini(t *testing.T) {
	l := &Ledger{}
	queries, offers := randomScenario(9, 25, 60, 20)
	res := OptimalPoint(OptimalOptions{})(queries, offers)
	l.RecordPointResult(res)

	top := l.TopEarners(3)
	if len(top) == 0 {
		t.Fatal("no earners")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Earned > top[i-1].Earned {
			t.Error("TopEarners not sorted")
		}
	}
	if len(top) > 3 {
		t.Errorf("TopEarners returned %d > 3", len(top))
	}
	if s := l.SensorEarned(top[0].SensorID); s != top[0].Earned {
		t.Error("SensorEarned mismatch")
	}

	g := l.GiniOfEarnings()
	if g < 0 || g > 1 {
		t.Errorf("gini = %v outside [0,1]", g)
	}
}

func TestLedgerGiniDegenerate(t *testing.T) {
	l := &Ledger{}
	if l.GiniOfEarnings() != 0 {
		t.Error("empty ledger gini != 0")
	}
	l.init()
	l.sensorEarned[1] = 10
	if l.GiniOfEarnings() != 0 {
		t.Error("single-sensor gini != 0")
	}
	// Perfectly even earnings: gini ~ 0.
	l.sensorEarned[2] = 10
	l.sensorEarned[3] = 10
	if g := l.GiniOfEarnings(); g > 0.01 {
		t.Errorf("even gini = %v", g)
	}
	// Extreme skew: gini near (n-1)/n.
	l2 := &Ledger{}
	l2.init()
	l2.sensorEarned[1] = 1e-9
	l2.sensorEarned[2] = 1e-9
	l2.sensorEarned[3] = 1000
	if g := l2.GiniOfEarnings(); g < 0.5 {
		t.Errorf("skewed gini = %v, want high", g)
	}
}

func TestLedgerZeroValueReady(t *testing.T) {
	var l Ledger
	l.RecordPointResult(&PointResult{Outcomes: map[string]PointOutcome{}})
	if l.Slots() != 1 {
		t.Error("zero-value ledger unusable")
	}
	if err := l.CheckBalance(1e-9); err != nil {
		t.Error(err)
	}
}

var _ = query.Value // imported for scenario helpers consistency

// referenceRecordPointResult is the per-sensor booking RecordPointResult
// replaced, kept as the reference of the equivalence test: for every
// listing in Selected it re-sorts the outcome IDs and sums the payments
// naming that sensor.
func referenceRecordPointResult(l *Ledger, res *PointResult) {
	l.init()
	l.slots++
	for qid, o := range res.Outcomes {
		l.queryPaid[qid] += o.Payment
		l.queryValue[qid] += o.Value
	}
	for _, s := range res.Selected {
		var sum float64
		for _, qid := range slices.Sorted(maps.Keys(res.Outcomes)) {
			if o := res.Outcomes[qid]; o.Sensor != nil && o.Sensor.ID == s.ID {
				sum += o.Payment
			}
		}
		l.sensorEarned[s.ID] += sum
	}
	l.totalCost += res.TotalCost
	l.totalValue += res.TotalValue
}

// randomPointResult builds a slot result with `queries` outcomes spread
// over `sensors` selected sensors (so one sensor serves many queries),
// plus the shapes the booking must not trip over: an outcome with a nil
// sensor, an outcome naming an unselected sensor, a selected sensor no
// outcome names, and a sensor listed twice in Selected.
func randomPointResult(r *rng.Stream, queries, sensors int) *PointResult {
	res := &PointResult{Outcomes: make(map[string]PointOutcome, queries)}
	for i := 0; i < sensors; i++ {
		res.Selected = append(res.Selected, sensornet.NewSensor(r.Intn(4*sensors), geo.Point{}))
	}
	unselected := sensornet.NewSensor(4*sensors+1, geo.Point{})
	for i := 0; i < queries; i++ {
		o := PointOutcome{Payment: r.Uniform(0, 30) / 3, Value: r.Uniform(0, 40) / 7}
		switch k := r.Intn(sensors + 2); {
		case k < sensors:
			o.Sensor = res.Selected[k]
		case k == sensors:
			o.Sensor = unselected
		}
		res.Outcomes[fmt.Sprintf("q%d-%d", r.Intn(1<<20), i)] = o
		res.TotalCost += o.Payment
		res.TotalValue += o.Value
	}
	res.Selected = append(res.Selected, res.Selected[0], sensornet.NewSensor(4*sensors+2, geo.Point{}))
	return res
}

// TestLedgerSinglePassMatchesReference: the single-pass booking leaves
// every float the ledger exposes bit-identical to the per-sensor sum it
// replaced, over many slots accumulated into the same ledger.
func TestLedgerSinglePassMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rng.New(seed, "ledger-equivalence")
		got, want := &Ledger{}, &Ledger{}
		sensorIDs := map[int]bool{}
		var qids []string
		for slot := 0; slot < 6; slot++ {
			res := randomPointResult(r, r.IntBetween(0, 80), r.IntBetween(1, 12))
			got.RecordPointResult(res)
			referenceRecordPointResult(want, res)
			for _, s := range res.Selected {
				sensorIDs[s.ID] = true
			}
			for qid := range res.Outcomes {
				qids = append(qids, qid)
			}
		}
		for id := range sensorIDs {
			if g, w := got.SensorEarned(id), want.SensorEarned(id); g != w {
				t.Fatalf("seed %d: SensorEarned(%d) = %v, reference %v", seed, id, g, w)
			}
		}
		for _, qid := range qids {
			if g, w := got.QueryPaid(qid), want.QueryPaid(qid); g != w {
				t.Fatalf("seed %d: QueryPaid(%s) = %v, reference %v", seed, qid, g, w)
			}
			if g, w := got.QueryValue(qid), want.QueryValue(qid); g != w {
				t.Fatalf("seed %d: QueryValue(%s) = %v, reference %v", seed, qid, g, w)
			}
		}
		if g, w := got.TotalEarned(), want.TotalEarned(); g != w {
			t.Fatalf("seed %d: TotalEarned = %v, reference %v", seed, g, w)
		}
		if g, w := got.TotalPaid(), want.TotalPaid(); g != w {
			t.Fatalf("seed %d: TotalPaid = %v, reference %v", seed, g, w)
		}
		if g, w := got.TotalWelfare(), want.TotalWelfare(); g != w {
			t.Fatalf("seed %d: TotalWelfare = %v, reference %v", seed, g, w)
		}
		if len(got.sensorEarned) != len(want.sensorEarned) {
			t.Fatalf("seed %d: %d sensors booked, reference %d", seed, len(got.sensorEarned), len(want.sensorEarned))
		}
		gotErr, wantErr := got.CheckBalance(1e-9), want.CheckBalance(1e-9)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("seed %d: CheckBalance = %v, reference %v", seed, gotErr, wantErr)
		}
	}
}

// BenchmarkLedgerRecordPointResult books one slot of QxS (outcomes x
// selected sensors). A tenfold slot must cost what sorting ten times the
// query IDs costs — not the hundredfold of outcomes x sensors — and
// allocate nothing once the scratch is sized.
func BenchmarkLedgerRecordPointResult(b *testing.B) {
	for _, size := range []struct{ queries, sensors int }{{100, 60}, {1000, 600}} {
		b.Run(fmt.Sprintf("%dx%d", size.queries, size.sensors), func(b *testing.B) {
			res := randomPointResult(rng.New(1, "ledger-bench"), size.queries, size.sensors)
			var l Ledger
			l.RecordPointResult(res) // the first slot sizes the maps and the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.RecordPointResult(res)
			}
		})
	}
}
