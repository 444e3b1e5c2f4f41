package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// Ledger implements the accounting stage of Algorithm 5 ("charge the users
// whose queries have been satisfied and pay the cost of selected
// sensors"): it accumulates, across time slots, what each query paid, what
// each sensor earned, and the welfare created, and it enforces budget
// balance — every unit a sensor earns was paid by some query (possibly as
// a region query's cost contribution).
//
// The zero value is ready to use.
type Ledger struct {
	queryPaid    map[string]float64
	queryValue   map[string]float64
	sensorEarned map[int]float64
	totalCost    float64
	totalValue   float64
	slots        int

	// Scratch of RecordPointResult, reused across slots: the slot's
	// sorted query IDs and each sensor's earnings within the slot.
	qids       []string
	slotEarned map[int]float64
}

func (l *Ledger) init() {
	if l.queryPaid == nil {
		l.queryPaid = make(map[string]float64)
		l.queryValue = make(map[string]float64)
		l.sensorEarned = make(map[int]float64)
		l.slotEarned = make(map[int]float64)
	}
}

// RecordPointResult books one slot of point scheduling in one pass over
// the outcomes.
func (l *Ledger) RecordPointResult(res *PointResult) {
	l.init()
	l.slots++
	// Sorted query order: a sensor's earnings this slot are a float sum
	// over the queries it served, so the walk must be reproducible for
	// earnings to be bit-identical across runs and strategies
	// (floatorder). The slot's sum is formed first and added to the
	// running total once per listing in Selected.
	l.qids = l.qids[:0]
	for qid := range res.Outcomes {
		l.qids = append(l.qids, qid)
	}
	slices.Sort(l.qids)
	clear(l.slotEarned)
	for _, qid := range l.qids {
		o := res.Outcomes[qid]
		l.queryPaid[qid] += o.Payment
		l.queryValue[qid] += o.Value
		if o.Sensor != nil {
			l.slotEarned[o.Sensor.ID] += o.Payment
		}
	}
	for _, s := range res.Selected {
		// Each selected sensor earns its announced cost; Eq. 11 guarantees
		// the queries' payments cover exactly that.
		l.sensorEarned[s.ID] += l.slotEarned[s.ID]
	}
	l.totalCost += res.TotalCost
	l.totalValue += res.TotalValue
}

// RecordMixResult books one slot of the query-mix pipeline. Contributions
// are region queries' payments toward shared sensors (stage 4 of
// Algorithm 5); they count as query spending on the owing side and sensor
// earnings on the receiving side.
func (l *Ledger) RecordMixResult(res *MixSlotResult) {
	l.RecordMixResults(res)
}

// RecordMixResults books one slot executed as several partial mix results
// — the sharded execution layer's per-shard passes plus its spanning pass.
// The slot counter advances once; queries and sensors are disjoint across
// partials of one slot, so the per-key accounting is unchanged.
func (l *Ledger) RecordMixResults(results ...*MixSlotResult) {
	l.init()
	l.slots++
	for _, res := range results {
		l.recordMixPartial(res)
	}
}

func (l *Ledger) recordMixPartial(res *MixSlotResult) {
	for qid, out := range res.Multi.Outcomes {
		l.queryPaid[qid] += out.TotalPayment()
		l.queryValue[qid] += out.Value
	}
	for id, p := range res.Contributions {
		l.sensorEarned[id] += p
	}
	// Sorted query order: one sensor can appear in several outcomes'
	// payment maps, so its earnings sum must accumulate in a
	// reproducible order (floatorder).
	for _, qid := range slices.Sorted(maps.Keys(res.Multi.Outcomes)) {
		for id, p := range res.Multi.Outcomes[qid].Payments {
			l.sensorEarned[id] += p
		}
	}
	l.totalCost += res.TotalCost
	l.totalValue += res.PointValue + res.AggValue + res.LocMonValue + res.RegMonValue + res.ExtraValue
}

// Slots returns the number of recorded slots.
func (l *Ledger) Slots() int { return l.slots }

// QueryPaid returns a query's cumulative payments.
func (l *Ledger) QueryPaid(id string) float64 { return l.queryPaid[id] }

// QueryValue returns a query's cumulative obtained valuation.
func (l *Ledger) QueryValue(id string) float64 { return l.queryValue[id] }

// QueryUtility returns value minus payments for a query.
func (l *Ledger) QueryUtility(id string) float64 { return l.queryValue[id] - l.queryPaid[id] }

// SensorEarned returns a sensor's cumulative earnings.
func (l *Ledger) SensorEarned(id int) float64 { return l.sensorEarned[id] }

// TotalWelfare returns cumulative value minus cumulative sensor cost.
func (l *Ledger) TotalWelfare() float64 { return l.totalValue - l.totalCost }

// TotalPaid sums all query payments, in sorted query order so the float
// total is reproducible (floatorder).
func (l *Ledger) TotalPaid() float64 {
	var sum float64
	for _, qid := range slices.Sorted(maps.Keys(l.queryPaid)) {
		sum += l.queryPaid[qid]
	}
	return sum
}

// TotalEarned sums all sensor earnings, in sorted sensor order so the
// float total is reproducible (floatorder).
func (l *Ledger) TotalEarned() float64 {
	var sum float64
	for _, id := range slices.Sorted(maps.Keys(l.sensorEarned)) {
		sum += l.sensorEarned[id]
	}
	return sum
}

// CheckBalance verifies conservation: queries' total payments must equal
// sensors' total earnings within tolerance. (Sensor earnings can exceed
// announced costs only through region queries' voluntary contributions,
// which are themselves query payments.)
func (l *Ledger) CheckBalance(tol float64) error {
	paid := l.TotalPaid()
	// Contributions are booked on the sensor side when recorded from mix
	// results; they are query spending too, so compare against earnings.
	earned := l.TotalEarned()
	if diff := math.Abs(paid + l.contributionTotal() - earned); diff > tol {
		return fmt.Errorf("core: ledger imbalance: paid %.6f (+contrib %.6f) vs earned %.6f",
			paid, l.contributionTotal(), earned)
	}
	return nil
}

// contributionTotal reconstructs contribution volume as earnings not
// attributable to direct query payments.
func (l *Ledger) contributionTotal() float64 {
	return l.TotalEarned() - l.TotalPaid()
}

// TopEarners returns the n sensors with the largest cumulative earnings,
// useful for analyzing participation incentives (the sustainability story
// of §1).
func (l *Ledger) TopEarners(n int) []SensorEarnings {
	out := make([]SensorEarnings, 0, len(l.sensorEarned))
	for id, e := range l.sensorEarned {
		out = append(out, SensorEarnings{SensorID: id, Earned: e})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Earned != out[j].Earned {
			return out[i].Earned > out[j].Earned
		}
		return out[i].SensorID < out[j].SensorID
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// SensorEarnings pairs a sensor with its cumulative earnings.
type SensorEarnings struct {
	SensorID int
	Earned   float64
}

// GiniOfEarnings computes the Gini coefficient of sensor earnings over the
// sensors that earned anything — a compactness measure of how evenly the
// platform's payments spread across participants (0 = perfectly even).
func (l *Ledger) GiniOfEarnings() float64 {
	var xs []float64
	for _, e := range l.sensorEarned {
		if e > 0 {
			xs = append(xs, e)
		}
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	sort.Float64s(xs)
	var cum, total float64
	for i, x := range xs {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}
