package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/query"
	"repro/internal/sensornet"
)

// MultiOutcome records one query's result in a multi-sensor selection.
// The greedy strategies hand out Sensors and Payments as views into two
// slabs shared by every outcome of the run.
type MultiOutcome struct {
	Sensors  []*sensornet.Sensor // S_q, in commit order
	Payments []Payment           // pi_{q,s} per payee, ascending by sensor ID
	Value    float64             // v_q(S_q)
}

// Payment is one payee of a query: the sensor and the share pi_{q,s} of
// its cost the query pays.
type Payment struct {
	SensorID int
	Amount   float64
}

// TotalPayment sums the query's payments in ascending sensor-ID order.
// The fixed order matters: it feeds SlotReport payments that must be
// bit-identical across reruns of the same workload (the golden
// equivalence tests rely on it), and Payments is kept in that order.
func (o *MultiOutcome) TotalPayment() float64 {
	var sum float64
	for _, p := range o.Payments {
		sum += p.Amount
	}
	return sum
}

// sortPayments orders one query's payments by sensor ID and merges
// repeated payees, summing their amounts in the order they were booked.
// The sort is stable, so the result is what accumulating the amounts per
// sensor and listing the sensors ascending would give.
func sortPayments(ps []Payment) []Payment {
	if len(ps) < 2 {
		return ps
	}
	slices.SortStableFunc(ps, func(a, b Payment) int { return cmp.Compare(a.SensorID, b.SensorID) })
	w := 0
	for _, p := range ps[1:] {
		if p.SensorID == ps[w].SensorID {
			ps[w].Amount += p.Amount
		} else {
			w++
			ps[w] = p
		}
	}
	return ps[:w+1]
}

// SelectionStep records one committed sensor of a greedy run: which offer
// was taken, at what cost, and the net benefit it had at commit time. The
// trace lets a sharded execution layer replay the exact interleaving a
// single global greedy pass would have produced: per-shard traces merge by
// (net descending, offer index ascending), the same argmax rule the scan
// applies each round.
type SelectionStep struct {
	// Offer is the index of the committed offer in the run's offer slice.
	Offer int
	// SensorID identifies the committed sensor.
	SensorID int
	// Cost is the offer's announced cost.
	Cost float64
	// Net is the sensor's net benefit (marginal value minus cost) at the
	// round it was committed.
	Net float64
}

// MultiResult is the outcome of Algorithm 1 on a batch of queries.
type MultiResult struct {
	Selected   []*sensornet.Sensor
	TotalCost  float64
	TotalValue float64
	// Outcomes is aligned with the queries argument: Outcomes[i] is
	// queries[i]'s result. Unserved queries have empty sensor sets and
	// zero value.
	Outcomes []MultiOutcome
	// Trace lists the commits in selection order, one entry per Selected
	// sensor.
	Trace []SelectionStep
	// Stats instruments the selection run: how many valuation calls the
	// run made versus what an exhaustive version-cached scan
	// would have made, plus the lazy heap's bookkeeping.
	Stats SelectionStats
}

// Welfare returns total value minus total cost (Theorem 1 guarantees it is
// positive whenever any sensor was selected).
func (r *MultiResult) Welfare() float64 { return r.TotalValue - r.TotalCost }

// DiffMultiResults compares two MultiResults bit-for-bit — selection
// order, totals, per-query values and per-sensor payments (exact float
// equality; Stats are intentionally excluded) — and describes the first
// divergence, or returns "" when identical. It backs the
// strategy-equivalence tests: the lazy path must produce results for
// which this returns "" against the serial reference.
func DiffMultiResults(want, got *MultiResult) string {
	if len(got.Selected) != len(want.Selected) {
		return fmt.Sprintf("%d sensors selected, want %d", len(got.Selected), len(want.Selected))
	}
	for i := range want.Selected {
		if got.Selected[i].ID != want.Selected[i].ID {
			return fmt.Sprintf("selection order diverged at %d: sensor %d, want %d",
				i, got.Selected[i].ID, want.Selected[i].ID)
		}
	}
	if got.TotalCost != want.TotalCost || got.TotalValue != want.TotalValue {
		return fmt.Sprintf("cost/value %v/%v, want %v/%v",
			got.TotalCost, got.TotalValue, want.TotalCost, want.TotalValue)
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		return fmt.Sprintf("%d outcomes, want %d", len(got.Outcomes), len(want.Outcomes))
	}
	for qi := range want.Outcomes {
		wo, out := &want.Outcomes[qi], &got.Outcomes[qi]
		if out.Value != wo.Value || len(out.Payments) != len(wo.Payments) {
			return fmt.Sprintf("outcome %d diverged", qi)
		}
		// Compare per-sensor payments individually: equal totals can
		// hide a different split.
		for i, wp := range wo.Payments {
			if p := out.Payments[i]; p != wp {
				return fmt.Sprintf("outcome %d payment %d = sensor %d: %v, want sensor %d: %v",
					qi, i, p.SensorID, p.Amount, wp.SensorID, wp.Amount)
			}
		}
	}
	return ""
}

// SelectionStats counts the work one selection run (or, when accumulated,
// many runs) performed. ValuationCalls is the number of State.Gain
// invocations; SerialEquivCalls is what the exhaustive version-cached scan
// of GreedySelect would have invoked on the same instance, so
// SavedCalls() is the lazy strategy's pruning effect.
type SelectionStats struct {
	// ValuationCalls counts marginal-gain evaluations actually made —
	// State.Gain invocations plus PairCached fast-path recombinations.
	ValuationCalls int64 `json:"valuation_calls"`
	// SerialEquivCalls counts the Gain invocations an exhaustive scan
	// with the same per-(sensor, query) version cache would have made.
	// For the serial reference the two are equal.
	SerialEquivCalls int64 `json:"serial_equiv_calls"`
	// LazyReevaluations counts heap candidates popped stale and
	// re-evaluated against the current states.
	LazyReevaluations int64 `json:"lazy_reevaluations"`
	// SubmodularityViolations counts re-evaluations where a cached
	// marginal gain *increased* — evidence the valuation is not
	// submodular, so cached heap priorities are not upper bounds.
	SubmodularityViolations int64 `json:"submodularity_violations"`
	// ConservationViolations counts failed Eq. 11 checks on published
	// payments: a committed sensor not paid its announced cost, a payment
	// to a sensor that was not committed, or a query paying more than its
	// value or budget. It must read 0.
	ConservationViolations int64 `json:"conservation_violations"`
	// FallbackRescans counts rounds the lazy strategy re-scanned every
	// remaining candidate exhaustively after observing a violation.
	FallbackRescans int64 `json:"fallback_rescans"`
	// GeomCacheHits / GeomCacheLookups count the selection's use of
	// per-sensor geometry masks (query.GeomCached: which coverage cells
	// or trajectory samples a sensor's sensing disk reaches). Every mask
	// build, masked gain evaluation and masked commit is a lookup; the
	// gains and commits are the hits (popcounts over a prebuilt mask),
	// the builds are the misses (one disk walk each).
	GeomCacheHits    int64 `json:"geom_cache_hits"`
	GeomCacheLookups int64 `json:"geom_cache_lookups"`
	// PosteriorAppends counts GP observations folded into a region-
	// monitoring base posterior by rank-1 incremental update;
	// PosteriorRebuilds counts observations replayed by an exact
	// from-scratch recompute (cold cache, query reset, or conditioning
	// degradation).
	PosteriorAppends  int64 `json:"posterior_appends"`
	PosteriorRebuilds int64 `json:"posterior_rebuilds"`
}

// SavedCalls is the number of valuation calls the lazy heap avoided
// relative to the exhaustive version-cached scan (never negative).
func (s SelectionStats) SavedCalls() int64 {
	if s.SerialEquivCalls > s.ValuationCalls {
		return s.SerialEquivCalls - s.ValuationCalls
	}
	return 0
}

// Accumulate folds another run's counters into s, for callers
// aggregating across slots.
func (s *SelectionStats) Accumulate(o SelectionStats) {
	s.ValuationCalls += o.ValuationCalls
	s.SerialEquivCalls += o.SerialEquivCalls
	s.LazyReevaluations += o.LazyReevaluations
	s.SubmodularityViolations += o.SubmodularityViolations
	s.ConservationViolations += o.ConservationViolations
	s.FallbackRescans += o.FallbackRescans
	s.GeomCacheHits += o.GeomCacheHits
	s.GeomCacheLookups += o.GeomCacheLookups
	s.PosteriorAppends += o.PosteriorAppends
	s.PosteriorRebuilds += o.PosteriorRebuilds
}

// GreedySelect is Algorithm 1: greedy multi-sensor selection across a set
// of queries with arbitrary (black-box) valuation functions. Each
// iteration picks the sensor a maximizing sum_q deltav_{q,a} - c_a over
// the queries it improves, commits it to those queries, and charges each
// query pi_{q,a} = deltav_{q,a} * c_a / sum_q deltav_{q,a} (proportionate
// cost sharing). It stops when no sensor yields positive net benefit.
//
// The loop structure makes O(|Q| |S|^2) valuation calls (Theorem 1,
// property 4); the per-query incremental states keep each call cheap.
// The candidates are evaluated lazily (CELF, lazygreedy.go): cached net
// benefits in a max-heap, re-evaluated only when a relevant query's
// state changed, with an exhaustive-rescan fallback when a valuation
// proves non-submodular. The result is bit-identical to the serial scan
// GreedySelectWith keeps as the reference.
func GreedySelect(queries []query.Query, offers []Offer) *MultiResult {
	return GreedySelectWith(queries, offers, GreedyConfig{})
}

// GreedyConfig selects the candidate-evaluation strategy of
// GreedySelectWith; the zero value is GreedySelect's lazy path.
type GreedyConfig struct {
	Strategy Strategy
}

// GreedySelectWith is GreedySelect with the serial reference scan
// available: StrategySerial scans every remaining sensor each round,
// which the equivalence tests and the benchmark's probe compare the lazy
// path against. Both produce identical selections, payments and welfare.
func GreedySelectWith(queries []query.Query, offers []Offer, cfg GreedyConfig) *MultiResult {
	s := newSelection(queries, offers)
	defer s.release()
	if len(queries) == 0 || len(offers) == 0 {
		s.finalize()
		return s.res
	}
	if cfg.Strategy == StrategySerial {
		s.exhaustiveLoop()
	} else {
		s.lazyLoop()
	}
	s.finalize()
	return s.res
}

// submodularTolerance is the slack above which a re-evaluated marginal
// gain exceeding its cached value counts as a submodularity violation.
const submodularTolerance = 1e-12

// selection is the shared mutable state of one Algorithm 1 run, used by
// both the exhaustive and the lazy candidate-evaluation strategies.
//
// Marginal gains depend only on the query's own state, so cached gains
// stay exact until that query commits a sensor. Version stamps per query
// invalidate precisely the affected (sensor, query) pairs, turning the
// O(|Q||S|^2) valuation-call bound of Theorem 1 into a near-linear number
// of calls on sparse instances.
//
// All per-pair bookkeeping lives in flat CSR arrays inside a pooled
// selArena: relIdx[relOff[si]:relOff[si+1]] lists the query indices
// relevant to sensor si (ascending), with gains/vers parallel to relIdx.
// One run at metro scale touches millions of (sensor, query) pairs; the
// flat layout replaces one small slice per sensor (tens of thousands of
// allocations per slot, the bulk of the ~142MB-per-4-slots churn the
// sharded-metro bench used to report) with a handful of pooled arrays.
type selection struct {
	queries []query.Query
	offers  []Offer
	states  []query.State
	res     *MultiResult

	ar *selArena

	// relOff/relIdx is the CSR form of "queries relevant to sensor si"
	// (the Q_{l_s} of the pseudocode). Relevance is static within a slot.
	relOff []int32
	relIdx []int32
	// gains/vers cache the last evaluated marginal gain of each
	// (sensor, query) pair and the query version it was evaluated at
	// (-1 = never).
	gains []float64
	vers  []int32
	qver  []int32
	// pcs holds the query.PairCached view of each state (nil when the
	// state doesn't implement it), and base the memoized state-independent
	// part of each pair's gain: a PairCached base value (NaN = not yet
	// computed) or, for a pair with a geometry mask, the sensor's
	// query.GeomCached weight. Bases never go stale: they depend only on
	// the sensor and the query, not on commits.
	pcs  []query.PairCached
	base []float64
	// floor is, per query, the Value of a query.MaxValued state (NaN for
	// every other state), refreshed by commit: a stale pair of a marked
	// query whose base is known re-evaluates as base - floor in
	// evalSensor, the float GainFrom would return, with no interface
	// call.
	floor []float64
	// geom holds the query.GeomCached view of each state (nil when the
	// state doesn't implement it) and geomWords its mask length. The
	// mask of pair idx is masks[maskOff[idx]:][:geomWords[qi]]; maskOff
	// is parallel to relIdx and unset for the other queries' pairs.
	geom      []query.GeomCached
	geomWords []int32
	maskOff   []int32
	masks     []uint64
	// vol is the lazy loop's block of volatile pairs, query-major
	// (buildVolatile): query qi's pairs are vol[volOff[qi]:volOff[qi+1]].
	// volAt, parallel to relIdx, is each pair's index in it (-1 for a
	// submodular query's pair). All three are nil under the serial scan.
	vol    []volPair
	volOff []int32
	volAt  []int32
	// outs holds the outcome of each query by query index; finalize
	// publishes it as the result's Outcomes.
	outs []MultiOutcome
	// recs books every (query, commit) pair in commit order; finalize
	// deals them out to outs.
	recs []commitRec
	// relCount tracks, per query, how many remaining sensors are
	// relevant to it — the pairs an exhaustive scan would re-evaluate
	// after the query's version bumps (SerialEquivCalls accounting).
	relCount  []int32
	remaining []bool
	// submod marks queries advertising query.Submodular. Only their
	// stale-gain increases count as violations: unmarked valuations
	// (aggregates, trajectories) are allowed to grow and are handled by
	// the lazy strategy's volatile refresh instead.
	submod []bool
	// lastBumped lists the query indices whose version the most recent
	// commit advanced (scratch reused across rounds; lazy maintenance
	// reads it to refresh non-submodular valuations after each commit).
	lastBumped []int32

	stats SelectionStats
}

// commitRec is one query's share of one commit: the query index, the
// committed offer and the payment pi_{q,s} the query owes for it.
type commitRec struct {
	qi, offer int32
	amount    float64
}

// selArena owns the reusable scratch of a selection run. Nothing in it
// escapes into the MultiResult, so GreedySelectWith returns it to
// idleArenas once finalize has copied the outputs out; concurrent shard
// lanes each draw their own arena.
type selArena struct {
	relOff     []int32
	relIdx     []int32
	gains      []float64
	vers       []int32
	qver       []int32
	relCount   []int32
	remaining  []bool
	submod     []bool
	lastBumped []int32
	recs       []commitRec
	pcs        []query.PairCached
	base       []float64
	floor      []float64
	geom       []query.GeomCached
	geomWords  []int32
	maskOff    []int32
	masks      []uint64
	// cons is finalize's conservation check.
	cons conservation
	// cursor is scratch for the counting passes that deal items out to
	// CSR rows (buildRelevance's buckets, lazyLoop's volatile index,
	// finalize's outcomes).
	cursor []int32

	// lazyLoop scratch.
	heap      lazyHeap
	touched   []bool
	touchList []int32
	volOff    []int32
	vol       []volPair
	volAt     []int32

	// relevance-index scratch (buildRelevance).
	rbs      []query.RelevanceBased
	cellOff  []int32
	cellQs   []int32
	globalQs []int32
	merged   []int32
}

// idleArenas holds the arenas of finished runs for the next run to reuse.
// It is a free list, not a sync.Pool: a pool empties itself at every GC,
// and an arena rebuilt after each GC cost urban-select about a fifth more
// bytes per slot once the live heap, and with it the GC interval, was
// small. The list holds at most as many arenas as runs ever overlapped.
var idleArenas struct {
	sync.Mutex
	free []*selArena
}

// getArena takes an idle arena, or makes one.
func getArena() *selArena {
	idleArenas.Lock()
	defer idleArenas.Unlock()
	n := len(idleArenas.free)
	if n == 0 {
		return new(selArena)
	}
	ar := idleArenas.free[n-1]
	idleArenas.free = idleArenas.free[:n-1]
	return ar
}

// grow returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// release returns the arena to idleArenas. Safe to call more than once.
func (s *selection) release() {
	if s.ar == nil {
		return
	}
	ar := s.ar
	s.ar = nil
	s.relOff, s.relIdx, s.gains, s.vers = nil, nil, nil, nil
	s.qver, s.relCount, s.lastBumped, s.recs = nil, nil, nil, nil
	s.remaining, s.submod, s.floor = nil, nil, nil
	s.pcs, s.base, s.geom, s.geomWords, s.maskOff, s.masks = nil, nil, nil, nil, nil, nil
	s.vol, s.volOff, s.volAt = nil, nil, nil
	// Interface slots in the pooled buffers would otherwise pin this
	// run's states and queries past the run.
	clear(ar.pcs)
	clear(ar.geom)
	clear(ar.rbs)
	idleArenas.Lock()
	idleArenas.free = append(idleArenas.free, ar)
	idleArenas.Unlock()
}

// evalCounters accumulates a loop's valuation accounting in a local;
// addCounters folds it into the stats when the loop is done.
type evalCounters struct {
	calls      int64
	violations int64
	geomHits   int64
}

func newSelection(queries []query.Query, offers []Offer) *selection {
	s := &selection{
		queries: queries,
		offers:  offers,
		states:  make([]query.State, len(queries)),
		outs:    make([]MultiOutcome, len(queries)),
		res:     &MultiResult{},
	}
	for i, q := range queries {
		s.states[i] = q.NewState()
	}
	if len(queries) == 0 || len(offers) == 0 {
		return s
	}

	ar := getArena()
	s.ar = ar
	nq, no := len(queries), len(offers)
	s.relCount = grow(ar.relCount, nq)
	s.qver = grow(ar.qver, nq)
	s.submod = grow(ar.submod, nq)
	s.floor = grow(ar.floor, nq)
	if cap(ar.pcs) < nq {
		ar.pcs = make([]query.PairCached, nq)
		ar.geom = make([]query.GeomCached, nq)
		ar.rbs = make([]query.RelevanceBased, nq)
	}
	s.pcs, s.geom = ar.pcs[:nq], ar.geom[:nq]
	for qi := range queries {
		s.relCount[qi] = 0
		s.qver[qi] = 0
		s.submod[qi] = query.IsSubmodular(queries[qi])
		s.pcs[qi], _ = s.states[qi].(query.PairCached)
		s.geom[qi], _ = s.states[qi].(query.GeomCached)
		s.floor[qi] = math.NaN()
		if query.IsMaxValued(s.states[qi]) {
			s.floor[qi] = s.states[qi].Value()
		}
	}
	s.lastBumped = ar.lastBumped[:0]
	s.recs = ar.recs[:0]

	s.buildRelevance()
	s.buildGeometry()

	npairs := len(s.relIdx)
	s.gains = grow(ar.gains, npairs)
	s.vers = grow(ar.vers, npairs)
	for i := range s.vers {
		s.vers[i] = -1
	}
	// The exhaustive scan evaluates every relevant pair once up front
	// (version -1 -> 0).
	s.stats.SerialEquivCalls += int64(npairs)
	s.remaining = grow(ar.remaining, no)
	for i := range s.remaining {
		s.remaining[i] = true
	}
	ar.relCount, ar.qver, ar.submod, ar.floor = s.relCount, s.qver, s.submod, s.floor
	ar.gains, ar.vers, ar.remaining = s.gains, s.vers, s.remaining
	ar.base = s.base
	return s
}

// relevanceGridDim is the resolution (per axis) of the footprint bucket
// grid over the offered sensors' bounding box.
const relevanceGridDim = 32

// buildRelevance fills relOff/relIdx (and relCount) with the relevant
// query indices of every sensor, ascending, and the parallel base array:
// queries advertising query.RelevanceBased yield their PairCached base
// value as a byproduct of the relevance test, so the pair's first gain
// evaluation skips the distance/quality math entirely; other pairs get
// the NaN not-yet-computed sentinel. A footprint grid prunes the
// Relevant calls: queries advertising query.Footprinted are bucketed into
// the grid cells their footprint overlaps, and each sensor tests only its
// own cell's bucket plus the global list of unfootprinted queries. The
// bucket of a sensor's cell is a superset of its relevant footprinted
// queries and every candidate still goes through Relevant in ascending
// query order, so the CSR rows are those of testing every (sensor,
// query) pair.
func (s *selection) buildRelevance() {
	ar := s.ar
	nq, no := len(s.queries), len(s.offers)
	s.relOff = grow(ar.relOff, no+1)
	s.relIdx = ar.relIdx[:0]
	s.base = ar.base[:0]
	s.relOff[0] = 0

	rbs := ar.rbs[:nq]
	for qi, q := range s.queries {
		rbs[qi], _ = q.(query.RelevanceBased)
	}
	nan := math.NaN()
	appendRelevant := func(si int, o Offer, candidates []int32) {
		for _, qi := range candidates {
			if rb := rbs[qi]; rb != nil {
				ok, b := rb.RelevantBase(o.Sensor)
				if !ok {
					continue
				}
				s.relIdx = append(s.relIdx, qi)
				s.base = append(s.base, b)
				s.relCount[qi]++
			} else if s.queries[qi].Relevant(o.Sensor) {
				s.relIdx = append(s.relIdx, qi)
				s.base = append(s.base, nan)
				s.relCount[qi]++
			}
		}
		s.relOff[si+1] = int32(len(s.relIdx))
	}

	// Bounding box of the offered sensors; footprints are clipped to it.
	minX, minY := s.offers[0].Sensor.Pos.X, s.offers[0].Sensor.Pos.Y
	maxX, maxY := minX, minY
	for _, o := range s.offers[1:] {
		p := o.Sensor.Pos
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	cw := (maxX - minX) / relevanceGridDim
	ch := (maxY - minY) / relevanceGridDim
	cellOf := func(v, lo, step float64) int {
		if step <= 0 {
			return 0
		}
		c := int((v - lo) / step)
		if c < 0 {
			c = 0
		}
		if c >= relevanceGridDim {
			c = relevanceGridDim - 1
		}
		return c
	}

	// The buckets are one CSR pair — cell c holds
	// cellQs[cellOff[c]:cellOff[c+1]], ascending — filled in two passes
	// over the footprints: count, then deal out.
	const ncells = relevanceGridDim * relevanceGridDim
	cellOff := grow(ar.cellOff, ncells+1)
	ar.cellOff = cellOff
	clear(cellOff)
	global := ar.globalQs[:0]
	eachCell := func(fill func(qi int32, cell int)) {
		for qi, q := range s.queries {
			f, ok := q.(query.Footprinted)
			if !ok {
				continue
			}
			r := f.RelevanceFootprint()
			if r.MaxX < minX || r.MinX > maxX || r.MaxY < minY || r.MinY > maxY {
				continue // footprint misses every offered sensor
			}
			i0, i1 := cellOf(r.MinX, minX, cw), cellOf(r.MaxX, minX, cw)
			j0, j1 := cellOf(r.MinY, minY, ch), cellOf(r.MaxY, minY, ch)
			for j := j0; j <= j1; j++ {
				for i := i0; i <= i1; i++ {
					fill(int32(qi), j*relevanceGridDim+i)
				}
			}
		}
	}
	for qi, q := range s.queries {
		if _, ok := q.(query.Footprinted); !ok {
			global = append(global, int32(qi))
		}
	}
	ar.globalQs = global
	eachCell(func(_ int32, cell int) { cellOff[cell+1]++ })
	for c := 0; c < ncells; c++ {
		cellOff[c+1] += cellOff[c]
	}
	cellQs := grow(ar.cellQs, int(cellOff[ncells]))
	ar.cellQs = cellQs
	cursor := grow(ar.cursor, ncells)
	ar.cursor = cursor
	copy(cursor, cellOff[:ncells])
	eachCell(func(qi int32, cell int) {
		cellQs[cursor[cell]] = qi
		cursor[cell]++
	})

	merged := ar.merged[:0]
	for si, o := range s.offers {
		p := o.Sensor.Pos
		cell := cellOf(p.Y, minY, ch)*relevanceGridDim + cellOf(p.X, minX, cw)
		bucket := cellQs[cellOff[cell]:cellOff[cell+1]]
		// Merge the global (unfootprinted) and bucket lists, both
		// ascending, so candidates arrive in the naive loop's order.
		merged = merged[:0]
		gi, bi := 0, 0
		for gi < len(global) && bi < len(bucket) {
			if global[gi] < bucket[bi] {
				merged = append(merged, global[gi])
				gi++
			} else {
				merged = append(merged, bucket[bi])
				bi++
			}
		}
		merged = append(merged, global[gi:]...)
		merged = append(merged, bucket[bi:]...)
		appendRelevant(si, o, merged)
	}
	ar.merged = merged
	ar.relOff, ar.relIdx, ar.base = s.relOff, s.relIdx, s.base
}

// buildGeometry computes the geometry mask of every (sensor, query) pair
// of a query.GeomCached state into one slab, in CSR order, and the
// sensor's weight into the pair's base slot, so the rounds evaluate those
// pairs from prebuilt masks (pairGain) instead of walking the sensor's
// disk. It runs single-threaded before the first round.
func (s *selection) buildGeometry() {
	ar := s.ar
	s.geomWords = grow(ar.geomWords, len(s.queries))
	s.maskOff = grow(ar.maskOff, len(s.relIdx))
	ar.geomWords, ar.maskOff = s.geomWords, s.maskOff
	total := 0
	for qi, gc := range s.geom {
		if gc != nil {
			s.geomWords[qi] = int32(gc.GeomWords())
			total += int(s.relCount[qi]) * gc.GeomWords()
		}
	}
	if total == 0 || total > math.MaxInt32 {
		// Nothing to build, or more words than the int32 offsets can
		// address: the run goes without masks, on the plain Gain and Add.
		clear(s.geom)
		return
	}
	if cap(ar.masks) < total {
		ar.masks = make([]uint64, total)
	}
	s.masks = ar.masks[:total]
	clear(s.masks)
	off := 0
	for si, o := range s.offers {
		for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
			qi := s.relIdx[idx]
			if gc := s.geom[qi]; gc != nil {
				w := int(s.geomWords[qi])
				s.maskOff[idx] = int32(off)
				s.base[idx] = gc.BuildGeom(o.Sensor, s.masks[off:off+w])
				off += w
				s.stats.GeomCacheLookups++
			}
		}
	}
}

// mask returns the geometry mask of pair idx, a pair of GeomCached query
// qi.
func (s *selection) mask(idx, qi int32) []uint64 {
	off := s.maskOff[idx]
	return s.masks[off : off+s.geomWords[qi]]
}

// pairGain evaluates the marginal gain of sensor si for query qi (pair
// idx of the CSR arrays) at the query's current state, by the cheapest
// exact route the state offers: a memoized base value, a prebuilt
// geometry mask, or the plain Gain. A masked evaluation of a volatile
// pair also records the pair's fresh count for lazyLoop's bound.
func (s *selection) pairGain(si int, idx, qi int32, c *evalCounters) float64 {
	c.calls++
	sensor := s.offers[si].Sensor
	if pc := s.pcs[qi]; pc != nil {
		b := s.base[idx]
		if b != b { // NaN sentinel: base not yet computed
			b = pc.BaseValue(sensor)
			s.base[idx] = b
		}
		return pc.GainFrom(b)
	}
	if gc := s.geom[qi]; gc != nil {
		c.geomHits++
		g, fresh := gc.GainGeom(s.mask(idx, qi), s.base[idx])
		if s.volAt != nil {
			if k := s.volAt[idx]; k >= 0 {
				s.vol[k].fresh = int32(fresh)
			}
		}
		return g
	}
	return s.states[qi].Gain(sensor)
}

// evalSensor returns the sensor's current net benefit -c_a + sum of
// positive marginal gains, refreshing exactly the stale (sensor, query)
// cache entries. A refreshed gain larger than its cached predecessor is
// counted as a submodularity violation. A stale pair of a
// query.MaxValued query with a known base is base - floor: the float
// pairGain would compute, counted as the valuation call it replaces.
func (s *selection) evalSensor(si int, c *evalCounters) float64 {
	lo, hi := s.relOff[si], s.relOff[si+1]
	rel, vers, gains, base := s.relIdx[lo:hi], s.vers[lo:hi], s.gains[lo:hi], s.base[lo:hi]
	qver, floor, submod := s.qver, s.floor, s.submod
	net := -s.offers[si].Cost
	for k, qi := range rel {
		if v := qver[qi]; vers[k] != v {
			var g float64
			if f, b := floor[qi], base[k]; f == f && b == b {
				c.calls++
				g = b - f
			} else {
				g = s.pairGain(si, lo+int32(k), qi, c)
			}
			if g > gains[k]+submodularTolerance && vers[k] >= 0 && submod[qi] {
				c.violations++
			}
			gains[k] = g
			vers[k] = v
		}
		if dv := gains[k]; dv > 0 {
			net += dv
		}
	}
	return net
}

// fresh reports whether every cached gain of the sensor matches the
// current query versions, i.e. cachedNet(si) is exact right now.
func (s *selection) fresh(si int) bool {
	for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
		if s.vers[idx] != s.qver[s.relIdx[idx]] {
			return false
		}
	}
	return true
}

// cachedNet recomputes the net benefit from the caches without any
// valuation call, with the same accumulation order as evalSensor (so the
// floats are identical when the caches are fresh).
func (s *selection) cachedNet(si int) float64 {
	net := -s.offers[si].Cost
	for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
		if dv := s.gains[idx]; dv > 0 {
			net += dv
		}
	}
	return net
}

// commit selects sensor si at net benefit `net`: applies it to every
// query it freshly improves, splits its cost proportionately, bumps the
// affected query versions and removes it from the candidate pool. The
// caches of si must be fresh (the scan or heap just evaluated them).
func (s *selection) commit(si int, net float64) {
	o := s.offers[si]
	var sumDv float64
	for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
		if s.vers[idx] == s.qver[s.relIdx[idx]] && s.gains[idx] > 0 {
			sumDv += s.gains[idx]
		}
	}
	s.lastBumped = s.lastBumped[:0]
	for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
		qi := s.relIdx[idx]
		s.relCount[qi]--
		dv := s.gains[idx]
		if s.vers[idx] != s.qver[qi] || dv <= 0 {
			continue
		}
		if gc := s.geom[qi]; gc != nil {
			gc.AddGeom(s.mask(idx, qi), s.base[idx])
			s.stats.GeomCacheLookups++
			s.stats.GeomCacheHits++
		} else {
			s.states[qi].Add(o.Sensor)
			if f := s.floor[qi]; f == f {
				s.floor[qi] = s.states[qi].Value()
			}
		}
		s.qver[qi]++
		s.lastBumped = append(s.lastBumped, qi)
		// An exhaustive scan would re-evaluate this query against every
		// remaining sensor on the next round.
		s.stats.SerialEquivCalls += int64(s.relCount[qi])
		s.recs = append(s.recs, commitRec{qi: qi, offer: int32(si), amount: dv * o.Cost / sumDv})
	}
	s.ar.lastBumped, s.ar.recs = s.lastBumped, s.recs
	s.remaining[si] = false
	s.res.Selected = append(s.res.Selected, o.Sensor)
	s.res.Trace = append(s.res.Trace, SelectionStep{
		Offer: si, SensorID: o.Sensor.ID, Cost: o.Cost, Net: net,
	})
	s.res.TotalCost += o.Cost
}

// finalize publishes the per-query outcomes with their values, the total
// value and the stats, after checking the published payments against
// Eq. 11.
func (s *selection) finalize() {
	s.dealOutcomes()
	for i := range s.outs {
		out := &s.outs[i]
		out.Value = s.states[i].Value()
		s.res.TotalValue += out.Value
	}
	s.res.Outcomes = s.outs
	// A run without an arena committed nothing, so it paid nothing.
	if s.ar != nil {
		s.stats.ConservationViolations += s.ar.cons.multi(s.queries, s.outs, s.res.Trace)
	}
	s.res.Stats = s.stats
}

// dealOutcomes fills every query's Sensors and Payments from the commit
// records with a stable counting sort by query: one slab of sensors (each
// query's run in commit order) and one of payments (each run then sorted
// by sensor ID). An outcome without commits gets nil Sensors and empty,
// non-nil Payments: the lane partial encodes nil and empty apart, and
// its bytes must not depend on how the run was booked.
func (s *selection) dealOutcomes() {
	sensors := make([]*sensornet.Sensor, len(s.recs))
	pays := make([]Payment, len(s.recs))
	if len(s.recs) == 0 {
		for i := range s.outs {
			s.outs[i].Payments = pays
		}
		return
	}
	nq := len(s.queries)
	off := grow(s.ar.cursor, nq+1)
	s.ar.cursor = off
	clear(off)
	for _, r := range s.recs {
		off[r.qi+1]++
	}
	for qi := 0; qi < nq; qi++ {
		off[qi+1] += off[qi]
	}
	// off[qi] is now the start of query qi's run; it advances to the run's
	// end while the records are dealt, so afterwards run qi is
	// [off[qi-1], off[qi]) with off[-1] = 0.
	for _, r := range s.recs {
		sn := s.offers[r.offer].Sensor
		at := off[r.qi]
		sensors[at] = sn
		pays[at] = Payment{SensorID: sn.ID, Amount: r.amount}
		off[r.qi]++
	}
	start := int32(0)
	for qi := range s.outs {
		end := off[qi]
		out := &s.outs[qi]
		if end > start {
			out.Sensors = sensors[start:end:end]
		}
		out.Payments = sortPayments(pays[start:end:end])
		start = end
	}
}

func (s *selection) addCounters(c evalCounters) {
	s.stats.ValuationCalls += c.calls
	s.stats.SubmodularityViolations += c.violations
	s.stats.GeomCacheLookups += c.geomHits
	s.stats.GeomCacheHits += c.geomHits
}

// scan finds the round's best candidate: the lowest sensor index with the
// strictly largest positive net benefit, or -1 when none is profitable.
func (s *selection) scan(c *evalCounters) (int, float64) {
	bestS, bestNet := -1, 0.0
	for si := range s.offers {
		if !s.remaining[si] {
			continue
		}
		if net := s.evalSensor(si, c); net > bestNet {
			bestNet = net
			bestS = si
		}
	}
	return bestS, bestNet
}

// exhaustiveLoop is the original Algorithm 1 loop: scan every remaining
// sensor each round, commit the best, stop when nothing is profitable.
func (s *selection) exhaustiveLoop() {
	for {
		var c evalCounters
		bestS, bestNet := s.scan(&c)
		s.addCounters(c)
		if bestS == -1 {
			break // no sensor with positive net benefit: leave the loop
		}
		s.commit(bestS, bestNet)
	}
}
