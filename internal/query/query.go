// Package query implements the query taxonomy of the paper (Fig. 1) and the
// valuation functions of §2.2-§2.3:
//
//   - Point queries (single-sensor, Eq. 3, and multiple-sensor)
//   - Spatial aggregate queries (Eq. 5, coverage-weighted quality)
//   - Queries over trajectories (§2.2.3, aggregate over a polyline)
//   - Location monitoring queries (Eqs. 16-17, regression-residual quality)
//   - Region monitoring queries (Eq. 7, GP variance-reduction quality)
//   - Event-detection queries (§2.3, implemented as the redundant-sampling
//     extension the paper leaves as future work)
//
// Valuation functions are black boxes to the acquisition algorithms
// (§3.2): every query exposes Value(S) over sensor sets plus an
// incremental State so the greedy algorithm can compute marginal gains in
// O(work of one sensor) instead of re-evaluating whole sets.
package query

import (
	"repro/internal/geo"
	"repro/internal/sensornet"
)

// Query is the common behaviour of all query types.
type Query interface {
	// QID is a unique identifier used for payments and metrics.
	QID() string
	// Budget returns B_q, the maximum the issuer is willing to pay.
	Budget() float64
	// Relevant reports whether sensor s can possibly contribute value;
	// it is a cheap spatial prefilter (the Q_{l_s} of Algorithm 1).
	Relevant(s *sensornet.Sensor) bool
	// NewState creates empty incremental valuation state for one run of a
	// selection algorithm.
	NewState() State
}

// State is the mutable valuation state of one query during sensor
// selection: the set S_q selected so far and its value v_q(S_q).
type State interface {
	// Query returns the owning query.
	Query() Query
	// Value returns v_q(S_q) for the currently added sensors.
	Value() float64
	// Gain returns the marginal value v_q(S_q ∪ {s}) − v_q(S_q) without
	// mutating the state. It may be negative or zero.
	Gain(s *sensornet.Sensor) float64
	// Add commits sensor s to S_q.
	Add(s *sensornet.Sensor)
}

// Submodular is an optional marker interface for queries whose set
// valuation is monotone submodular: for every A ⊆ B and sensor x ∉ B,
// Gain(x | A) >= Gain(x | B). The lazy-greedy selection strategy
// (internal/core) treats a marked query's cached marginal gains as upper
// bounds that only need re-evaluation when the query's state changes;
// unmarked queries are refreshed after every commit that touches them
// (from GeomCached's bound where the state offers one). The marker must
// be truthful — a valuation that claims submodularity but lets gains
// grow can defeat lazy-greedy's bound invariant (a best-effort violation
// detector then forces exhaustive rescans, but detection is not
// guaranteed).
type Submodular interface {
	// SubmodularValuation reports that Gain is non-increasing in the
	// committed set.
	SubmodularValuation() bool
}

// IsSubmodular reports whether the query advertises a monotone
// submodular valuation.
func IsSubmodular(q Query) bool {
	m, ok := q.(Submodular)
	return ok && m.SubmodularValuation()
}

// Footprinted is an optional interface for queries whose spatial
// prefilter is confined to a rectangle: RelevanceFootprint returns a rect
// R such that Relevant(s) implies s.Pos ∈ R. The selection layer uses the
// footprint to bucket queries in a grid index and skip Relevant calls for
// sensors outside the rect, so the contract must be truthful — a rect
// that is too small silently drops relevant (sensor, query) pairs from
// selection. A too-large rect only costs extra Relevant calls.
//
// The point kinds (Point, MultiPoint, and the probes location and
// region monitoring and event detection build from them) cut their box
// at the reach, dmax*(1-ThetaMin) plus a 1e-9*dmax slack, not at dmax:
// Eq. 4 gives quality (1-gamma)*(1 - d/dmax)*tau, which stays below
// ThetaMin past the reach only while (1-gamma)*tau <= 1. That is the
// range sensornet.Sensor documents, and datasets.SensorConfig rejects
// trust bounds outside [0, 1]; a sensor built with (1-gamma)*tau > 1
// could be relevant outside the box and be dropped from selection.
type Footprinted interface {
	// RelevanceFootprint returns a closed rectangle containing every
	// sensor position the query could consider relevant.
	RelevanceFootprint() geo.Rect
}

// Footprint returns the query's relevance footprint and whether it
// advertises one.
func Footprint(q Query) (geo.Rect, bool) {
	f, ok := q.(Footprinted)
	if !ok {
		return geo.Rect{}, false
	}
	return f.RelevanceFootprint(), true
}

// GeomCached is an optional interface for valuation states whose marginal
// gain splits into per-sensor geometry that is fixed for the state's
// lifetime (which coverage cells or trajectory samples a sensor's sensing
// disk reaches — sensors do not move within a slot), a per-sensor weight
// that is fixed as well, and cheap arithmetic on the committed set. The
// geometry is a bit mask of GeomWords words. A selection run builds the
// mask of every relevant sensor once, before its first round, keeps the
// masks and weights in its own scratch memory and passes a sensor's pair
// back with each evaluation:
//
//	GainGeom(mask of s, weight of s) == Gain(s)   bit-for-bit, at every state,
//
// and AddGeom(mask of s, weight of s) leaves the state exactly as Add(s)
// would. The state retains no mask, and GainGeom, like Gain, must not
// write to the state.
//
// GainGeom also returns the sensor's fresh count: how many of its mask's
// targets the committed set does not reach yet. The count never grows as
// sensors commit, and GainBound turns a count from an earlier state into
// a bound on the current gain that reads no mask.
//
// The selection counts its use of this cache into
// SelectionStats.GeomCacheLookups / GeomCacheHits: every BuildGeom,
// GainGeom and AddGeom is one lookup; the GainGeom and AddGeom calls are
// the hits (served from a prebuilt mask), the BuildGeom calls are the
// misses (each computes one sensor's geometry). GainBound reads no mask
// and counts as neither.
type GeomCached interface {
	// GeomWords returns the length of the state's geometry masks.
	GeomWords() int
	// BuildGeom computes sensor s's geometry into mask, which is
	// GeomWords long and zeroed, and returns the sensor's weight.
	BuildGeom(s *sensornet.Sensor, mask []uint64) (weight float64)
	// GainGeom is Gain(s) and s's fresh count, given the mask and weight
	// BuildGeom computed for s.
	GainGeom(mask []uint64, weight float64) (gain float64, fresh int)
	// GainBound returns, when ok, a bound at least as large as the
	// current gain of any sensor of that weight whose fresh count was
	// fresh at this state or an earlier one. It equals GainGeom's gain
	// when fresh is the current count. When !ok the state promises
	// nothing (for Eq. 5: a negative or non-finite budget or quality).
	GainBound(fresh int, weight float64) (bound float64, ok bool)
	// AddGeom is Add(s), given the mask and weight BuildGeom computed
	// for s.
	AddGeom(mask []uint64, weight float64)
}

// PairCached is an optional interface for valuation states whose marginal
// gain factors into a state-independent per-sensor base value and a cheap
// state-dependent combination:
//
//	Gain(s) == GainFrom(BaseValue(s))   bit-for-bit, at every state.
//
// The greedy core memoizes BaseValue once per (sensor, query) pair and
// re-evaluates stale gains through GainFrom alone, eliminating the
// distance/quality math from every re-evaluation after a query's state
// changes. The equality above is a hard contract — the selection caches
// gains computed both ways interchangeably, and the strategy-equivalence
// tests compare results to the last float bit — so GainFrom must perform
// exactly the operations Gain performs after its base value is known
// (same order, same intermediate precision), and BaseValue must not read
// anything that changes as sensors commit.
type PairCached interface {
	// BaseValue returns the state-independent part of the sensor's
	// marginal gain.
	BaseValue(s *sensornet.Sensor) float64
	// GainFrom combines a (possibly memoized) base value with the current
	// state into the marginal gain.
	GainFrom(base float64) float64
}

// MaxValued is an optional marker for PairCached states whose set
// valuation is a max over singletons (Eq. 3's point query: the best
// reading answers it), so a pair's gain is its base value less what the
// committed set is already worth:
//
//	GainFrom(b) == b - Value()   bit-for-bit, at every state.
//
// The greedy core then keeps one Value per marked query, refreshed after
// each commit, and re-evaluates a stale pair whose base it holds as that
// subtraction, with no interface call. Like PairCached's, the equality
// is a hard contract: the selection mixes gains computed both ways, and
// the strategy-equivalence tests compare them to the last float bit.
type MaxValued interface {
	// MaxOfSingletons reports that GainFrom(b) is b - Value().
	MaxOfSingletons() bool
}

// IsMaxValued reports whether the state advertises MaxValued's contract.
// Only a PairCached state can.
func IsMaxValued(st State) bool {
	if _, ok := st.(PairCached); !ok {
		return false
	}
	m, ok := st.(MaxValued)
	return ok && m.MaxOfSingletons()
}

// RelevanceBased is an optional interface for queries whose Relevant
// test computes their states' PairCached base value as a byproduct (a
// point query's relevance check *is* its valuation, Eq. 3). The
// selection layer then seeds the per-pair base cache while building the
// relevance index instead of recomputing the same distance/quality math
// on the pair's first gain evaluation. The contract is exact:
// RelevantBase(s) must return (Relevant(s), st.BaseValue(s)) bit-for-bit
// for every state st of the query.
type RelevanceBased interface {
	// RelevantBase reports relevance and, when relevant, the PairCached
	// base value of sensor s (unspecified when not relevant).
	RelevantBase(s *sensornet.Sensor) (bool, float64)
}

// Value evaluates a query's valuation on an arbitrary sensor set by
// replaying it through a fresh state. This is v_q(S) used by definitions
// such as Eq. 13.
func Value(q Query, sensors []*sensornet.Sensor) float64 {
	st := q.NewState()
	for _, s := range sensors {
		st.Add(s)
	}
	return st.Value()
}
