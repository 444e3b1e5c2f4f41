package ps

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/query"
)

// QueryKind identifies one of the eight query types of the paper's
// taxonomy (Fig. 1, §2.2-§2.3).
type QueryKind int

// The eight query kinds.
const (
	// KindPoint is the single-sensor point query (Eq. 3).
	KindPoint QueryKind = iota
	// KindMultiPoint is the multiple-sensor (k-redundancy) point query.
	KindMultiPoint
	// KindAggregate is the spatial aggregate query over a region (Eq. 5).
	KindAggregate
	// KindTrajectory is the aggregate query over a trajectory (§2.2.3).
	KindTrajectory
	// KindLocationMonitoring is continuous monitoring of one location
	// (Eqs. 16-17).
	KindLocationMonitoring
	// KindRegionMonitoring is continuous monitoring of a region (Eq. 7).
	KindRegionMonitoring
	// KindEventDetection watches one location for threshold crossings
	// (§2.3 extension).
	KindEventDetection
	// KindRegionEvent watches a region's average for threshold crossings
	// (§2.3's Q4, extension).
	KindRegionEvent
)

// String returns the kind's wire name, as used by the JSON codec (package
// wire) and the psserve HTTP API.
func (k QueryKind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindMultiPoint:
		return "multipoint"
	case KindAggregate:
		return "aggregate"
	case KindTrajectory:
		return "trajectory"
	case KindLocationMonitoring:
		return "locmon"
	case KindRegionMonitoring:
		return "regmon"
	case KindEventDetection:
		return "event"
	case KindRegionEvent:
		return "regionevent"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// ParseQueryKind parses a wire name ("point", "multipoint", "aggregate",
// "trajectory", "locmon", "regmon", "event", "regionevent") into its kind.
func ParseQueryKind(s string) (QueryKind, error) {
	for k := KindPoint; k <= KindRegionEvent; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("ps: unknown query kind %q", s)
}

// Spec is the declarative description of one query of any kind: what the
// issuer wants, with no reference to when it will run. A Spec is submitted
// with Aggregator.Submit (batch use) or Engine.Submit (streaming use);
// continuous kinds carry a relative Duration and have their start slot
// bound only when the spec is materialized — under an Engine that happens
// on the event-loop goroutine, so a window can never be silently shortened
// by slots that tick between enqueue and execution.
//
// The interface is sealed: the eight implementations in this package
// (PointSpec, MultiPointSpec, AggregateSpec, TrajectorySpec,
// LocationMonitoringSpec, RegionMonitoringSpec, EventDetectionSpec,
// RegionEventSpec) are the only query kinds the aggregator serves; a new
// kind is added here, and submission, validation, the wire codec and the
// client SDK pick it up without per-kind entry points.
type Spec interface {
	// QueryID returns the issuer-chosen query identifier.
	QueryID() string
	// Kind returns the query kind the spec describes.
	Kind() QueryKind
	// Validate checks the spec against the world it would run on. It is
	// called by Aggregator.Submit before materialization; transports (the
	// psserve daemon) call it up front to reject bad requests
	// synchronously.
	Validate(w *World) error

	// materialize registers the described query with the aggregator,
	// binding its start slot to the aggregator's next slot. It seals the
	// interface to this package.
	materialize(a *Aggregator) (SubmittedQuery, error)

	// slots returns how many consecutive slots the materialized query is
	// active for: 1 for the one-shot kinds, Duration for the continuous
	// ones. DescribeSubmission turns it into the query's window.
	slots() int

	// footprint returns the spec's relevance footprint on the given world:
	// a rectangle containing every sensor position that could ever be
	// Relevant to the materialized query. The sharded execution layer
	// routes a spec to the shard(s) its footprint intersects (shard.go).
	footprint(w *World) Rect
}

// SubmittedQuery describes a query accepted by Aggregator.Submit.
type SubmittedQuery struct {
	// ID is the query identifier; per-slot outcomes are keyed by it.
	ID string
	// Kind is the submitted spec's kind.
	Kind QueryKind
	// Start is the first slot the query can produce a result for; End is
	// the last. One-shot kinds have Start == End.
	Start int
	End   int

	query any
}

// DescribeSubmission returns what submitting spec binds to when the
// receiving aggregator's next slot is nextSlot: the ID, the kind and the
// window [nextSlot, nextSlot+slots-1]. It is a pure function of its
// arguments and shares the one place the window is computed with every
// materialize method, so a cluster coordinator can answer a submit from
// the spec and the lockstep slot number without waiting for the node that
// materializes it.
func DescribeSubmission(spec Spec, nextSlot int) SubmittedQuery {
	return describeSubmission(spec.QueryID(), spec.Kind(), nextSlot, spec.slots())
}

// describeSubmission takes the spec's facts one by one: materialize calls
// it on its concrete spec without boxing it into a Spec (an allocation per
// submit).
func describeSubmission(id string, kind QueryKind, nextSlot, slots int) SubmittedQuery {
	return SubmittedQuery{ID: id, Kind: kind, Start: nextSlot, End: nextSlot + slots - 1}
}

// Underlying returns the registered query object (*PointQuery,
// *AggregateQuery, *LocationMonitoringQuery, ...) for callers that need
// the concrete runtime state, e.g. a monitoring query's samples.
func (s SubmittedQuery) Underlying() any { return s.query }

// Submit validates a spec against the aggregator's world and registers
// the described query for the upcoming slots. It is the aggregator's
// single submission entry point and must be called by the goroutine
// owning the aggregator (under an Engine, use Engine.Submit instead).
func (a *Aggregator) Submit(spec Spec) (SubmittedQuery, error) {
	if isNilSpec(spec) {
		return SubmittedQuery{}, errNilSpec
	}
	if err := spec.Validate(a.world); err != nil {
		return SubmittedQuery{}, err
	}
	return spec.materialize(a)
}

var errNilSpec = errors.New("ps: nil query spec")

// isNilSpec catches both an untyped nil and a typed-nil pointer spec
// ((*PointSpec)(nil) satisfies Spec but would panic on method dispatch).
func isNilSpec(spec Spec) bool {
	if spec == nil {
		return true
	}
	v := reflect.ValueOf(spec)
	return v.Kind() == reflect.Pointer && v.IsNil()
}

// Sentinel validation errors. Every Spec.Validate failure wraps exactly
// one of these, so callers can branch with errors.Is instead of matching
// message text; the wrapping message still names the kind, the query ID
// and the offending value.
var (
	// ErrEmptyQueryID rejects a spec without an issuer-chosen ID.
	ErrEmptyQueryID = errors.New("empty query ID")
	// ErrNegativeBudget rejects a negative budget (or budget_per_slot).
	ErrNegativeBudget = errors.New("negative budget")
	// ErrBadDuration rejects a continuous spec whose window is shorter
	// than one slot or longer than MaxDuration.
	ErrBadDuration = fmt.Errorf("duration must be 1 to %d slots", MaxDuration)
	// ErrBadTrajectory rejects a trajectory with fewer than two waypoints.
	ErrBadTrajectory = errors.New("trajectory needs at least 2 waypoints")
	// ErrNegativeRedundancy rejects a multipoint spec with k < 0.
	ErrNegativeRedundancy = errors.New("negative redundancy k")
	// ErrNegativeSamples rejects a locmon spec with a negative sample
	// count.
	ErrNegativeSamples = errors.New("negative sample count")
	// ErrNoGPModel rejects region monitoring on a world without a learned
	// GP phenomenon model.
	ErrNoGPModel = errors.New("no GP phenomenon model")
)

// validateCommon checks the fields every spec shares. field names the
// spec's budget field in errors ("budget", or "budget_per_slot" for the
// event kinds), matching the wire envelope so HTTP rejections point at
// the field the client actually sent.
func validateCommon(kind QueryKind, id string, budget float64, field string) error {
	if id == "" {
		return fmt.Errorf("ps: %s spec: %w", kind, ErrEmptyQueryID)
	}
	if budget < 0 {
		return fmt.Errorf("ps: %s spec %q: %w: %s = %v", kind, id, ErrNegativeBudget, field, budget)
	}
	return nil
}

// MaxDuration is the longest window, in slots, a continuous spec may
// ask for. A location-monitoring query builds the whole history of its
// window when it is submitted, on the engine's loop, one time/value pair
// per slot from slot 0 to its end; an unbounded duration is an unbounded
// allocation there (math.MaxInt does not fit a slice at all). 1<<16
// slots keeps that history near 1 MiB and is still 45 days of one-minute
// slots, far past the paper's windows of tens of slots.
const MaxDuration = 1 << 16

// validateDuration checks a continuous kind's window length.
func validateDuration(kind QueryKind, id string, duration int) error {
	if duration < 1 || duration > MaxDuration {
		return fmt.Errorf("ps: %s spec %q: duration %d: %w", kind, id, duration, ErrBadDuration)
	}
	return nil
}

// PointSpec describes a single-sensor point query (Eq. 3): the value of
// the phenomenon at Loc, for at most Budget.
type PointSpec struct {
	ID     string
	Loc    Point
	Budget float64
}

// QueryID implements Spec.
func (s PointSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s PointSpec) Kind() QueryKind { return KindPoint }

// Validate implements Spec.
func (s PointSpec) Validate(*World) error {
	return validateCommon(KindPoint, s.ID, s.Budget, "budget")
}

func (s PointSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	q := query.NewPoint(s.ID, s.Loc, s.Budget, a.world.DMax)
	a.points = append(a.points, q)
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	sq.query = q
	return sq, nil
}

func (s PointSpec) slots() int { return 1 }

// MultiPointSpec describes a multiple-sensor point query asking for K
// redundant readings at Loc. K < 1 is treated as 1.
type MultiPointSpec struct {
	ID     string
	Loc    Point
	Budget float64
	K      int
}

// QueryID implements Spec.
func (s MultiPointSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s MultiPointSpec) Kind() QueryKind { return KindMultiPoint }

// Validate implements Spec.
func (s MultiPointSpec) Validate(*World) error {
	if err := validateCommon(KindMultiPoint, s.ID, s.Budget, "budget"); err != nil {
		return err
	}
	if s.K < 0 {
		return fmt.Errorf("ps: multipoint spec %q: %w = %d", s.ID, ErrNegativeRedundancy, s.K)
	}
	return nil
}

func (s MultiPointSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	q := query.NewMultiPoint(s.ID, s.Loc, s.Budget, a.world.DMax, s.K)
	a.extra = append(a.extra, q)
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	sq.query = q
	return sq, nil
}

func (s MultiPointSpec) slots() int { return 1 }

// AggregateSpec describes a spatial aggregate query over Region (Eq. 5);
// the sensing range defaults to the world's dmax.
type AggregateSpec struct {
	ID     string
	Region Rect
	Budget float64
}

// QueryID implements Spec.
func (s AggregateSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s AggregateSpec) Kind() QueryKind { return KindAggregate }

// Validate implements Spec.
func (s AggregateSpec) Validate(*World) error {
	return validateCommon(KindAggregate, s.ID, s.Budget, "budget")
}

func (s AggregateSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	q := query.NewAggregate(s.ID, s.Region, s.Budget, a.world.DMax, a.world.Grid)
	a.aggs = append(a.aggs, q)
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	sq.query = q
	return sq, nil
}

func (s AggregateSpec) slots() int { return 1 }

// TrajectorySpec describes an aggregate query along Path (§2.2.3).
type TrajectorySpec struct {
	ID     string
	Path   Trajectory
	Budget float64
}

// QueryID implements Spec.
func (s TrajectorySpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s TrajectorySpec) Kind() QueryKind { return KindTrajectory }

// Validate implements Spec.
func (s TrajectorySpec) Validate(*World) error {
	if err := validateCommon(KindTrajectory, s.ID, s.Budget, "budget"); err != nil {
		return err
	}
	if len(s.Path.Waypoints) < 2 {
		return fmt.Errorf("ps: trajectory spec %q: %d waypoints: %w", s.ID, len(s.Path.Waypoints), ErrBadTrajectory)
	}
	return nil
}

func (s TrajectorySpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	q := query.NewTrajectory(s.ID, s.Path, s.Budget, a.world.DMax)
	a.extra = append(a.extra, q)
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	sq.query = q
	return sq, nil
}

func (s TrajectorySpec) slots() int { return 1 }

// LocationMonitoringSpec describes continuous monitoring of Loc for
// Duration slots starting at the next slot after materialization; Samples
// desired sampling times are chosen from the location's history and the
// Budget should scale with the duration.
type LocationMonitoringSpec struct {
	ID       string
	Loc      Point
	Duration int
	Budget   float64
	Samples  int
}

// QueryID implements Spec.
func (s LocationMonitoringSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s LocationMonitoringSpec) Kind() QueryKind { return KindLocationMonitoring }

// Validate implements Spec.
func (s LocationMonitoringSpec) Validate(*World) error {
	if err := validateCommon(KindLocationMonitoring, s.ID, s.Budget, "budget"); err != nil {
		return err
	}
	if err := validateDuration(KindLocationMonitoring, s.ID, s.Duration); err != nil {
		return err
	}
	if s.Samples < 0 {
		return fmt.Errorf("ps: locmon spec %q: %w: %d", s.ID, ErrNegativeSamples, s.Samples)
	}
	return nil
}

func (s LocationMonitoringSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	hist := a.world.History(s.Loc, sq.Start+s.Duration+1)
	q := query.NewLocationMonitoring(s.ID, s.Loc, sq.Start, sq.End, s.Budget, a.world.DMax, hist, s.Samples)
	a.locMon = append(a.locMon, q)
	sq.query = q
	return sq, nil
}

func (s LocationMonitoringSpec) slots() int { return s.Duration }

// RegionMonitoringSpec describes continuous monitoring of Region for
// Duration slots; it requires a world with a learned GP phenomenon model
// (NewIntelLabWorld provides one).
type RegionMonitoringSpec struct {
	ID       string
	Region   Rect
	Duration int
	Budget   float64
}

// QueryID implements Spec.
func (s RegionMonitoringSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s RegionMonitoringSpec) Kind() QueryKind { return KindRegionMonitoring }

// Validate implements Spec. The GP-model precondition lives here: every
// transport (Engine, psserve, psclient) shares one check instead of
// re-implementing it per handler.
func (s RegionMonitoringSpec) Validate(w *World) error {
	if err := validateCommon(KindRegionMonitoring, s.ID, s.Budget, "budget"); err != nil {
		return err
	}
	if err := validateDuration(KindRegionMonitoring, s.ID, s.Duration); err != nil {
		return err
	}
	if w == nil || w.GPModel == nil {
		return errNoGPModel(w)
	}
	return nil
}

// errNoGPModel is the shared region-monitoring precondition failure.
func errNoGPModel(w *World) error {
	name := "(nil)"
	if w != nil {
		name = w.Name
	}
	return fmt.Errorf("ps: world %q has %w; region monitoring needs one", name, ErrNoGPModel)
}

func (s RegionMonitoringSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	if a.world.GPModel == nil {
		return SubmittedQuery{}, errNoGPModel(a.world)
	}
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	q := query.NewRegionMonitoring(s.ID, s.Region, sq.Start, sq.End, s.Budget, a.world.GPModel, a.world.Grid)
	a.regMon = append(a.regMon, q)
	sq.query = q
	return sq, nil
}

func (s RegionMonitoringSpec) slots() int { return s.Duration }

// EventDetectionSpec describes a continuous event-detection query (§2.3
// extension) at Loc: redundant sampling every slot for Duration slots,
// notification when the phenomenon exceeds Threshold with the requested
// Confidence. Confidence outside (0,1) is clamped to the evaluation
// defaults.
type EventDetectionSpec struct {
	ID            string
	Loc           Point
	Duration      int
	Threshold     float64
	Confidence    float64
	BudgetPerSlot float64
}

// QueryID implements Spec.
func (s EventDetectionSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s EventDetectionSpec) Kind() QueryKind { return KindEventDetection }

// Validate implements Spec.
func (s EventDetectionSpec) Validate(*World) error {
	if err := validateCommon(KindEventDetection, s.ID, s.BudgetPerSlot, "budget_per_slot"); err != nil {
		return err
	}
	return validateDuration(KindEventDetection, s.ID, s.Duration)
}

func (s EventDetectionSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	q := query.NewEventDetection(s.ID, s.Loc, sq.Start, sq.End, s.Threshold, s.Confidence, s.BudgetPerSlot, a.world.DMax)
	a.events = append(a.events, q)
	sq.query = q
	return sq, nil
}

func (s EventDetectionSpec) slots() int { return s.Duration }

// RegionEventSpec describes a continuous region event-detection query
// (§2.3's Q4 as an extension): every slot a spatial-aggregate probe is
// scheduled over Region and the quality-weighted regional average is
// tested against Threshold, with confidence scaled by achieved coverage.
type RegionEventSpec struct {
	ID            string
	Region        Rect
	Duration      int
	Threshold     float64
	Confidence    float64
	BudgetPerSlot float64
}

// QueryID implements Spec.
func (s RegionEventSpec) QueryID() string { return s.ID }

// Kind implements Spec.
func (s RegionEventSpec) Kind() QueryKind { return KindRegionEvent }

// Validate implements Spec.
func (s RegionEventSpec) Validate(*World) error {
	if err := validateCommon(KindRegionEvent, s.ID, s.BudgetPerSlot, "budget_per_slot"); err != nil {
		return err
	}
	return validateDuration(KindRegionEvent, s.ID, s.Duration)
}

func (s RegionEventSpec) materialize(a *Aggregator) (SubmittedQuery, error) {
	sq := describeSubmission(s.ID, s.Kind(), a.NextSlot(), s.slots())
	q := query.NewRegionEvent(s.ID, s.Region, sq.Start, sq.End, s.Threshold, s.Confidence, s.BudgetPerSlot, a.world.DMax, a.world.Grid)
	a.regEvents = append(a.regEvents, q)
	sq.query = q
	return sq, nil
}

func (s RegionEventSpec) slots() int { return s.Duration }
