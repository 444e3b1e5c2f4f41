package ps

import (
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/geo"
	"repro/internal/query"
	"repro/internal/sensornet"
)

// Re-exported building blocks. The concrete behaviour lives in the
// internal packages; these aliases are the supported public surface.
type (
	// Point is a planar location.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Trajectory is a polyline of waypoints.
	Trajectory = geo.Trajectory
	// World is a ready-to-simulate participatory-sensing environment.
	World = datasets.World
	// SensorConfig controls per-sensor parameters (lifetime, privacy
	// sensitivity, energy cost model, trust distribution).
	SensorConfig = datasets.SensorConfig
	// Sensor is a participant's sensing device.
	Sensor = sensornet.Sensor
	// PrivacyLevel is a privacy sensitivity level (PSL).
	PrivacyLevel = sensornet.PrivacyLevel

	// PointQuery asks for the value of a phenomenon at one location (Eq. 3).
	PointQuery = query.Point
	// MultiPointQuery asks for several redundant readings at one location.
	MultiPointQuery = query.MultiPoint
	// AggregateQuery asks for an aggregate over a region (Eq. 5).
	AggregateQuery = query.Aggregate
	// TrajectoryQuery asks for an aggregate along a trajectory (§2.2.3).
	TrajectoryQuery = query.Trajectory
	// LocationMonitoringQuery continuously monitors one location (Eqs. 16-17).
	LocationMonitoringQuery = query.LocationMonitoring
	// RegionMonitoringQuery continuously monitors a region (Eq. 7).
	RegionMonitoringQuery = query.RegionMonitoring
	// EventDetectionQuery watches for threshold crossings with a
	// confidence requirement (§2.3 extension).
	EventDetectionQuery = query.EventDetection
	// RegionEventQuery watches a region for its average crossing a
	// threshold with a confidence requirement (§2.3's Q4, extension).
	RegionEventQuery = query.RegionEvent
)

// Selection-strategy surface of the greedy core (Algorithm 1). Both
// strategies return bit-identical selections, payments and welfare; they
// differ only in how much work they do per slot.
type (
	// Strategy selects the candidate-evaluation algorithm of the greedy
	// selection core.
	Strategy = core.Strategy
	// SelectionStats counts valuation calls, lazy-heap re-evaluations
	// and non-submodular fallbacks of one or many selection runs.
	SelectionStats = core.SelectionStats
)

// The candidate-evaluation strategies.
const (
	// StrategyAuto is the default: serial below 256 offers, lazy-greedy
	// from there upwards, resolved per selection run.
	StrategyAuto = core.StrategyAuto
	// StrategySerial scans every remaining sensor each round — the
	// reference every other evaluation is compared against.
	StrategySerial = core.StrategySerial
	// StrategyLazy is the CELF-style lazy-greedy fast path.
	StrategyLazy = core.StrategyLazy
)

// ParseStrategy parses a strategy name ("auto", "serial", "lazy") as
// accepted by the CLIs and the cluster node config.
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// Pt is shorthand for a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewGridPartition builds a K-shard geographic partition of a rectangle —
// the routing structure of the sharded execution layer (see
// ShardedAggregator in shard.go). NewShardedAggregator builds one over
// the world's working region automatically; this constructor is for
// callers that want to inspect routing (GridPartition.ShardOf/ShardsOf)
// up front.
func NewGridPartition(bounds Rect, shards int) GridPartition {
	return geo.NewGridPartition(bounds, shards)
}

// NewRect builds a rectangle from two opposite corners in any order.
func NewRect(x0, y0, x1, y1 float64) Rect { return geo.NewRect(x0, y0, x1, y1) }

// NewRWMWorld builds the paper's random-waypoint world (§4.2): n sensors
// (200 in the evaluation) on an 80x80 region with a 50x50 working
// subregion and dmax = 5.
func NewRWMWorld(seed int64, n int, cfg SensorConfig) *World {
	return datasets.NewRWM(seed, n, cfg)
}

// NewRNCWorld builds the RNC-like world (§4.2): 635 sensors on a 237x300
// region with a 100x100 working subregion averaging ≈120 sensors per slot
// and dmax = 10.
func NewRNCWorld(seed int64, cfg SensorConfig) *World {
	return datasets.NewRNC(seed, cfg)
}

// NewIntelLabWorld builds the Intel-lab-like world (§4.6): a 20x15 grid
// with a correlated phenomenon, a learned GP model and 30 mobile sensors.
func NewIntelLabWorld(seed int64, cfg SensorConfig) *World {
	return datasets.NewIntelLab(seed, cfg)
}

// Scheduling selects the single-sensor point scheduling policy.
type Scheduling int

// The scheduling policies of §3.1.
const (
	// SchedulingOptimal solves the BILP of problem (9) exactly (warm
	// started by local search).
	SchedulingOptimal Scheduling = iota
	// SchedulingLocalSearch is the 1/3-approximate local search.
	SchedulingLocalSearch
	// SchedulingBaseline is the evaluation's sequential baseline.
	SchedulingBaseline
	// SchedulingEgalitarian maximizes the number of users with positive
	// utility (§2's alternative objective).
	SchedulingEgalitarian
	// SchedulingGreedy schedules point-only slots through Algorithm 1's
	// greedy pass, honoring the aggregator's selection strategy
	// (WithGreedyStrategy) — the only policy whose point-only slots
	// benefit from the lazy fast path and report selection stats.
	SchedulingGreedy
)

func (s Scheduling) solver(cfg core.GreedyConfig) core.PointSolver {
	switch s {
	case SchedulingLocalSearch:
		return core.LocalSearchPoint(core.DefaultLocalSearchEpsilon)
	case SchedulingBaseline:
		return core.BaselinePoint()
	case SchedulingEgalitarian:
		return core.EgalitarianPoint()
	case SchedulingGreedy:
		return core.GreedyPointWith(cfg)
	default:
		return core.OptimalPoint(core.OptimalOptions{
			WarmStartWithLocalSearch: true,
			MaxNodesPerComponent:     200_000,
		})
	}
}

// String implements fmt.Stringer.
func (s Scheduling) String() string {
	switch s {
	case SchedulingOptimal:
		return "Optimal"
	case SchedulingLocalSearch:
		return "LocalSearch"
	case SchedulingBaseline:
		return "Baseline"
	case SchedulingEgalitarian:
		return "Egalitarian"
	case SchedulingGreedy:
		return "Greedy"
	default:
		return "Unknown"
	}
}
