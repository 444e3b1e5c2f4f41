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

// SelectionStats counts valuation calls, lazy-heap re-evaluations and
// non-submodular fallbacks of one or many greedy selection runs.
type SelectionStats = core.SelectionStats

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

// Scheduling selects nothing: every slot runs Algorithm 5's greedy
// selection. The type, SchedulingGreedy and the no-op WithScheduling
// remain only for the benchmark program's two call sites, and all three
// go once those drop the option.
type Scheduling int

// SchedulingGreedy names the one selection path every slot takes.
const SchedulingGreedy Scheduling = 0
