// Package wire defines the versioned JSON wire format shared by the
// psserve HTTP daemon (package serve) and the psclient Go SDK: the query
// submission envelope, and the marshaled forms of per-slot results, query
// status, query listings, engine metrics and errors.
//
// # The v1 submission envelope
//
// A submission is one flat JSON object selected by "type" and versioned
// by "v":
//
//	{"v":1,"type":"point","id":"q1","loc":{"x":30,"y":30},"budget":15}
//
// "v" is the envelope version. Version 1 is the current format; a missing
// or zero "v" means the legacy (pre-envelope) psserve body, which v1
// deliberately supersets — every legacy body decodes exactly as its v1
// counterpart. Versions above 1 are rejected. Note that the server now
// runs Spec.Validate on every submission regardless of envelope version,
// so degenerate legacy bodies the pre-envelope daemon accepted leniently
// (zero-duration windows, negative budgets) are rejected with a 400
// instead of producing a query that can never answer.
//
// "type" names the query kind; the remaining fields are read as that kind
// requires:
//
//	point        loc, budget
//	multipoint   loc, budget, k
//	aggregate    region, budget
//	trajectory   path (>= 2 waypoints), budget
//	locmon       loc, duration, budget, samples
//	regmon       region, duration, budget
//	event        loc, duration, threshold, confidence, budget_per_slot
//	regionevent  region, duration, threshold, confidence, budget_per_slot
//
// "id" is optional on submission; the server assigns one when absent.
// Locations are {"x":..,"y":..} objects, regions are
// {"x0":..,"y0":..,"x1":..,"y1":..} boxes, paths are arrays of locations.
// Durations are slot counts; continuous windows start at the slot after
// the server materializes the spec.
//
// Errors are returned as {"error":"..."} bodies (ErrorBody) with a
// non-2xx status code.
package wire

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"time"

	ps "repro"
)

// Version is the current envelope version.
const Version = 1

// XY is a planar location.
type XY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Box is an axis-aligned rectangle given by two opposite corners.
type Box struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
}

// Envelope is the flat submission envelope. V selects the format version
// (0 = legacy body, 1 = current); Type selects the query kind; the other
// fields are read as the kind requires (see the package comment).
type Envelope struct {
	V    int    `json:"v,omitempty"`
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`

	Loc    *XY  `json:"loc,omitempty"`
	Region *Box `json:"region,omitempty"`
	Path   []XY `json:"path,omitempty"`

	Budget        float64 `json:"budget,omitempty"`
	BudgetPerSlot float64 `json:"budget_per_slot,omitempty"`
	K             int     `json:"k,omitempty"`
	Duration      int     `json:"duration,omitempty"`
	Samples       int     `json:"samples,omitempty"`
	Threshold     float64 `json:"threshold,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
}

// FromSpec encodes a query spec as a v1 envelope.
func FromSpec(spec ps.Spec) (Envelope, error) {
	if spec == nil {
		return Envelope{}, fmt.Errorf("wire: nil spec")
	}
	// Pointer specs satisfy ps.Spec too (value-receiver methods promote);
	// dereference so the kind switch below only needs the value forms and
	// a new kind stays a single case here. A typed-nil pointer would
	// panic on method dispatch, so it is an error like untyped nil.
	if v := reflect.ValueOf(spec); v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return Envelope{}, fmt.Errorf("wire: nil spec")
		}
		if deref, ok := v.Elem().Interface().(ps.Spec); ok {
			spec = deref
		}
	}
	env := Envelope{V: Version, Type: spec.Kind().String(), ID: spec.QueryID()}
	switch s := spec.(type) {
	case ps.PointSpec:
		env.Loc = &XY{s.Loc.X, s.Loc.Y}
		env.Budget = s.Budget
	case ps.MultiPointSpec:
		env.Loc = &XY{s.Loc.X, s.Loc.Y}
		env.Budget = s.Budget
		env.K = s.K
	case ps.AggregateSpec:
		env.Region = boxFromRect(s.Region)
		env.Budget = s.Budget
	case ps.TrajectorySpec:
		for _, p := range s.Path.Waypoints {
			env.Path = append(env.Path, XY{p.X, p.Y})
		}
		env.Budget = s.Budget
	case ps.LocationMonitoringSpec:
		env.Loc = &XY{s.Loc.X, s.Loc.Y}
		env.Duration = s.Duration
		env.Budget = s.Budget
		env.Samples = s.Samples
	case ps.RegionMonitoringSpec:
		env.Region = boxFromRect(s.Region)
		env.Duration = s.Duration
		env.Budget = s.Budget
	case ps.EventDetectionSpec:
		env.Loc = &XY{s.Loc.X, s.Loc.Y}
		env.Duration = s.Duration
		env.Threshold = s.Threshold
		env.Confidence = s.Confidence
		env.BudgetPerSlot = s.BudgetPerSlot
	case ps.RegionEventSpec:
		env.Region = boxFromRect(s.Region)
		env.Duration = s.Duration
		env.Threshold = s.Threshold
		env.Confidence = s.Confidence
		env.BudgetPerSlot = s.BudgetPerSlot
	default:
		return Envelope{}, fmt.Errorf("wire: unsupported spec type %T", spec)
	}
	return env, nil
}

func boxFromRect(r ps.Rect) *Box {
	return &Box{X0: r.MinX, Y0: r.MinY, X1: r.MaxX, Y1: r.MaxY}
}

// Spec decodes the envelope into the query spec it describes. It checks
// only the envelope's shape (version, known type, fields present for the
// kind); semantic validation is Spec.Validate's job.
func (e Envelope) Spec() (ps.Spec, error) {
	if e.V != 0 && e.V != Version {
		return nil, fmt.Errorf("wire: unsupported envelope version %d (this build speaks v%d)", e.V, Version)
	}
	kind, err := ps.ParseQueryKind(strings.ToLower(e.Type))
	if err != nil {
		return nil, fmt.Errorf("wire: unknown query type %q", e.Type)
	}
	needLoc := func() (ps.Point, error) {
		if e.Loc == nil {
			return ps.Point{}, fmt.Errorf("wire: query type %q needs \"loc\"", e.Type)
		}
		return ps.Pt(e.Loc.X, e.Loc.Y), nil
	}
	needRegion := func() (ps.Rect, error) {
		if e.Region == nil {
			return ps.Rect{}, fmt.Errorf("wire: query type %q needs \"region\"", e.Type)
		}
		return ps.NewRect(e.Region.X0, e.Region.Y0, e.Region.X1, e.Region.Y1), nil
	}

	switch kind {
	case ps.KindPoint:
		loc, err := needLoc()
		if err != nil {
			return nil, err
		}
		return ps.PointSpec{ID: e.ID, Loc: loc, Budget: e.Budget}, nil
	case ps.KindMultiPoint:
		loc, err := needLoc()
		if err != nil {
			return nil, err
		}
		return ps.MultiPointSpec{ID: e.ID, Loc: loc, Budget: e.Budget, K: e.K}, nil
	case ps.KindAggregate:
		region, err := needRegion()
		if err != nil {
			return nil, err
		}
		return ps.AggregateSpec{ID: e.ID, Region: region, Budget: e.Budget}, nil
	case ps.KindTrajectory:
		if len(e.Path) < 2 {
			// Wraps the validation sentinel so the rejection carries the
			// same stable code whether it is caught here or by Validate.
			return nil, fmt.Errorf("wire: %w (\"path\" needs >= 2 waypoints)", ps.ErrBadTrajectory)
		}
		var tr ps.Trajectory
		for _, p := range e.Path {
			tr.Waypoints = append(tr.Waypoints, ps.Pt(p.X, p.Y))
		}
		return ps.TrajectorySpec{ID: e.ID, Path: tr, Budget: e.Budget}, nil
	case ps.KindLocationMonitoring:
		loc, err := needLoc()
		if err != nil {
			return nil, err
		}
		return ps.LocationMonitoringSpec{
			ID: e.ID, Loc: loc, Duration: e.Duration, Budget: e.Budget, Samples: e.Samples,
		}, nil
	case ps.KindRegionMonitoring:
		region, err := needRegion()
		if err != nil {
			return nil, err
		}
		return ps.RegionMonitoringSpec{ID: e.ID, Region: region, Duration: e.Duration, Budget: e.Budget}, nil
	case ps.KindEventDetection:
		loc, err := needLoc()
		if err != nil {
			return nil, err
		}
		return ps.EventDetectionSpec{
			ID: e.ID, Loc: loc, Duration: e.Duration,
			Threshold: e.Threshold, Confidence: e.Confidence, BudgetPerSlot: e.BudgetPerSlot,
		}, nil
	case ps.KindRegionEvent:
		region, err := needRegion()
		if err != nil {
			return nil, err
		}
		return ps.RegionEventSpec{
			ID: e.ID, Region: region, Duration: e.Duration,
			Threshold: e.Threshold, Confidence: e.Confidence, BudgetPerSlot: e.BudgetPerSlot,
		}, nil
	default:
		// Unreachable while ParseQueryKind and this switch cover the same
		// kinds; a new kind missing its case lands here.
		return nil, fmt.Errorf("wire: query kind %v has no envelope mapping", kind)
	}
}

// MarshalSpec encodes a spec as v1-envelope JSON.
func MarshalSpec(spec ps.Spec) ([]byte, error) {
	env, err := FromSpec(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(env)
}

// UnmarshalSpec decodes v1-envelope (or legacy) JSON into a spec.
func UnmarshalSpec(data []byte) (ps.Spec, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("wire: bad JSON: %v", err)
	}
	return env.Spec()
}

// Event is one event-detection evaluation inside a Result.
type Event struct {
	Slot       int     `json:"slot"`
	Detected   bool    `json:"detected"`
	Confidence float64 `json:"confidence"`
	Reading    float64 `json:"reading"`
}

// Result is one per-slot query result.
type Result struct {
	Slot     int     `json:"slot"`
	Answered bool    `json:"answered"`
	Value    float64 `json:"value"`
	Payment  float64 `json:"payment"`
	Final    bool    `json:"final"`
	Events   []Event `json:"events,omitempty"`
}

// ResultFromSlot converts an engine subscription result to its wire form.
func ResultFromSlot(r ps.SlotResult) Result {
	out := Result{
		Slot:     r.Slot,
		Answered: r.Answered,
		Value:    r.Value,
		Payment:  r.Payment,
		Final:    r.Final,
	}
	for _, ev := range r.Events {
		out.Events = append(out.Events, Event{
			Slot: ev.Slot, Detected: ev.Detected, Confidence: ev.Confidence, Reading: ev.Reading,
		})
	}
	return out
}

// SubmitAck is the body of a successful POST /query.
type SubmitAck struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// QueryStatus is the body of GET /query/{id}.
type QueryStatus struct {
	ID      string   `json:"id"`
	Type    string   `json:"type"`
	Done    bool     `json:"done"`
	Results []Result `json:"results"`
	// ResultsTruncated counts older results discarded beyond the server's
	// per-query history cap.
	ResultsTruncated int `json:"results_truncated,omitempty"`
	// Error explains why the query ended early (canceled, rejected,
	// engine stopped); empty after a normal expiry.
	Error string `json:"error,omitempty"`
}

// QuerySummary is one row of GET /queries.
type QuerySummary struct {
	ID      string `json:"id"`
	Type    string `json:"type"`
	Done    bool   `json:"done"`
	Results int    `json:"results"`
}

// QueryList is the body of GET /queries: one page of the server's query
// registry, ordered by ID.
type QueryList struct {
	// Total is the registry size before pagination.
	Total   int            `json:"total"`
	Offset  int            `json:"offset"`
	Count   int            `json:"count"`
	Queries []QuerySummary `json:"queries"`
}

// Metrics is the body of GET /metrics.
type Metrics struct {
	Slots            int     `json:"slots"`
	LastSlot         int     `json:"last_slot"`
	TotalWelfare     float64 `json:"total_welfare"`
	LastWelfare      float64 `json:"last_welfare"`
	TotalPayments    float64 `json:"total_payments"`
	TotalCost        float64 `json:"total_cost"`
	SensorsUsed      int64   `json:"sensors_used"`
	QueriesSubmitted int64   `json:"queries_submitted"`
	QueriesRejected  int64   `json:"queries_rejected"`
	QueriesShed      int64   `json:"queries_shed"`
	QueriesCanceled  int64   `json:"queries_canceled"`
	ActiveQueries    int     `json:"active_queries"`
	Answered         int64   `json:"answered"`
	Starved          int64   `json:"starved"`
	EventsDelivered  int64   `json:"events_delivered"`
	EventsDropped    int64   `json:"events_dropped"`
	GapEvents        int64   `json:"gap_events"`
	QueueDepth       int     `json:"queue_depth"`
	QueueCap         int     `json:"queue_cap"`
	SlotLatencyLast  string  `json:"slot_latency_last"`
	SlotLatencyAvg   string  `json:"slot_latency_avg"`
	SlotLatencyMax   string  `json:"slot_latency_max"`
	// Greedy selection core instrumentation (see ps.SelectionStats).
	Strategy                string `json:"strategy"`
	StrategyLastSlot        string `json:"strategy_last_slot"`
	ValuationCalls          int64  `json:"valuation_calls"`
	ValuationCallsSaved     int64  `json:"valuation_calls_saved"`
	LazyReevaluations       int64  `json:"lazy_reevaluations"`
	SubmodularityViolations int64  `json:"submodularity_violations"`
	FallbackRescans         int64  `json:"fallback_rescans"`
	// Valuation-cache instrumentation: footprint-geometry cache probes
	// and GP base-posterior observation accounting (rank-1 appends vs
	// exact from-scratch rebuilds).
	GeomCacheHits     int64 `json:"geom_cache_hits"`
	GeomCacheLookups  int64 `json:"geom_cache_lookups"`
	PosteriorAppends  int64 `json:"posterior_appends"`
	PosteriorRebuilds int64 `json:"posterior_rebuilds"`
	// Shards is the cumulative per-shard breakdown of a geo-sharded
	// engine (the entry with "spanning":true is the cross-shard pass);
	// absent on an unsharded engine.
	Shards []ShardMetrics `json:"shards,omitempty"`
	// SlotStages is the cumulative per-stage slot latency breakdown in
	// pipeline order; absent before the first executed slot.
	SlotStages []StageMetrics `json:"slot_stages,omitempty"`
}

// StageMetrics is one pipeline stage's cumulative latency inside
// Metrics (see ps.StageStats).
type StageMetrics struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	LastMs  float64 `json:"last_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// ShardMetrics is one geographic shard's cumulative contribution inside
// Metrics.
type ShardMetrics struct {
	Shard                   int     `json:"shard"`
	Spanning                bool    `json:"spanning,omitempty"`
	Offers                  int     `json:"offers"`
	Queries                 int     `json:"queries"`
	SensorsUsed             int     `json:"sensors_used"`
	Welfare                 float64 `json:"welfare"`
	SelectMs                float64 `json:"select_ms"`
	StepMs                  float64 `json:"step_ms,omitempty"`
	ValuationCalls          int64   `json:"valuation_calls"`
	ValuationCallsSaved     int64   `json:"valuation_calls_saved"`
	LazyReevaluations       int64   `json:"lazy_reevaluations"`
	SubmodularityViolations int64   `json:"submodularity_violations"`
	ConservationViolations  int64   `json:"conservation_violations"`
	FallbackRescans         int64   `json:"fallback_rescans"`
	GeomCacheHits           int64   `json:"geom_cache_hits"`
	GeomCacheLookups        int64   `json:"geom_cache_lookups"`
	PosteriorAppends        int64   `json:"posterior_appends"`
	PosteriorRebuilds       int64   `json:"posterior_rebuilds"`
}

// MetricsFrom converts an engine metrics snapshot to its wire form.
// configured is the server's configured selection strategy (the engine
// snapshot only knows the last executed slot's).
func MetricsFrom(m ps.EngineMetrics, configured string) Metrics {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var stages []StageMetrics
	for _, s := range m.SlotStages {
		stages = append(stages, StageMetrics{
			Stage:   s.Stage,
			Count:   s.Count,
			TotalMs: ms(s.Total),
			LastMs:  ms(s.Last),
			MaxMs:   ms(s.Max),
		})
	}
	var shards []ShardMetrics
	for _, s := range m.Shards {
		shards = append(shards, ShardMetrics{
			Shard:                   s.Shard,
			Spanning:                s.Spanning,
			Offers:                  s.Offers,
			Queries:                 s.Queries,
			SensorsUsed:             s.SensorsUsed,
			Welfare:                 s.Welfare,
			SelectMs:                s.SelectMs,
			StepMs:                  s.StepMs,
			ValuationCalls:          s.Selection.ValuationCalls,
			ValuationCallsSaved:     s.Selection.SavedCalls(),
			LazyReevaluations:       s.Selection.LazyReevaluations,
			SubmodularityViolations: s.Selection.SubmodularityViolations,
			ConservationViolations:  s.Selection.ConservationViolations,
			FallbackRescans:         s.Selection.FallbackRescans,
			GeomCacheHits:           s.Selection.GeomCacheHits,
			GeomCacheLookups:        s.Selection.GeomCacheLookups,
			PosteriorAppends:        s.Selection.PosteriorAppends,
			PosteriorRebuilds:       s.Selection.PosteriorRebuilds,
		})
	}
	return Metrics{
		Shards:                  shards,
		SlotStages:              stages,
		Slots:                   m.Slots,
		LastSlot:                m.LastSlot,
		TotalWelfare:            m.TotalWelfare,
		LastWelfare:             m.LastWelfare,
		TotalPayments:           m.TotalPayments,
		TotalCost:               m.TotalCost,
		SensorsUsed:             m.SensorsUsed,
		QueriesSubmitted:        m.QueriesSubmitted,
		QueriesRejected:         m.QueriesRejected,
		QueriesShed:             m.QueriesShed,
		QueriesCanceled:         m.QueriesCanceled,
		ActiveQueries:           m.ActiveQueries,
		Answered:                m.Answered,
		Starved:                 m.Starved,
		EventsDelivered:         m.EventsDelivered,
		EventsDropped:           m.EventsDropped,
		GapEvents:               m.GapEvents,
		QueueDepth:              m.QueueDepth,
		QueueCap:                m.QueueCap,
		SlotLatencyLast:         m.SlotLatencyLast.String(),
		SlotLatencyAvg:          m.SlotLatencyAvg.String(),
		SlotLatencyMax:          m.SlotLatencyMax.String(),
		Strategy:                configured,
		StrategyLastSlot:        m.Strategy,
		ValuationCalls:          m.ValuationCalls,
		ValuationCallsSaved:     m.ValuationCallsSaved,
		LazyReevaluations:       m.LazyReevaluations,
		SubmodularityViolations: m.SubmodularityViolations,
		FallbackRescans:         m.FallbackRescans,
		GeomCacheHits:           m.GeomCacheHits,
		GeomCacheLookups:        m.GeomCacheLookups,
		PosteriorAppends:        m.PosteriorAppends,
		PosteriorRebuilds:       m.PosteriorRebuilds,
	}
}

// Healthz is the body of GET /healthz: liveness plus the serving
// build's identity and uptime, so operators can tell at a glance what
// is running and for how long.
type Healthz struct {
	OK         bool `json:"ok"`
	Slots      int  `json:"slots"`
	QueueDepth int  `json:"queue_depth"`
	// Version is the main module's version (often "(devel)" for local
	// builds); Revision the VCS revision baked in by the Go toolchain.
	// Both are empty when build info is unavailable.
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// UptimeSeconds is how long this server process has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Cluster lists shard-node membership when the engine runs on a
	// cluster coordinator; nil for single-process deployments.
	Cluster []ClusterMember `json:"cluster,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response. Code, when
// present, is the stable machine-readable error code (see ErrorCode);
// SDKs reconstruct the matching sentinel from it so errors.Is works
// across the network.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
