package ps

import (
	"fmt"
	"reflect"
)

// The binary form of a Spec, in lanecodec.go's conventions (zig-zag varint
// ints, float64 as its 64 bits, length-prefixed strings, slices as
// length + 1 with 0 for nil): a layout byte, the kind as one byte, the
// query ID, then the kind's own fields in declaration order. A point is
// its X and Y, a rectangle its MinX, MinY, MaxX, MaxY. A spec batch is
// specs back to back with nothing between or around them, so a batch
// grows by appending and equal specs are equal bytes. It is what a cluster
// coordinator posts to a shard node and keeps in the lane's oplog.
const specFormat = 1

// specMinBytes is the smallest encoded spec: layout, kind, an empty ID
// and a point spec's three floats.
const specMinBytes = 3 + 3*8

// AppendSpecBinary appends spec's binary form to b and returns the
// extended slice; on error b comes back unchanged. A pointer spec encodes
// as the value it points to.
func AppendSpecBinary(b []byte, spec Spec) ([]byte, error) {
	if isNilSpec(spec) {
		return b, errNilSpec
	}
	if v := reflect.ValueOf(spec); v.Kind() == reflect.Pointer {
		spec = v.Elem().Interface().(Spec)
	}
	out := append(b, specFormat, byte(spec.Kind()))
	out = appendString(out, spec.QueryID())
	switch s := spec.(type) {
	case PointSpec:
		out = appendPoint(out, s.Loc)
		out = appendFloat(out, s.Budget)
	case MultiPointSpec:
		out = appendPoint(out, s.Loc)
		out = appendFloat(out, s.Budget)
		out = appendInt(out, s.K)
	case AggregateSpec:
		out = appendRect(out, s.Region)
		out = appendFloat(out, s.Budget)
	case TrajectorySpec:
		out = appendCount(out, len(s.Path.Waypoints), s.Path.Waypoints == nil)
		for _, p := range s.Path.Waypoints {
			out = appendPoint(out, p)
		}
		out = appendFloat(out, s.Budget)
	case LocationMonitoringSpec:
		out = appendPoint(out, s.Loc)
		out = appendInt(out, s.Duration)
		out = appendFloat(out, s.Budget)
		out = appendInt(out, s.Samples)
	case RegionMonitoringSpec:
		out = appendRect(out, s.Region)
		out = appendInt(out, s.Duration)
		out = appendFloat(out, s.Budget)
	case EventDetectionSpec:
		out = appendPoint(out, s.Loc)
		out = appendInt(out, s.Duration)
		out = appendFloat(out, s.Threshold)
		out = appendFloat(out, s.Confidence)
		out = appendFloat(out, s.BudgetPerSlot)
	case RegionEventSpec:
		out = appendRect(out, s.Region)
		out = appendInt(out, s.Duration)
		out = appendFloat(out, s.Threshold)
		out = appendFloat(out, s.Confidence)
		out = appendFloat(out, s.BudgetPerSlot)
	default:
		return b, fmt.Errorf("ps: spec type %T has no binary form", spec)
	}
	return out, nil
}

func appendPoint(b []byte, p Point) []byte {
	return appendFloat(appendFloat(b, p.X), p.Y)
}

func appendRect(b []byte, r Rect) []byte {
	return appendFloat(appendFloat(appendFloat(appendFloat(b, r.MinX), r.MinY), r.MaxX), r.MaxY)
}

// DecodeSpecBatch parses a batch AppendSpecBinary wrote, in order. The
// input is untrusted, as in DecodeLanePartial: a truncated spec, an
// unknown layout or kind byte and a waypoint count the remaining bytes
// cannot hold are errors, memory stays within a constant factor of
// len(data), and no input panics. Only the shape is checked; whether a
// spec can run on a world is Spec.Validate's question.
func DecodeSpecBatch(data []byte) ([]Spec, error) {
	r := partialReader{b: data}
	specs := make([]Spec, 0, (len(data)+specMinBytes-1)/specMinBytes)
	for r.err == nil && len(r.b) > 0 {
		specs = append(specs, r.spec())
	}
	if r.err != nil {
		return nil, fmt.Errorf("ps: bad spec batch: spec %d: %w", len(specs)-1, r.err)
	}
	return specs, nil
}

func (r *partialReader) point() Point { return Point{X: r.float(), Y: r.float()} }

func (r *partialReader) rect() Rect {
	return Rect{MinX: r.float(), MinY: r.float(), MaxX: r.float(), MaxY: r.float()}
}

// spec reads one spec; after a failed read the value returned means
// nothing and r.err says why.
func (r *partialReader) spec() Spec {
	if format := r.byte(); r.err == nil && format != specFormat {
		r.fail("spec layout %d (this build reads %d)", format, specFormat)
	}
	kind, id := QueryKind(r.byte()), r.str()
	switch kind {
	case KindPoint:
		return PointSpec{ID: id, Loc: r.point(), Budget: r.float()}
	case KindMultiPoint:
		return MultiPointSpec{ID: id, Loc: r.point(), Budget: r.float(), K: r.int()}
	case KindAggregate:
		return AggregateSpec{ID: id, Region: r.rect(), Budget: r.float()}
	case KindTrajectory:
		s := TrajectorySpec{ID: id}
		if n, ok := r.count(16); ok {
			s.Path.Waypoints = make([]Point, n)
			for i := range s.Path.Waypoints {
				s.Path.Waypoints[i] = r.point()
			}
		}
		s.Budget = r.float()
		return s
	case KindLocationMonitoring:
		return LocationMonitoringSpec{ID: id, Loc: r.point(), Duration: r.int(), Budget: r.float(), Samples: r.int()}
	case KindRegionMonitoring:
		return RegionMonitoringSpec{ID: id, Region: r.rect(), Duration: r.int(), Budget: r.float()}
	case KindEventDetection:
		return EventDetectionSpec{ID: id, Loc: r.point(), Duration: r.int(), Threshold: r.float(), Confidence: r.float(), BudgetPerSlot: r.float()}
	case KindRegionEvent:
		return RegionEventSpec{ID: id, Region: r.rect(), Duration: r.int(), Threshold: r.float(), Confidence: r.float(), BudgetPerSlot: r.float()}
	default:
		r.fail("unknown query kind byte %d", byte(kind))
		return nil
	}
}
