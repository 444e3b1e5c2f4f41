package ps

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// The binary form of a LanePartial, the one large payload a shard node
// sends its coordinator every slot. It is a flat field-by-field layout:
//
//   - ints and int64 counters are zig-zag varints, lengths are uvarints;
//   - a float64 is its math.Float64bits, little-endian — bit-exact by
//     construction, NaN payloads, -0, infinities and subnormals included;
//   - a string is a length followed by its bytes, a bool one byte 0 or 1;
//   - a slice or map is (length + 1) followed by its elements, 0 standing
//     for nil, so nil and empty survive the trip as what they were;
//   - map entries are written in ascending key order, which makes the
//     encoding a function of the partial alone (equal partials are equal
//     bytes, and encode∘decode is a fixed point);
//   - an outcome's payments are a list of (sensor ID, amount) pairs,
//     ascending by ID: the same bytes a map from sensor ID to amount
//     would encode to, and a decoder refuses a list whose IDs do not
//     strictly ascend.
//
// The decoder keeps the number of allocations per partial constant: the
// outcome and continuous query IDs are substrings of one string, the
// IDs of the later sections resolve to those same substrings, and every
// outcome's payments are a window of one slab.
//
// The leading byte names the layout; a decoder that meets another value
// refuses the partial rather than misread it.
const lanePartialFormat = 1

// AppendBinary appends the partial's binary form to b and returns the
// extended slice.
func (p *LanePartial) AppendBinary(b []byte) []byte {
	var strs []string // key scratch, reused by every string-keyed map

	b = append(b, lanePartialFormat)
	b = appendInt(b, p.Slot)
	b = appendInt(b, p.Offers)
	b = appendInt(b, p.Queries)

	b = appendCount(b, len(p.SelectedIDs), p.SelectedIDs == nil)
	for _, id := range p.SelectedIDs {
		b = appendInt(b, id)
	}
	b = appendCount(b, len(p.Trace), p.Trace == nil)
	for _, st := range p.Trace {
		b = appendInt(b, st.Offer)
		b = appendInt(b, st.SensorID)
		b = appendFloat(b, st.Cost)
		b = appendFloat(b, st.Net)
	}

	b = appendCount(b, len(p.Outcomes), p.Outcomes == nil)
	strs = sortedKeys(p.Outcomes, strs)
	for _, id := range strs {
		out := p.Outcomes[id]
		b = appendString(b, id)
		b = appendFloat(b, out.Value)
		b = appendPayments(b, out.Payments)
	}
	b = appendCount(b, len(p.Continuous), p.Continuous == nil)
	strs = sortedKeys(p.Continuous, strs)
	for _, id := range strs {
		co := p.Continuous[id]
		b = appendString(b, id)
		b = appendBool(b, co.Satisfied)
		b = appendFloat(b, co.ValueDelta)
		b = appendFloat(b, co.Payment)
	}
	b = appendIntFloatMap(b, p.Contributions)

	for _, f := range []float64{p.TotalCost, p.PointValue, p.AggValue, p.LocMonValue, p.RegMonValue, p.ExtraValue, p.Welfare} {
		b = appendFloat(b, f)
	}

	for _, m := range []map[string]float64{p.Values, p.Payments} {
		b = appendCount(b, len(m), m == nil)
		strs = sortedKeys(m, strs)
		for _, id := range strs {
			b = appendString(b, id)
			b = appendFloat(b, m[id])
		}
	}
	b = appendCount(b, len(p.Answered), p.Answered == nil)
	strs = sortedKeys(p.Answered, strs)
	for _, id := range strs {
		b = appendString(b, id)
		b = appendBool(b, p.Answered[id])
	}

	b = appendCount(b, len(p.Events), p.Events == nil)
	for _, ev := range p.Events {
		b = appendString(b, ev.QueryID)
		b = appendInt(b, ev.Slot)
		b = appendBool(b, ev.Detected)
		b = appendFloat(b, ev.Confidence)
		b = appendFloat(b, ev.Reading)
	}

	s := p.Selection
	b = appendString(b, s.Strategy)
	for _, c := range []int64{
		s.ValuationCalls, s.SerialEquivCalls, s.LazyReevaluations, s.SubmodularityViolations,
		s.FallbackRescans, s.GeomCacheHits, s.GeomCacheLookups, s.PosteriorAppends, s.PosteriorRebuilds,
	} {
		b = binary.AppendVarint(b, c)
	}
	b = appendFloat(b, p.SelectMs)
	return appendFloat(b, p.StepMs)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendCount writes a collection's length: 0 for nil, n+1 otherwise.
func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendPayments(b []byte, ps []Payment) []byte {
	b = appendCount(b, len(ps), ps == nil)
	for _, p := range ps {
		b = appendInt(b, p.SensorID)
		b = appendFloat(b, p.Amount)
	}
	return b
}

func appendIntFloatMap(b []byte, m map[int]float64) []byte {
	b = appendCount(b, len(m), m == nil)
	for _, k := range sortedKeys(m, nil) {
		b = appendInt(b, k)
		b = appendFloat(b, m[k])
	}
	return b
}

// sortedKeys fills buf with m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V, buf []K) []K {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// DecodeLanePartial parses the binary form AppendBinary writes. The input
// is untrusted: every length is checked against the bytes that remain
// before anything is allocated for it (so memory stays within a constant
// factor of len(data)), a repeated map key, an unknown layout byte and
// trailing bytes are errors, and so is a payments list whose sensor IDs
// do not strictly ascend; no input panics.
func DecodeLanePartial(data []byte) (*LanePartial, error) {
	r := partialReader{b: data}
	if format := r.byte(); r.err == nil && format != lanePartialFormat {
		return nil, fmt.Errorf("ps: lane partial layout %d (this build reads %d)", format, lanePartialFormat)
	}
	p := &LanePartial{}
	p.Slot, p.Offers, p.Queries = r.int(), r.int(), r.int()

	if n, ok := r.count(1); ok {
		p.SelectedIDs = make([]int, n)
		for i := range p.SelectedIDs {
			p.SelectedIDs[i] = r.int()
		}
	}
	if n, ok := r.count(18); ok {
		p.Trace = make([]SelectionStep, n)
		for i := range p.Trace {
			p.Trace[i] = SelectionStep{Offer: r.int(), SensorID: r.int(), Cost: r.float(), Net: r.float()}
		}
	}

	pays := r.scanIDs()
	if n, ok := r.count(10); ok {
		p.Outcomes = make(map[string]LaneOutcome, n)
		for i := 0; i < n; i++ {
			id := r.newID()
			v := r.float()
			var out []Payment
			out, pays = r.payments(pays)
			p.Outcomes[id] = LaneOutcome{Value: v, Payments: out}
		}
		r.distinct(len(p.Outcomes), n)
	}
	if n, ok := r.count(18); ok {
		p.Continuous = make(map[string]ContinuousOutcome, n)
		for i := 0; i < n; i++ {
			id := r.newID()
			p.Continuous[id] = ContinuousOutcome{Satisfied: r.bool(), ValueDelta: r.float(), Payment: r.float()}
		}
		r.distinct(len(p.Continuous), n)
	}
	p.Contributions = r.intFloatMap()

	for _, f := range []*float64{&p.TotalCost, &p.PointValue, &p.AggValue, &p.LocMonValue, &p.RegMonValue, &p.ExtraValue, &p.Welfare} {
		*f = r.float()
	}

	r.sortIDs()
	for _, m := range []*map[string]float64{&p.Values, &p.Payments} {
		if n, ok := r.count(9); ok {
			*m = make(map[string]float64, n)
			for i := 0; i < n; i++ {
				id := r.id()
				(*m)[id] = r.float()
			}
			r.distinct(len(*m), n)
		}
	}
	if n, ok := r.count(2); ok {
		p.Answered = make(map[string]bool, n)
		for i := 0; i < n; i++ {
			id := r.id()
			p.Answered[id] = r.bool()
		}
		r.distinct(len(p.Answered), n)
	}

	if n, ok := r.count(19); ok {
		p.Events = make([]EventNotification, n)
		for i := range p.Events {
			p.Events[i] = EventNotification{QueryID: r.id(), Slot: r.int(), Detected: r.bool(), Confidence: r.float(), Reading: r.float()}
		}
	}

	s := &p.Selection
	s.Strategy = r.id()
	for _, c := range []*int64{
		&s.ValuationCalls, &s.SerialEquivCalls, &s.LazyReevaluations, &s.SubmodularityViolations,
		&s.FallbackRescans, &s.GeomCacheHits, &s.GeomCacheLookups, &s.PosteriorAppends, &s.PosteriorRebuilds,
	} {
		*c = r.varint()
	}
	p.SelectMs = r.float()
	p.StepMs = r.float()

	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("ps: bad lane partial: %w", r.err)
	}
	return p, nil
}

// partialReader consumes a partial's bytes front to back. The first error
// sticks: every later read returns a zero value, so the decoder reads
// straight through and checks once at the end.
type partialReader struct {
	b   []byte
	err error

	// idBuf holds the bytes of every outcome and continuous query ID;
	// ids lists them as substrings of it, sorted once both sections are
	// read, and next is where id tries first.
	idBuf strings.Builder
	ids   []string
	next  int
}

func (r *partialReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *partialReader) take(n int) []byte {
	if r.err != nil || n > len(r.b) {
		r.fail("truncated: want %d bytes, %d remain", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *partialReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *partialReader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail("bool byte %d", v)
	}
	return v == 1
}

func (r *partialReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *partialReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *partialReader) int() int { return int(r.varint()) }

func (r *partialReader) float() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// strBytes reads a string's bytes in place.
func (r *partialReader) strBytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes, %d remain", n, len(r.b))
		return nil
	}
	return r.take(int(n))
}

func (r *partialReader) str() string { return string(r.strBytes()) }

// scanIDs sizes the decode's shared buffers. It reads ahead, without
// consuming, over the outcome and continuous sections, grows the ID
// string to hold every ID they name, and returns an empty payments slab
// with room for every outcome's payments. On malformed input the sizes
// may come out short; the decode then fails at the same place anyway.
func (r *partialReader) scanIDs() []Payment {
	sc := partialReader{b: r.b}
	var idBytes, ids, pays int
	if n, ok := sc.count(10); ok {
		for i := 0; i < n && sc.err == nil; i++ {
			idBytes += len(sc.strBytes())
			ids++
			sc.take(8)
			if m, ok := sc.count(9); ok {
				pays += m
				for j := 0; j < m && sc.err == nil; j++ {
					sc.varint()
					sc.take(8)
				}
			}
		}
	}
	if n, ok := sc.count(18); ok {
		for i := 0; i < n && sc.err == nil; i++ {
			idBytes += len(sc.strBytes())
			ids++
			sc.take(17)
		}
	}
	r.idBuf.Grow(idBytes)
	r.ids = make([]string, 0, ids)
	return make([]Payment, 0, pays)
}

// newID reads an outcome or continuous query ID into the shared ID
// string and lists it for id to find.
func (r *partialReader) newID() string {
	b := r.strBytes()
	start := r.idBuf.Len()
	r.idBuf.Write(b)
	id := r.idBuf.String()[start:]
	r.ids = append(r.ids, id)
	return id
}

// sortIDs readies the ID list for id's lookups.
func (r *partialReader) sortIDs() { slices.Sort(r.ids) }

// id reads a string and returns the listed ID equal to it, if there is
// one, or a fresh copy. The sections id reads are sorted like the list,
// so the entry after the last one found is tried before a binary search.
func (r *partialReader) id() string {
	b := r.strBytes()
	if r.next < len(r.ids) && r.ids[r.next] == string(b) {
		r.next++
		return r.ids[r.next-1]
	}
	i, j := 0, len(r.ids)
	for i < j {
		h := int(uint(i+j) >> 1)
		if r.ids[h] < string(b) {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(r.ids) && r.ids[i] == string(b) {
		r.next = i + 1
		return r.ids[i]
	}
	return string(b)
}

// payments reads one outcome's payments list into the slab and returns
// the list, a window of the slab, with the extended slab.
func (r *partialReader) payments(slab []Payment) (list, rest []Payment) {
	n, ok := r.count(9)
	if !ok {
		return nil, slab
	}
	start := len(slab)
	for i := 0; i < n && r.err == nil; i++ {
		p := Payment{SensorID: r.int(), Amount: r.float()}
		if i > 0 && p.SensorID <= slab[len(slab)-1].SensorID {
			r.fail("payments to sensor %d after sensor %d", p.SensorID, slab[len(slab)-1].SensorID)
		}
		slab = append(slab, p)
	}
	return slab[start:len(slab):len(slab)], slab
}

// count reads a collection's length and reports whether the collection is
// non-nil. elemMin is the fewest bytes one element can occupy: a length
// the remaining input cannot hold is refused before the caller allocates.
func (r *partialReader) count(elemMin int) (int, bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, false
	}
	if n := v - 1; n <= uint64(len(r.b)/elemMin) {
		return int(n), true
	}
	r.fail("%d elements of at least %d bytes, %d remain", v-1, elemMin, len(r.b))
	return 0, false
}

// distinct fails the decode when a map ended up smaller than its declared
// length, i.e. a key was repeated.
func (r *partialReader) distinct(got, want int) {
	if r.err == nil && got != want {
		r.fail("map of %d entries repeats a key", want)
	}
}

func (r *partialReader) intFloatMap() map[int]float64 {
	n, ok := r.count(9)
	if !ok {
		return nil
	}
	m := make(map[int]float64, n)
	for i := 0; i < n; i++ {
		k := r.int()
		m[k] = r.float()
	}
	r.distinct(len(m), n)
	return m
}
