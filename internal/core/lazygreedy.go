package core

import (
	"fmt"
	"strings"
)

// Strategy selects how Algorithm 1 evaluates candidate sensors. Both
// strategies return bit-identical results; they differ only in how much
// work they do to find each round's argmax.
type Strategy int

const (
	// StrategyAuto is the default: a serial scan below lazyThreshold
	// offers, StrategyLazy from it upwards.
	StrategyAuto Strategy = iota
	// StrategySerial scans every remaining sensor each round. It is the
	// reference the equivalence tests compare against.
	StrategySerial
	// StrategyLazy is the CELF-style lazy-greedy fast path: cached net
	// benefits in a max-heap, re-evaluated only when stale.
	StrategyLazy
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategySerial:
		return "serial"
	case StrategyLazy:
		return "lazy"
	default:
		return "unknown"
	}
}

// ParseStrategy parses a strategy name as accepted by the CLIs and the
// cluster node config ("auto", "serial", "lazy").
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return StrategyAuto, nil
	case "serial":
		return StrategySerial, nil
	case "lazy", "celf":
		return StrategyLazy, nil
	default:
		return StrategyAuto, fmt.Errorf("unknown strategy %q (want one of auto, serial, lazy)", s)
	}
}

// lazyEntry is one heap candidate: a sensor and its last evaluated net
// benefit. While every relevant query's version is unchanged the net is
// exact; once a version bumps it is (for submodular valuations) an upper
// bound on the sensor's current net.
type lazyEntry struct {
	si  int
	net float64
}

// lazyHeap is an indexed binary max-heap of candidates ordered by net
// benefit, ties broken by the lower sensor index — exactly the serial
// scan's "first index with the strictly largest net" rule. It holds at
// most one entry per sensor: pos finds a sensor's entry, so a changed
// net re-prioritises the entry in place.
type lazyHeap struct {
	ents []lazyEntry
	// pos[si] is the index of sensor si's entry in ents, -1 when it has
	// none.
	pos []int32
}

// reset empties the heap for sensors 0..n-1.
func (h *lazyHeap) reset(n int) {
	h.ents = h.ents[:0]
	h.pos = growInt32(h.pos, n)
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// add appends an entry without restoring heap order; init does that once
// every entry is in.
func (h *lazyHeap) add(si int, net float64) {
	h.pos[si] = int32(len(h.ents))
	h.ents = append(h.ents, lazyEntry{si: si, net: net})
}

func (h *lazyHeap) init() {
	for i := len(h.ents)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *lazyHeap) before(i, j int) bool {
	a, b := h.ents[i], h.ents[j]
	if a.net != b.net {
		return a.net > b.net
	}
	return a.si < b.si
}

func (h *lazyHeap) swap(i, j int) {
	h.ents[i], h.ents[j] = h.ents[j], h.ents[i]
	h.pos[h.ents[i].si] = int32(i)
	h.pos[h.ents[j].si] = int32(j)
}

// popTop removes and returns the maximum entry.
func (h *lazyHeap) popTop() lazyEntry {
	top := h.ents[0]
	n := len(h.ents) - 1
	h.swap(0, n)
	h.ents = h.ents[:n]
	h.pos[top.si] = -1
	h.siftDown(0)
	return top
}

// update sets sensor si's net and moves its entry to where the new net
// belongs.
func (h *lazyHeap) update(si int, net float64) {
	i := int(h.pos[si])
	h.ents[i].net = net
	if !h.siftUp(i) {
		h.siftDown(i)
	}
}

// siftUp reports whether the entry moved.
func (h *lazyHeap) siftUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *lazyHeap) siftDown(i int) {
	n := len(h.ents)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.before(l, best) {
			best = l
		}
		if r < n && h.before(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// volRef locates one (sensor, query) gain-cache slot of a volatile
// (non-submodular) query: the sensor index and the slot's flat index
// into the selection's CSR gains/vers arrays.
type volRef struct {
	si, idx int32
}

// lazyLoop is the CELF-style selection loop.
//
// Invariant: for monotone submodular valuations (queries advertising
// query.Submodular) a query's marginal gain can only shrink as its state
// grows, so a heap entry evaluated at an older state is an upper bound
// on the sensor's current net benefit. Valuations without the marker
// ("volatile": aggregates, trajectories, arbitrary black boxes) get no
// such bound — their cached gains are instead refreshed *eagerly* after
// every commit that touches them, so each entry's priority is always
// exact-volatile-part plus bounded-submodular-part, i.e. still a valid
// upper bound. The aggregate and trajectory states evaluate from the
// run's prebuilt geometry masks (query.GeomCached), so each eager refresh
// is a few popcounts rather than a geometry walk.
//
// The heap orders its one entry per remaining sensor by (net desc, sensor
// index asc). When the top is fresh — no relevant query committed a
// sensor since it was evaluated — every other candidate's bound is at
// most the top's exact net, so the top is the round's true argmax with
// the serial tie-break, and it commits without touching the rest of the
// pool. A stale top is re-evaluated (refreshing only the stale (sensor,
// query) gain cache entries) and re-prioritised in place.
//
// Fallback: if a re-evaluated *marked* gain increased, the marker lied
// and stale bounds elsewhere may underestimate their sensors. The round
// then re-scans every remaining candidate exhaustively (restoring exact
// priorities for all of them) and rebuilds the heap. This detector is
// best-effort — the bound invariant, and with it bit-identical results,
// is guaranteed by truthful markers, not by detection.
func (s *selection) lazyLoop() {
	// Build the reverse index volatile maintenance needs (query -> its
	// gain-cache slots) in CSR form over the arena; the submodular
	// classification lives on the selection (newSelection).
	ar := s.ar
	anyVol := false
	for qi := range s.queries {
		anyVol = anyVol || !s.submod[qi]
	}
	var volOff []int32
	var volRefs []volRef
	if anyVol {
		volOff = growInt32(ar.volOff, len(s.queries)+1)
		for i := range volOff {
			volOff[i] = 0
		}
		for _, qi := range s.relIdx {
			if !s.submod[qi] {
				volOff[qi+1]++
			}
		}
		for qi := 0; qi < len(s.queries); qi++ {
			volOff[qi+1] += volOff[qi]
		}
		nvol := int(volOff[len(s.queries)])
		if cap(ar.volRefs) < nvol {
			ar.volRefs = make([]volRef, nvol)
		}
		volRefs = ar.volRefs[:nvol]
		cursor := growInt32(ar.cursor, len(s.queries))
		copy(cursor, volOff[:len(s.queries)])
		for si := range s.offers {
			for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
				qi := s.relIdx[idx]
				if !s.submod[qi] {
					volRefs[cursor[qi]] = volRef{si: int32(si), idx: idx}
					cursor[qi]++
				}
			}
		}
		ar.volOff, ar.cursor = volOff, cursor
	}

	h := &ar.heap
	rebuild := func() {
		s.refreshRemaining()
		h.reset(len(s.offers))
		for si := range s.offers {
			if s.remaining[si] {
				h.add(si, s.cachedNet(si))
			}
		}
		h.init()
	}
	rebuild()

	touched := growBool(ar.touched, len(s.offers))
	for i := range touched {
		touched[i] = false
	}
	ar.touched = touched
	touchList := ar.touchList[:0]
	defer func() { ar.touchList = touchList }()
	var c evalCounters
	for len(h.ents) > 0 {
		e := h.ents[0]
		if e.net <= 0 {
			// The highest bound is non-positive: no remaining sensor is
			// profitable, exactly the serial termination rule.
			break
		}
		if s.fresh(e.si) {
			h.popTop()
			s.commit(e.si, e.net)
			if anyVol {
				// Volatile queries just bumped: restore exact gains for
				// every remaining sensor they touch and re-prioritize.
				touchList = touchList[:0]
				for _, qi := range s.lastBumped {
					if s.submod[qi] {
						continue
					}
					for _, ref := range volRefs[volOff[qi]:volOff[qi+1]] {
						if !s.remaining[ref.si] {
							continue
						}
						old := s.gains[ref.idx]
						g := s.pairGain(int(ref.si), ref.idx, qi, &c)
						s.gains[ref.idx] = g
						s.vers[ref.idx] = s.qver[qi]
						// The sensor's net sums only positive gains, so its
						// priority moved iff the positive part moved; most
						// refreshes of a saturated aggregate swing one
						// negative gain to another and leave the heap alone.
						if old < 0 {
							old = 0
						}
						if g < 0 {
							g = 0
						}
						if old != g && !touched[ref.si] {
							touched[ref.si] = true
							touchList = append(touchList, ref.si)
						}
					}
				}
				for _, si := range touchList {
					touched[si] = false
					h.update(int(si), s.cachedNet(int(si)))
				}
			}
			continue
		}
		s.stats.LazyReevaluations++
		vBefore := c.violations
		net := s.evalSensor(e.si, &c)
		if c.violations > vBefore {
			// A marked-submodular gain grew: the cached bounds cannot be
			// trusted, so re-scan the whole remaining pool to make every
			// priority exact again.
			s.stats.FallbackRescans++
			s.addCounters(c)
			c = evalCounters{}
			rebuild()
			continue
		}
		h.update(e.si, net)
	}
	s.addCounters(c)
}

// refreshRemaining brings every remaining sensor's gain cache up to the
// current query versions.
func (s *selection) refreshRemaining() {
	var c evalCounters
	for si := range s.offers {
		if s.remaining[si] {
			s.evalSensor(si, &c)
		}
	}
	s.addCounters(c)
}
