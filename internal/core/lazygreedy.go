package core

// Strategy selects how Algorithm 1 evaluates candidate sensors. Both
// strategies return bit-identical results; they differ only in how much
// work they do to find each round's argmax.
type Strategy int

const (
	// StrategyLazy, the zero value and the one production path, is the
	// CELF-style lazy-greedy: cached net benefits in a max-heap,
	// re-evaluated only when stale.
	StrategyLazy Strategy = iota
	// StrategySerial scans every remaining sensor each round. It is the
	// reference the equivalence tests compare against.
	StrategySerial
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == StrategySerial {
		return "serial"
	}
	return "lazy"
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
	h.pos = grow(h.pos, n)
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

// volPair is one (sensor, query) pair of a volatile (non-submodular)
// query in lazyLoop's pair block: the sensor index, the pair's flat index
// into the selection's CSR gains/vers arrays and, for a query with
// geometry masks, what its gain bound needs — the fresh count of the
// pair's last exact evaluation and the sensor's weight.
type volPair struct {
	si, idx int32
	fresh   int32
	w       float64
}

// lazyLoop is the CELF-style selection loop.
//
// Invariant: every heap entry's priority is at least its sensor's current
// net benefit, and equals it while the sensor is fresh — no cached gain
// of it is stale. For monotone submodular valuations (queries advertising
// query.Submodular) a query's marginal gain can only shrink as its state
// grows, so a gain evaluated at an older state stays an upper bound.
// Valuations without the marker ("volatile": aggregates, trajectories,
// arbitrary black boxes) get no such guarantee from the marker; after
// every commit that touches one, refreshVolatile brings each remaining
// pair of it back under the invariant in one pass over the query's slice
// of the pair block. Aggregates and trajectories (query.GeomCached)
// first try their bound, which needs no mask: the gain at the pair's
// last exact fresh count. The count only shrinks as the query commits
// and the gain never falls as the count grows, so the bound is at least
// the pair's current gain, and
//
//   - a cached gain <= 0 with a bound <= 0 still contributes nothing: the
//     pair is stamped current without touching the heap. A non-positive
//     cached gain means "contributes nothing"; its magnitude is not read.
//   - a cached gain > 0 that is >= the bound still bounds the gain from
//     above: the pair stays stale, and evalSensor computes it exactly if
//     the sensor reaches the top of the heap.
//
// Every other pair, and every pair of a query without a usable bound, is
// evaluated exactly from its prebuilt mask (or by plain Gain) and its
// sensor re-prioritised when the positive part of its gain moved.
//
// The heap orders its one entry per remaining sensor by (net desc, sensor
// index asc). When the top is fresh every other candidate's priority is
// at least its net, which is at most the top's exact net, so the top is
// the round's true argmax with the serial tie-break, and it commits
// without touching the rest of the pool. A stale top is re-evaluated
// (refreshing only the stale (sensor, query) gain cache entries) and
// re-prioritised in place.
//
// Fallback: if a re-evaluated *marked* gain increased, the marker lied
// and stale bounds elsewhere may underestimate their sensors. The round
// then re-scans every remaining candidate exhaustively (restoring exact
// priorities for all of them) and rebuilds the heap. This detector is
// best-effort — the bound invariant, and with it bit-identical results,
// is guaranteed by truthful markers, not by detection.
func (s *selection) lazyLoop() {
	ar := s.ar
	anyVol := s.buildVolatile()

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

	touched := grow(ar.touched, len(s.offers))
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
				// Volatile queries just bumped: bring every remaining pair
				// of theirs back under the invariant and re-prioritise the
				// sensors whose priority moved.
				touchList = touchList[:0]
				for _, qi := range s.lastBumped {
					if !s.submod[qi] {
						touchList = s.refreshVolatile(qi, touched, touchList, &c)
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

// buildVolatile lays out the volatile pair block — query qi's pairs are
// vol[volOff[qi]:volOff[qi+1]], in CSR order — and each pair's index
// into it, over the arena. It reports whether any query is volatile; the
// submodular classification lives on the selection (newSelection).
func (s *selection) buildVolatile() bool {
	anyVol := false
	for qi := range s.queries {
		anyVol = anyVol || !s.submod[qi]
	}
	if !anyVol {
		return false
	}
	ar := s.ar
	volOff := grow(ar.volOff, len(s.queries)+1)
	clear(volOff)
	for _, qi := range s.relIdx {
		if !s.submod[qi] {
			volOff[qi+1]++
		}
	}
	for qi := 0; qi < len(s.queries); qi++ {
		volOff[qi+1] += volOff[qi]
	}
	nvol := int(volOff[len(s.queries)])
	if cap(ar.vol) < nvol {
		ar.vol = make([]volPair, nvol)
	}
	s.vol = ar.vol[:nvol]
	s.volAt = grow(ar.volAt, len(s.relIdx))
	cursor := grow(ar.cursor, len(s.queries))
	copy(cursor, volOff[:len(s.queries)])
	for si := range s.offers {
		for idx := s.relOff[si]; idx < s.relOff[si+1]; idx++ {
			qi := s.relIdx[idx]
			if s.submod[qi] {
				s.volAt[idx] = -1
				continue
			}
			// fresh is written by the pair's first exact evaluation,
			// which lazyLoop's first rebuild makes before any bound is
			// read.
			k := cursor[qi]
			s.vol[k] = volPair{si: int32(si), idx: idx, w: s.base[idx]}
			s.volAt[idx] = k
			cursor[qi]++
		}
	}
	s.volOff = volOff
	ar.volOff, ar.cursor, ar.volAt = volOff, cursor, s.volAt
	return true
}

// refreshVolatile brings every remaining pair of volatile query qi back
// under lazyLoop's invariant after the query's version bumped: a pair
// its bound settles keeps its gain, every other pair is evaluated
// exactly. It appends to touchList, and marks in touched, each sensor
// whose priority moved, and returns the list.
func (s *selection) refreshVolatile(qi int32, touched []bool, touchList []int32, c *evalCounters) []int32 {
	gc, ver := s.geom[qi], s.qver[qi]
	for k := s.volOff[qi]; k < s.volOff[qi+1]; k++ {
		p := &s.vol[k]
		if !s.remaining[p.si] {
			continue
		}
		old := s.gains[p.idx]
		if gc != nil {
			if b, ok := gc.GainBound(int(p.fresh), p.w); ok {
				if old <= 0 && b <= 0 {
					s.vers[p.idx] = ver
					continue
				}
				if old > 0 && b <= old {
					continue
				}
			}
		}
		g := s.pairGain(int(p.si), p.idx, qi, c)
		s.gains[p.idx] = g
		s.vers[p.idx] = ver
		// The sensor's net sums only positive gains, so its priority
		// moved iff the positive part moved; most refreshes of a saturated
		// aggregate swing one negative gain to another and leave the heap
		// alone.
		if old < 0 {
			old = 0
		}
		if g < 0 {
			g = 0
		}
		if old != g && !touched[p.si] {
			touched[p.si] = true
			touchList = append(touchList, p.si)
		}
	}
	return touchList
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
