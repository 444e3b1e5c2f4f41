package ps

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// ErrUnknownQuery reports a Watch on a query the engine is not currently
// serving: never submitted, already finished, or canceled.
var ErrUnknownQuery = errors.New("ps: unknown query")

// EventType labels one frame of a query's event stream. Every
// materialized query publishes the typed sequence
//
//	Accepted → SlotUpdate* → Final | Canceled
//
// with one Gap frame synthesized for a reader that fell behind the
// query's event log (see Subscription).
type EventType int

const (
	// EventAccepted opens every stream: the spec was validated and
	// materialized; Start/End carry the query's slot window.
	EventAccepted EventType = iota
	// EventSlotUpdate carries one executed slot's SlotResult.
	EventSlotUpdate
	// EventGap reports Dropped events this reader can no longer get: the
	// query's event log evicted them (slots From..To) before the reader
	// reached them. The stream continues with the oldest retained event.
	EventGap
	// EventFinal terminates a stream whose query expired normally; the
	// final SlotUpdate precedes it.
	EventFinal
	// EventCanceled terminates a stream cut short: Err distinguishes
	// issuer cancellation (ErrCanceled) from engine shutdown
	// (ErrEngineStopped).
	EventCanceled
)

// String returns the event type's wire name (package wire's v2 frames use
// the same names).
func (t EventType) String() string {
	switch t {
	case EventAccepted:
		return "accepted"
	case EventSlotUpdate:
		return "slot_update"
	case EventGap:
		return "gap"
	case EventFinal:
		return "final"
	case EventCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// QueryEvent is one frame of a query's event stream.
type QueryEvent struct {
	// Type selects which of the remaining fields are meaningful.
	Type EventType
	// QueryID names the stream's query.
	QueryID string
	// Slot is the monotone slot cursor: the last executed slot this event
	// is current as of. Accepted carries Start-1 (nothing executed yet),
	// SlotUpdate its slot, Final the end slot, Canceled the last slot
	// executed while the query was live, and Gap the cursor of the event
	// it was emitted in front of. Within one stream, delivery order never
	// decreases the cursor, so a consumer can resume from its last cursor
	// after a reconnect.
	Slot int
	// Start and End delimit the query's slot window (Accepted only).
	Start, End int
	// Result is the executed slot's outcome (SlotUpdate only).
	Result SlotResult
	// Dropped counts the events evicted from the log ahead of this reader,
	// covering slots From..To (Gap only).
	Dropped  int
	From, To int
	// Err is the termination cause (Canceled only): ErrCanceled or
	// ErrEngineStopped.
	Err error
	// At is the publish timestamp, set on the event-loop goroutine —
	// subscribers can measure delivery latency against it.
	At time.Time
}

// Subscription is one reader of a query's event stream: a cursor into the
// query's event log plus a wake-up. The submitting QueryHandle owns one;
// any number of further readers attach with Engine.Watch (from the live
// tail) or QueryHandle.Watch (from a slot cursor, also after the query
// finished). Every query has exactly one log — append-only, grown on
// demand, bounded by WithEventBuffer — and publishing appends to it once,
// whatever the number of readers, so a stalled reader never blocks the
// slot loop. The slow-consumer policy is the log's: at the bound the
// *oldest* event is evicted, and a reader whose cursor falls behind the
// oldest retained event gets one Gap frame (From..To, Dropped) in front
// of it. The newest events — in particular the terminal one — always
// land.
//
// Read either with Next (non-blocking; wait on Ready between calls) or
// through the Events channel; do not mix the two on one subscription.
type Subscription struct {
	t *topic

	// Everything below is guarded by t.mu.

	// next is the log sequence number of the next event to read; cursor
	// the slot cursor of the last event read, or the resume point.
	next, cursor int
	// joinCursor is the stream's slot cursor when this reader started.
	joinCursor int
	// accepted marks an Engine.Watch reader that still owes its consumer
	// the opening Accepted frame.
	accepted bool
	closed   bool
	// wake holds at most one token: the log grew, or the stream ended,
	// since the reader last looked. Nil until Ready is first called.
	wake chan struct{}
	// ch is the Events adapter's channel, fed by a goroutine the first
	// Events call starts.
	ch chan QueryEvent
}

// Next returns the subscription's next event without blocking; ok is
// false when the reader has caught up with the log (wait on Ready, or
// stop if Done). The event is a synthesized Gap when the log evicted
// events ahead of this reader.
func (s *Subscription) Next() (ev QueryEvent, ok bool) {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.closed {
		return QueryEvent{}, false
	}
	if s.accepted {
		s.accepted = false
		return QueryEvent{
			Type: EventAccepted, QueryID: t.id,
			Slot: t.start - 1, Start: t.start, End: t.end, At: t.acceptedAt,
		}, true
	}
	if s.next < t.base {
		// The one gap rule: everything between the reader's cursor and the
		// log's oldest retained event is gone. The frame rides in front of
		// that event and reports its cursor; the lost range is carried
		// separately in From..To.
		oldest := t.log[0]
		ev = QueryEvent{
			Type: EventGap, QueryID: t.id, Slot: oldest.Slot,
			From: max(s.cursor+1, t.start-1), To: t.evictedTo, Dropped: t.base - s.next,
			At: oldest.At,
		}
		s.next = t.base
		t.hub.countGap(ev.Dropped)
		return ev, true
	}
	i := s.next - t.base
	if i >= len(t.log) {
		return QueryEvent{}, false
	}
	s.next++
	s.cursor = t.log[i].Slot
	return t.log[i], true
}

// Ready returns the subscription's wake-up channel: it receives after the
// log grew or the stream ended. Obtain it before the Next call whose
// false result you then wait on — a wake-up sent before the channel
// exists is not repeated — and treat a receive as "look again", not as a
// count of new events.
func (s *Subscription) Ready() <-chan struct{} {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.readyLocked()
}

func (s *Subscription) readyLocked() chan struct{} {
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
	}
	return s.wake
}

// Done reports that Next will never return another event: the stream
// ended and this reader has read all of it, or the subscription was
// closed.
func (s *Subscription) Done() bool {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.closed || (s.t.ended && !s.accepted && s.next >= s.t.base+len(s.t.log))
}

// Events returns the subscription's event stream as a channel, fed from
// the log by a goroutine the first call starts. The channel closes after
// the terminal event (Final or Canceled), after Close, or — for a
// submission that never went live — immediately, with the cause in Err.
// A consumer that stops receiving before the channel closes must call
// Close, or the feeding goroutine stays parked on its next send.
func (s *Subscription) Events() <-chan QueryEvent {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan QueryEvent)
		go s.feed(s.ch, s.readyLocked())
	}
	return s.ch
}

// feed moves events from the log into the Events channel until the
// stream is done. A wake-up taken while parked on a send is not lost:
// the next Next call sees whatever it announced.
func (s *Subscription) feed(ch chan<- QueryEvent, ready <-chan struct{}) {
	defer close(ch)
	for {
		ev, ok := s.Next()
		if !ok {
			if s.Done() {
				return
			}
			<-ready
			continue
		}
		for sent := false; !sent; {
			select {
			case ch <- ev:
				sent = true
			case <-ready:
				if s.isClosed() {
					return
				}
			}
		}
	}
}

func (s *Subscription) isClosed() bool {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.closed
}

// ID returns the subscribed query's identifier.
func (s *Subscription) ID() string { return s.t.id }

// Err explains why the stream ended: nil after a normal Final,
// ErrCanceled, ErrEngineStopped, or the submission error of a spec that
// never went live (validation failure, ErrDuplicateQueryID, ErrShed).
// Only valid once the stream ended (Done, or Events closed).
func (s *Subscription) Err() error {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.err
}

// JoinCursor reports the stream's slot cursor at the moment this
// subscription started: an Engine.Watch reader delivers exactly the
// events published after it (every earlier one has Slot <= JoinCursor), a
// QueryHandle.Watch reader the retained events with a newer cursor.
func (s *Subscription) JoinCursor() int {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.joinCursor
}

// Close detaches the subscription: Next returns nothing more, the Events
// channel (if used) closes, and publishing stops waking it. Closing does
// not cancel the query; the submitting handle's Cancel does. Safe to call
// more than once, and concurrently with event delivery.
func (s *Subscription) Close() {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	t.subs = slices.DeleteFunc(t.subs, func(o *Subscription) bool { return o == s })
	s.wakeLocked()
}

// wakeLocked leaves the reader a wake-up token if it has ever waited.
// Caller holds t.mu; the send never blocks.
func (s *Subscription) wakeLocked() {
	if s.wake == nil {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// topic is one query's publication point: its event log and the readers
// attached to it. The hub's map holds it while the query is live; after
// that the handle and any open subscription keep the log readable.
type topic struct {
	id  string
	hub *hub

	// mu guards everything below, and every attached Subscription. Lock
	// order: hub.mu before topic.mu.
	mu         sync.Mutex
	start, end int
	// log holds the retained events in stream order: log[i] is the
	// stream's event number base+i, so base also counts the evictions.
	// evictedTo is the slot cursor of the newest evicted event. Evicted
	// events are never terminal, and cursors never decrease along the log.
	log       []QueryEvent
	base      int
	evictedTo int
	// ended marks the stream over — the terminal event is appended, or the
	// submission failed before going live — with err the cause (see
	// Subscription.Err). onDone runs once at that point.
	ended  bool
	err    error
	onDone func()
	// owner is the submitting handle's subscription; subs the attached
	// readers, owner included unless it was closed.
	owner Subscription
	subs  []*Subscription
	// acceptedAt anchors the query's lifecycle spans (time to first
	// update, lifetime).
	acceptedAt time.Time
}

// cursor returns the Slot of the last published event. Caller holds
// t.mu; the topic is registered (its log is never empty after that).
func (t *topic) cursor() int { return t.log[len(t.log)-1].Slot }

// publish appends ev to the log — evicting the oldest event at the bound
// — and wakes the attached readers. It returns how many readers were
// attached. Caller holds t.mu.
func (t *topic) publish(ev QueryEvent) (attached int) {
	if len(t.log) >= t.hub.bound {
		t.evictedTo = t.log[0].Slot
		t.log[0] = QueryEvent{} // release what the evicted event references
		t.log = t.log[1:]
		t.base++
	}
	t.log = append(t.log, ev)
	for _, s := range t.subs {
		s.wakeLocked()
	}
	return len(t.subs)
}

// finish marks the stream over with cause err and wakes the readers. It
// returns the completion callback for the caller to run once it holds no
// lock (nil if none is registered). Caller holds t.mu.
func (t *topic) finish(err error) (onDone func()) {
	t.ended, t.err = true, err
	for _, s := range t.subs {
		s.wakeLocked()
	}
	onDone, t.onDone = t.onDone, nil
	return onDone
}

// follow returns a new reader positioned after slot cursor `after`: it
// reads the retained events with a newer cursor, then follows the live
// tail. The terminal event is read whatever the cursor; events evicted
// beyond `after` surface as the reader's Gap.
func (t *topic) follow(after int) *Subscription {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.log), func(i int) bool { return t.log[i].Slot > after })
	if last := len(t.log) - 1; i > last && t.ended && last >= 0 && t.log[last].terminal() {
		i = last
	}
	s := &Subscription{t: t, next: t.base + i, cursor: after, joinCursor: after}
	if after < t.evictedTo {
		// Part of what the reader asks for is gone (and every retained
		// event is newer than it). Live slots publish one event each, so
		// the evicted events newer than `after` number evictedTo-after —
		// or all of them, for a reader from before the stream's start.
		missed := t.base
		if d := t.evictedTo - after; d > 0 && d < missed {
			missed = d
		}
		s.next -= missed
	}
	t.attach(s)
	return s
}

// attach adds s to the readers publish wakes and counts; a stream that
// already ended has nothing left to announce. Caller holds t.mu.
func (t *topic) attach(s *Subscription) {
	if !t.ended {
		t.subs = append(t.subs, s)
	}
}

func (ev *QueryEvent) terminal() bool {
	return ev.Type == EventFinal || ev.Type == EventCanceled
}

// hub is the engine's central subscription hub: it owns every live
// query's topic and appends the event-loop goroutine's publications to
// their logs. The map synchronizes on the hub's mutex, each log on its
// topic's; a publication is one append plus a non-blocking wake-up per
// attached reader, so the slot loop's time under the locks never depends
// on reader behavior.
type hub struct {
	// bound is the most events one query's log retains.
	bound int
	// obs receives gap, eviction and query-lifecycle observations (a
	// couple of atomic ops each).
	obs *hubObs

	// mu guards topics.
	mu     sync.Mutex
	topics map[string]*topic
	// Scratch of the loop goroutine, reused across slots: the live query
	// IDs in publish order, and the completion callbacks collected until
	// the locks are released.
	ids   []string
	ended []func()
}

func newHub(bound int, o *hubObs) *hub {
	if bound < 2 {
		// The terminal event must fit behind the event a resuming reader
		// is told the log continues with.
		bound = 2
	}
	return &hub{bound: bound, obs: o, topics: make(map[string]*topic)}
}

// newTopic builds an unregistered topic with its owner attached (used by
// submit: the handle's stream must exist before registration so a
// rejection can end it with the cause, and wake whoever already waits).
func (h *hub) newTopic(id string) *topic {
	t := &topic{id: id, hub: h}
	t.owner.t, t.owner.cursor = t, math.MinInt
	t.attach(&t.owner)
	return t
}

// countGap accounts one Gap frame reporting n lost events.
func (h *hub) countGap(n int) {
	h.obs.gapFrames.Inc()
	h.obs.eventsDropped.Add(float64(n))
	h.obs.evictionRun.Observe(float64(n))
}

// live reports whether id has a live topic.
func (h *hub) live(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.topics[id]
	return ok
}

// register makes t the live topic of its ID and publishes the opening
// Accepted event. Loop goroutine only.
func (h *hub) register(t *topic, start, end int, at time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	h.topics[t.id] = t
	t.start, t.end, t.acceptedAt = start, end, at
	// Room for the whole stream of a short query (three events for a
	// one-shot); a longer one grows on demand.
	t.log = make([]QueryEvent, 0, min(end-start+3, 8, h.bound))
	t.owner.joinCursor = start - 1
	t.publish(QueryEvent{
		Type: EventAccepted, QueryID: t.id,
		Slot: start - 1, Start: start, End: end, At: at,
	})
}

// watch attaches a new reader to a live topic's tail: it delivers exactly
// the events published after it attached (JoinCursor tells the caller
// where that is), behind a replay of the opening Accepted event so every
// stream starts with the same frame.
func (h *hub) watch(id string) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.topics[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownQuery, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Subscription{
		t: t, next: t.base + len(t.log), accepted: true,
		cursor: t.cursor(), joinCursor: t.cursor(),
	}
	t.attach(s)
	return s, nil
}

// terminate takes t out of the live set, publishes its terminal event —
// Final, or Canceled when there is a cause — and ends the stream. It
// returns the completion callback (see topic.finish). Caller holds h.mu
// and t.mu.
func (h *hub) terminate(t *topic, cause error, at time.Time) (attached int, onDone func()) {
	delete(h.topics, t.id)
	ev := QueryEvent{Type: EventFinal, QueryID: t.id, Slot: t.cursor(), Err: cause, At: at}
	if cause != nil {
		ev.Type = EventCanceled
	}
	attached = t.publish(ev)
	h.obs.lifetime.Observe(at.Sub(t.acceptedAt).Seconds())
	return attached, t.finish(cause)
}

// cancel tears t down if it still is the live topic of its ID (a reused
// ID must not let a stale handle cancel its successor), publishing the
// Canceled terminal. Loop goroutine only. Reports whether a live topic
// was canceled.
func (h *hub) cancel(t *topic, cause error, at time.Time) bool {
	h.mu.Lock()
	if h.topics[t.id] != t {
		h.mu.Unlock()
		return false
	}
	t.mu.Lock()
	_, onDone := h.terminate(t, cause, at)
	t.mu.Unlock()
	h.mu.Unlock()
	if onDone != nil {
		onDone()
	}
	return true
}

// liveCount returns the number of live topics.
func (h *hub) liveCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.topics)
}

// closeAll force-terminates every live topic with cause (engine
// shutdown past the drain cap). Loop goroutine only.
func (h *hub) closeAll(cause error, at time.Time) {
	h.mu.Lock()
	for _, t := range h.topics {
		t.mu.Lock()
		_, onDone := h.terminate(t, cause, at)
		t.mu.Unlock()
		if onDone != nil {
			h.ended = append(h.ended, onDone)
		}
	}
	h.mu.Unlock()
	h.runEnded()
}

// runEnded runs the completion callbacks collected under the locks. Loop
// goroutine only, holding no lock.
func (h *hub) runEnded() {
	for i, fn := range h.ended {
		fn()
		h.ended[i] = nil
	}
	h.ended = h.ended[:0]
}

// publishSlot appends one executed slot's report to every live topic's
// log: a SlotUpdate per query, then Final for the queries whose window
// ended this slot. Loop goroutine only.
func (h *hub) publishSlot(rep *SlotReport, events map[string][]EventNotification, at time.Time) (st slotDelivery) {
	h.mu.Lock()
	// Sorted query order: st.payments is a float sum that feeds
	// EngineMetrics.TotalPayments, so fan-out iterates a reproducible
	// order (floatorder) — which also makes per-slot delivery order
	// deterministic for free.
	h.ids = h.ids[:0]
	for id := range h.topics {
		h.ids = append(h.ids, id)
	}
	slices.Sort(h.ids)
	for _, id := range h.ids {
		t := h.topics[id]
		out := rep.outcome(id)
		res := SlotResult{
			Slot:     rep.Slot,
			Answered: out.Answered,
			Value:    out.Value,
			Payment:  out.Payment,
			Events:   events[id],
		}
		if res.Answered {
			st.answered++
		} else {
			st.starved++
		}
		st.payments += res.Payment

		t.mu.Lock()
		res.Final = rep.Slot >= t.end
		if t.base+len(t.log) == 1 { // only Accepted so far
			h.obs.firstUpdate.Observe(at.Sub(t.acceptedAt).Seconds())
		}
		st.delivered += int64(t.publish(QueryEvent{
			Type: EventSlotUpdate, QueryID: id, Slot: rep.Slot, Result: res, At: at,
		}))
		if res.Final {
			attached, onDone := h.terminate(t, nil, at)
			st.delivered += int64(attached)
			if onDone != nil {
				h.ended = append(h.ended, onDone)
			}
		} else {
			// Reader backlog of a query that stays live: how far each
			// attached cursor is behind the log's tail — the hub-health
			// gauges.
			tail := t.base + len(t.log)
			for _, s := range t.subs {
				lag := tail - s.next
				st.subscribers++
				st.maxLag = max(st.maxLag, lag)
				st.buffered += min(lag, len(t.log))
				st.bufCap += h.bound
			}
		}
		t.mu.Unlock()
	}
	st.active = len(h.topics)
	h.mu.Unlock()
	h.runEnded()
	return st
}

// slotDelivery aggregates one slot's fan-out accounting.
type slotDelivery struct {
	delivered         int64
	answered, starved int64
	payments          float64
	active            int
	// Reader backlog at the end of the fan-out: attached readers, the
	// largest cursor lag, and the retained events still unread over what
	// the logs could retain per reader.
	subscribers, maxLag, buffered, bufCap int
}
