package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/internal/rng"
	"repro/psclient"
	"repro/serve"
	"repro/wire"
)

// The serve-stream workload: an open loop against engine + serve +
// psclient in which the benchmark is the slot clock. Interval j of the
// schedule spans [T0+j·I, T0+(j+1)·I); its batch POSTs are due at fixed
// offsets inside it and are timed from their due time; the tick at
// T0+(j+1)·I runs the engine slot that serves them. Every latency is
// measured from a due time, so a stall charges the wait to the requests
// behind it, and how late the generator itself ran is reported.
const (
	streamInterval = 25 * time.Millisecond
	streamBatch    = 100 // PointSpecs per POST at most
	// streamLimitMs is the latency limit: a slot's result reaches the
	// client before the next slot starts.
	streamLimitMs = float64(streamInterval / time.Millisecond)
	// A rate that outpaces the system may not stretch the run. A batch more
	// than streamGiveUp behind its due time is not sent and counts as
	// missed; a batch whose verdicts are not back after streamGiveUp is
	// abandoned and counts as refused (the client's retries against a full
	// queue back off for seconds). Ten slots late has missed any limit.
	streamGiveUp = 10 * streamInterval
	// An interval's batches are due at even steps from batchFirst to
	// batchLast of the way through it: after the previous slot has run (so
	// the sender waking up does not compete with it for a core) and early
	// enough for the verdicts to be back before the next tick.
	batchFirst, batchLast = 0.3, 0.8
	streamSensors         = 1000
	streamWarmup          = 20 // intervals at the low rate, charged to setup_s
	streamDrain           = 3  // empty ticks after the schedule, so every query ends
	// A run whose own clock or sender ran late measured the generator, not
	// the system: it fails when lateness at low/mid passes a fifth of the
	// interval at its 95th percentile, or more than maxLateAttach of the
	// watches attached after their slot had run.
	maxLateMs     = 0.2 * streamLimitMs
	maxLateAttach = 0.02
)

// phase is one fixed-rate stretch of the schedule.
type phase struct {
	name  string
	rate  float64 // queries per second
	share float64 // of the measured window
}

// streamPhases are calibrated (README.md has the table) so that on the
// reference box no rate lands within 30 % of the latency limit: low and
// mid sit well under it, high far over (the system's knee is near 16000).
var streamPhases = []phase{
	{"low", 2000, 0.2},
	{"mid", 4000, 0.6},
	{"high", 24000, 0.2},
}

const (
	phaseWarmup = -1
	phaseMid    = 1
)

// batchPlan is one scheduled POST.
type batchPlan struct {
	interval int
	phase    int
	due      time.Duration // from T0
	n        int
}

// streamPlan lays the whole schedule out before the run starts.
func streamPlan(window time.Duration, toy bool) (plan []batchPlan, phaseOf []int) {
	type stretch struct {
		phase int
		rate  float64
		slots int
	}
	warm := streamWarmup
	if toy {
		warm = 2
	}
	stretches := []stretch{{phaseWarmup, streamPhases[0].rate, warm}}
	total := int(window / streamInterval)
	for i, p := range streamPhases {
		stretches = append(stretches, stretch{i, p.rate, max(3, int(float64(total)*p.share))})
	}
	j := 0
	for _, s := range stretches {
		var carry float64
		for k := 0; k < s.slots; k++ {
			carry += s.rate * streamInterval.Seconds()
			n := int(carry)
			carry -= float64(n)
			batches := (n + streamBatch - 1) / streamBatch
			for b := 0; b < batches; b++ {
				size := n / batches
				if b < n%batches {
					size++
				}
				off := batchFirst + (batchLast-batchFirst)*float64(b)/float64(batches)
				plan = append(plan, batchPlan{
					interval: j, phase: s.phase, n: size,
					due: time.Duration((float64(j) + off) * float64(streamInterval)),
				})
			}
			phaseOf = append(phaseOf, s.phase)
			j++
		}
	}
	return plan, phaseOf
}

// phaseStats is what one phase of one repetition measured.
type phaseStats struct {
	submitMs, resultMs, slotMs samples
	genLateMs, tickLateMs      samples
	depth                      []int
	batches, accepted          int
	rejected, missed           int
	watched, lateAttach        int
	streamFail                 int
	durS, answeredPerS         float64
	welfare                    float64 // per slot
	mallocs, allocKiB          float64
}

// streamRep is one repetition of serve-stream.
type streamRep struct {
	setupS float64
	phases []phaseStats // index-aligned with streamPhases
	// The tally covers the rates the system is expected to sustain
	// (warm-up excluded, low and mid) plus the terminal-state check of
	// every accepted query at every rate. The high phase is a deliberate
	// overload probe: its misses decide max_rate_qps, not failed.
	tally

	final ps.EngineMetrics
	layer streamLayer
	// One submitted batch and one received slot_update frame, for the
	// codec probes.
	specs []ps.Spec
	frame wire.EventFrame
}

// streamLayer holds the traced run's per-layer samples.
type streamLayer struct {
	mu                          sync.Mutex
	handlerMs, submitOverheadMs samples
	writeLagMs, streamOverMs    samples
	ingestMs, publishMs         samples
	watchRequests, batchPosts   int64
	reconnects, batchCalls      int64
	admissionRejects            int64 // 429 responses, the status admission control answers with
	finalWritten                map[string]frameWrite
	// The one sender's SubmitBatch call in flight, and how long the handler
	// took for its latest POST: what ties a handler span to its call.
	curBatch    atomic.Pointer[batchCall]
	lastBatchNs atomic.Int64
}

type frameWrite struct{ ts, at int64 }

// batchCall names a SubmitBatch call: its operation id, its span and the
// phase of the schedule it belongs to.
type batchCall struct {
	op    string
	span  int64
	phase int
}

// sustained reports whether failures in this phase count as failed
// operations.
func sustained(phaseIdx int) bool { return phaseIdx >= 0 && streamPhases[phaseIdx].name != "high" }

// middleware is the benchmark's span recorder around the server's handler
// (traced runs only).
type middleware struct {
	next http.Handler
	l    *streamLayer
	tr   *tracer
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/queries:batch":
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		m.next.ServeHTTP(sw, r)
		end := time.Now()
		ns := end.Sub(start).Nanoseconds()
		m.l.lastBatchNs.Store(ns)
		call := m.l.curBatch.Load()
		m.l.mu.Lock()
		m.l.batchPosts++
		if call != nil && call.phase == phaseMid { // read where submit_ms is
			m.l.handlerMs = append(m.l.handlerMs, ms(ns))
		}
		if sw.status == http.StatusTooManyRequests {
			m.l.admissionRejects++
		}
		m.l.mu.Unlock()
		if call != nil {
			m.tr.add("POST /queries:batch", "serve", call.op, call.span, start, end)
		}
	case "/watch":
		m.l.mu.Lock()
		m.l.watchRequests++
		m.l.mu.Unlock()
		m.next.ServeHTTP(&lagWriter{ResponseWriter: w, l: m.l}, r)
	default:
		m.next.ServeHTTP(w, r)
	}
}

// statusWriter remembers the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

// lagWriter sees each /watch frame at the moment the server writes it.
type lagWriter struct {
	http.ResponseWriter
	l *streamLayer
}

func (lw *lagWriter) Write(p []byte) (int, error) {
	now := time.Now().UnixNano()
	if f, err := wire.DecodeEventFrame(bytes.TrimSpace(p)); err == nil && f.Event == wire.FrameFinal {
		lw.l.mu.Lock()
		lw.l.finalWritten[f.ID] = frameWrite{ts: f.TS, at: now}
		lw.l.mu.Unlock()
	}
	return lw.ResponseWriter.Write(p)
}

func (lw *lagWriter) Flush() {
	if f, ok := lw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// pick hands one accepted query to a watcher.
type pick struct {
	id       string
	interval int
}

// sleepUntil returns at t, not a timer tick after it: it sleeps to within
// spinLead of t and yields in a loop for the rest. A plain time.Sleep
// overshoots by about a millisecond on the reference box, which would be
// a third of every latency measured from a due time.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinLead = 1500 * time.Microsecond

// streamRun is one repetition in flight: the serving stack, the schedule
// and what the three kinds of actor (slot clock, submitter, watchers)
// share.
type streamRun struct {
	cfg     runConfig
	tr      *tracer
	eng     *ps.Engine
	client  *psclient.Client
	t0      time.Time
	phaseOf []int // phase of each interval

	mu       sync.Mutex // guards rep's phases and counters, and accepted
	rep      *streamRep
	accepted map[string]bool

	// The slot clock's snapshots at the current phase's first tick.
	before    ps.EngineMetrics
	memBefore runtime.MemStats
}

// due is when interval j's slot is due to run: the end of the interval.
func (r *streamRun) due(interval int) time.Time {
	return r.t0.Add(time.Duration(interval+1) * streamInterval)
}

// inPhase updates a phase's stats; warm-up intervals are not recorded.
func (r *streamRun) inPhase(p int, f func(*phaseStats)) {
	if p < 0 {
		return
	}
	r.mu.Lock()
	f(&r.rep.phases[p])
	r.mu.Unlock()
}

// attempt counts one operation at a rate the system is expected to
// sustain, and its failure if any.
func (r *streamRun) attempt(p int, failure error, format string, args ...any) {
	if !sustained(p) {
		return
	}
	r.mu.Lock()
	r.rep.check(failure == nil, format, args...)
	r.mu.Unlock()
}

// maxOverrun bounds how long the clock keeps ticking past the schedule
// while the submitter and watchers finish.
const maxOverrun = 10 * time.Second

// runStreamRep boots the serving stack, runs the schedule and verifies
// every accepted query.
func runStreamRep(cfg runConfig, window time.Duration, tr *tracer) (*streamRep, error) {
	rep := &streamRep{phases: make([]phaseStats, len(streamPhases))}
	rep.layer.finalWritten = map[string]frameWrite{}
	plan, phaseOf := streamPlan(window, cfg.toy)
	sensors := streamSensors
	if cfg.toy {
		sensors = 300
	}

	setupStart := time.Now()
	world := ps.NewRWMWorld(cfg.seed, sensors, ps.SensorConfig{Lifetime: unlimitedLifetime})
	// The one deviation from the defaults: SchedulingOptimal's BILP does
	// not finish a 100-point slot over 1000 sensors in minutes.
	eng := ps.NewEngine(ps.NewAggregator(world, ps.WithScheduling(ps.SchedulingGreedy)))
	eng.Start()
	defer eng.Stop()
	srv := serve.New(eng, world, serve.Options{})
	handler := srv.Handler()
	if tr != nil {
		handler = &middleware{next: handler, l: &rep.layer, tr: tr}
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	defer srv.Shutdown()
	client, err := psclient.Dial(ts.URL)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	r := &streamRun{
		cfg: cfg, tr: tr, eng: eng, client: client, phaseOf: phaseOf,
		t0: time.Now().Add(5 * time.Millisecond), rep: rep, accepted: map[string]bool{},
	}
	picks := make([]chan pick, max(1, runtime.NumCPU()-1))
	var wg sync.WaitGroup
	for w := range picks {
		picks[w] = make(chan pick, 1) // the newest query on offer to this watcher
		wg.Add(1)
		go func(ch <-chan pick) {
			defer wg.Done()
			for p := range ch {
				r.watch(ctx, p)
			}
		}(picks[w])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.submit(ctx, plan, newDemand(cfg.seed, "stream", world.Working), picks)
		for _, ch := range picks {
			close(ch)
		}
	}()

	// The slot clock runs on this goroutine. It keeps ticking until the
	// submitter and the watchers are done (an overloaded high phase leaves
	// the submitter behind schedule), then drains, so every accepted query
	// gets the slot that ends it.
	actorsDone := make(chan struct{})
	go func() { wg.Wait(); close(actorsDone) }()
	fail := func(err error) (*streamRep, error) {
		cancel()
		<-actorsDone
		return nil, err
	}
	for k, drain := 0, streamDrain; drain > 0; k++ {
		if err := r.tick(k); err != nil {
			return fail(err)
		}
		if k+1 >= len(phaseOf) {
			select {
			case <-actorsDone:
				drain--
			default:
				if time.Since(r.due(len(phaseOf))) > maxOverrun {
					return fail(fmt.Errorf("submitter or watchers still busy %v after the schedule ended", maxOverrun))
				}
			}
		}
		if k+1 < len(phaseOf) && phaseOf[k] == phaseWarmup && phaseOf[k+1] != phaseWarmup {
			rep.setupS = time.Since(setupStart).Seconds()
		}
	}
	rep.final = eng.Metrics()
	if err := verifyTerminal(ctx, client, r.accepted, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// submit is the single sender: it posts each planned batch at its due
// time, records how late it was and how long the verdicts took from the
// due time, and offers one accepted query per interval to each watcher.
func (r *streamRun) submit(ctx context.Context, plan []batchPlan, d *demand, picks []chan pick) {
	pickRnd := rng.New(r.cfg.seed, "benchmark-stream-picks")
	picked := -1
	for bi, b := range plan {
		specs := make([]ps.Spec, b.n)
		for i := range specs {
			specs[i] = ps.PointSpec{ID: fmt.Sprintf("q%d-%d", bi, i), Loc: d.loc(), Budget: 10 + d.rnd.Uniform(0, 20)}
		}
		if r.rep.specs == nil {
			r.rep.specs = specs
		}
		at := r.t0.Add(b.due)
		sleepUntil(at)
		start := time.Now()
		if start.Sub(at) > streamGiveUp {
			r.inPhase(b.phase, func(p *phaseStats) { p.missed++ })
			continue
		}
		call := &batchCall{op: fmt.Sprintf("batch-%d", bi), span: r.tr.reserve(), phase: b.phase}
		r.rep.layer.curBatch.Store(call)
		callCtx, cancel := context.WithTimeout(ctx, streamGiveUp)
		results, err := r.client.SubmitBatch(callCtx, specs)
		cancel()
		end := time.Now()
		var ok []string
		for _, res := range results {
			if res.Status == "accepted" {
				ok = append(ok, res.ID)
			}
		}
		rejected := b.n - len(ok)
		r.mu.Lock()
		for _, id := range ok {
			r.accepted[id] = true
		}
		r.mu.Unlock()
		var failure error
		if err != nil || rejected > 0 {
			failure = fmt.Errorf("%d rejected: %v", rejected, err)
		}
		r.attempt(b.phase, failure, "interval %d: batch of %d: %v", b.interval, b.n, failure)
		r.inPhase(b.phase, func(p *phaseStats) {
			p.batches++
			p.accepted += len(ok)
			p.rejected += rejected
			p.genLateMs = append(p.genLateMs, ms(start.Sub(at).Nanoseconds()))
			p.submitMs = append(p.submitMs, ms(end.Sub(at).Nanoseconds()))
		})
		if r.tr != nil {
			r.tr.record(call.span, "SubmitBatch", "psclient", call.op, 0, start, end)
			l := &r.rep.layer
			l.mu.Lock()
			l.batchCalls++
			if b.phase == phaseMid {
				// One sender, so the handler span recorded last is this call's.
				l.submitOverheadMs = append(l.submitOverheadMs, ms(end.Sub(start).Nanoseconds()-l.lastBatchNs.Load()))
			}
			l.mu.Unlock()
		}
		if b.interval != picked && len(ok) > 0 {
			picked = b.interval
			for _, ch := range picks {
				select {
				case ch <- pick{ok[pickRnd.Intn(len(ok))], b.interval}:
				default: // that watcher has not taken the last offer yet
				}
			}
		}
	}
}

// tick is the slot clock's k-th beat: at interval k's due time it runs one
// engine slot and records lateness, duration and the queue depth it
// found; at phase boundaries it snapshots the counters the phase's totals
// are deltas of.
func (r *streamRun) tick(k int) error {
	at := r.due(k)
	sleepUntil(at)
	depth, _ := r.eng.QueueStats()
	start := time.Now()
	for {
		err := r.eng.RunSlots(1)
		if err == nil {
			break
		}
		if !errors.Is(err, ps.ErrQueueFull) {
			return fmt.Errorf("tick %d: %w", k, err)
		}
		time.Sleep(200 * time.Microsecond) // the tick shares the ingest queue
	}
	end := time.Now()
	if k >= len(r.phaseOf) {
		return nil
	}
	p := r.phaseOf[k]
	r.inPhase(p, func(s *phaseStats) {
		s.tickLateMs = append(s.tickLateMs, ms(start.Sub(at).Nanoseconds()))
		s.slotMs = append(s.slotMs, ms(end.Sub(start).Nanoseconds()))
		s.depth = append(s.depth, depth)
	})
	r.attempt(p, nil, "")
	if r.tr != nil && p == phaseMid {
		op := fmt.Sprintf("slot-%d", k)
		parent := r.tr.add("RunSlots", "engine", op, 0, start, end)
		stageAt := start
		l := &r.rep.layer
		for _, st := range r.eng.Metrics().SlotStages {
			layer := "aggregator"
			switch st.Stage {
			case ps.StageIngest:
				layer = "engine"
				l.ingestMs = append(l.ingestMs, ms(st.Last.Nanoseconds()))
			case ps.StagePublish:
				layer = "hub"
				l.publishMs = append(l.publishMs, ms(st.Last.Nanoseconds()))
			case ps.StageSelection:
				layer = "core"
			}
			r.tr.add(st.Stage, layer, op, parent, stageAt, stageAt.Add(st.Last))
			stageAt = stageAt.Add(st.Last)
		}
	}
	if p < 0 {
		return nil
	}
	if k == 0 || r.phaseOf[k-1] != p { // the phase's first tick
		r.before = r.eng.Metrics()
		if p == phaseMid {
			runtime.ReadMemStats(&r.memBefore)
		}
	}
	if k+1 == len(r.phaseOf) || r.phaseOf[k+1] != p { // its last
		after := r.eng.Metrics()
		var mem runtime.MemStats
		if p == phaseMid {
			runtime.ReadMemStats(&mem)
		}
		r.inPhase(p, func(s *phaseStats) {
			// The snapshots follow the phase's first tick and its last, so
			// the deltas span one slot fewer than the phase.
			between := float64(len(s.slotMs) - 1)
			s.durS = float64(len(s.slotMs)) * streamInterval.Seconds()
			s.answeredPerS = float64(after.Answered-r.before.Answered) / (between * streamInterval.Seconds())
			s.welfare = (after.TotalWelfare - r.before.TotalWelfare) / between
			if p == phaseMid {
				s.mallocs = float64(mem.Mallocs-r.memBefore.Mallocs) / between
				s.allocKiB = float64(mem.TotalAlloc-r.memBefore.TotalAlloc) / 1024 / between
			}
		})
	}
	return nil
}

// watch follows one accepted query over /watch to its final frame.
func (r *streamRun) watch(ctx context.Context, p pick) {
	phaseIdx := r.phaseOf[p.interval]
	connect := time.Now()
	st := r.client.Stream(p.id)
	defer st.Close()
	var finalAt time.Time
	var update wire.EventFrame
	finals, late := 0, false
	var failure error
	for {
		f, err := st.Next(ctx)
		if errors.Is(err, psclient.ErrStreamEnded) {
			break
		}
		if err != nil {
			failure = err
			break
		}
		if f.Event == wire.FrameSlotUpdate {
			update = f
			if f.TS < connect.UnixNano() {
				late = true // the slot had already run: this is replay, not push
			}
		}
		if f.Terminal() {
			finalAt = time.Now()
			finals++
			if f.Event != wire.FrameFinal {
				failure = fmt.Errorf("terminal frame %s (%s)", f.Event, f.Error)
			}
		}
	}
	if failure == nil && finals != 1 {
		failure = fmt.Errorf("%d terminal frames", finals)
	}
	r.inPhase(phaseIdx, func(s *phaseStats) {
		s.watched++
		if failure != nil {
			s.streamFail++
			return
		}
		// A watch that attached late is still a sample: its final frame came
		// by replay, and the client held it that long after the slot was due.
		if late {
			s.lateAttach++
		}
		s.resultMs = append(s.resultMs, ms(finalAt.Sub(r.due(p.interval)).Nanoseconds()))
	})
	r.attempt(phaseIdx, failure, "watch %s: %v", p.id, failure)
	if r.tr == nil {
		return
	}
	if finalAt.IsZero() {
		finalAt = time.Now() // the stream failed before a terminal frame
	}
	op := "watch-" + p.id
	stream := r.tr.add("Stream.Next..final", "psclient", op, 0, connect, finalAt)
	l := &r.rep.layer
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reconnects += st.Stats().Reconnects
	r.rep.frame = update
	if w, ok := l.finalWritten[p.id]; ok {
		r.tr.add("final frame write", "serve", op, stream, time.Unix(0, w.ts), time.Unix(0, w.at))
		if failure == nil && phaseIdx == phaseMid {
			l.writeLagMs = append(l.writeLagMs, ms(w.at-w.ts))
			l.streamOverMs = append(l.streamOverMs, ms(finalAt.UnixNano()-w.at))
		}
	}
	delete(l.finalWritten, p.id)
}

// verifyTerminal pages through GET /queries and checks that every
// accepted query ended with exactly one result and a terminal state.
func verifyTerminal(ctx context.Context, client *psclient.Client, accepted map[string]bool, rep *streamRep) error {
	seen := 0
	for offset := 0; ; {
		list, err := client.Queries(ctx, offset, 1000)
		if err != nil {
			return fmt.Errorf("list queries at %d: %w", offset, err)
		}
		for _, q := range list.Queries {
			if !accepted[q.ID] {
				continue
			}
			seen++
			rep.check(q.Done && q.Results == 1, "query %s: done=%v with %d results, want one terminal state", q.ID, q.Done, q.Results)
		}
		offset += list.Count
		if list.Count == 0 || offset >= list.Total {
			break
		}
	}
	rep.check(seen == len(accepted), "%d accepted queries, %d in the registry", len(accepted), seen)
	return nil
}

// meetsLimit reports whether phase p of one repetition met the latency
// limit with no growing backlog and nothing refused.
func (rep *streamRep) meetsLimit(p int) bool {
	s := rep.phases[p]
	if s.rejected > 0 || s.missed > 0 || s.streamFail > 0 || len(s.depth) < 3 {
		return false
	}
	// Backlog: the ingest queue at the phase's end may sit at most one
	// slot of submissions above where it was a third of the way in, and
	// the generator may not be falling further behind.
	perSlot := int(streamPhases[p].rate * streamInterval.Seconds())
	third := len(s.depth) / 3
	if s.depth[len(s.depth)-1] > s.depth[third]+perSlot {
		return false
	}
	lateThird := len(s.genLateMs) / 3
	if lateThird > 0 && s.genLateMs[len(s.genLateMs)-lateThird:].median()-s.genLateMs[:lateThird].median() > maxLateMs {
		return false
	}
	return len(s.resultMs) > 0 && s.resultMs.pct(0.95) <= streamLimitMs
}

// maxRate is the highest fixed rate the repetition sustained, 0 if none.
func (rep *streamRep) maxRate() float64 {
	var best float64
	for p, ph := range streamPhases {
		if rep.meetsLimit(p) {
			best = max(best, ph.rate)
		}
	}
	return best
}

// runStream runs serve-stream: reps repetitions, the last traced when
// cfg.trace is set, then the replay probes.
func runStream(cfg runConfig) (*result, error) {
	window := time.Duration(cfg.seconds / reps * float64(time.Second))
	var tr *tracer
	all := make([]*streamRep, 0, reps)
	for i := 0; i < reps; i++ {
		var repTracer *tracer
		if cfg.trace && i == reps-1 {
			tr = newTracer()
			repTracer = tr
		}
		rep, err := runStreamRep(cfg.rep(i), window, repTracer)
		if err != nil {
			return nil, fmt.Errorf("serve-stream repetition %d: %w", i, err)
		}
		all = append(all, rep)
	}

	var t tally
	for _, rep := range all {
		t.absorb(rep.tally)
	}
	pool := func(reps []*streamRep, p int, f func(*phaseStats) samples) samples {
		var s samples
		for _, rep := range reps {
			s = append(s, f(&rep.phases[p])...)
		}
		return s
	}
	// Generator health: a run whose own clock or sender ran late at the
	// rates the system sustains measured the generator, not the system.
	var watched, lateAttach int
	var genLate samples
	for p := range streamPhases {
		if !sustained(p) {
			continue
		}
		genLate = append(genLate, pool(all, p, func(s *phaseStats) samples { return s.genLateMs })...)
		genLate = append(genLate, pool(all, p, func(s *phaseStats) samples { return s.tickLateMs })...)
		for _, rep := range all {
			watched += rep.phases[p].watched
			lateAttach += rep.phases[p].lateAttach
		}
	}
	if !cfg.toy { // a toy run is too short for timing checks to mean anything
		t.check(genLate.pct(0.95) <= maxLateMs, "generator ran %.2f ms late at p95 at low/mid, over a fifth of the interval", genLate.pct(0.95))
		t.check(float64(lateAttach) <= maxLateAttach*float64(watched), "%d of %d watches attached after their slot ran", lateAttach, watched)
	}

	m := metricSet{}
	untraced := all
	if cfg.trace {
		untraced = all[:len(all)-1]
		traced := all[len(all)-1:]
		base := pool(untraced, phaseMid, func(s *phaseStats) samples { return s.resultMs }).median()
		if base > 0 {
			m["trace_overhead_pct"] = 100 * (pool(traced, phaseMid, func(s *phaseStats) samples { return s.resultMs }).median() - base) / base
		}
		streamLayerMetrics(m, all, genLate, lateAttach)
		if err := streamProbes(m, cfg, traced[0]); err != nil {
			return nil, err
		}
		if err := tr.write("trace-serve-stream.ndjson"); err != nil {
			return nil, err
		}
	}

	// The headline numbers, read at mid over the untraced repetitions.
	mid := func(f func(*phaseStats) samples) samples { return pool(untraced, phaseMid, f) }
	var setup, perS, welfare, mallocs, kib samples
	for _, rep := range untraced {
		s := rep.phases[phaseMid]
		setup = append(setup, rep.setupS)
		perS = append(perS, s.answeredPerS)
		welfare = append(welfare, s.welfare)
		mallocs = append(mallocs, s.mallocs)
		kib = append(kib, s.allocKiB)
	}
	m["setup_s"] = setup.median()
	m["query_slots_per_s"] = perS.median()
	latencies(m, mid(func(s *phaseStats) samples { return s.slotMs }),
		mid(func(s *phaseStats) samples { return s.submitMs }), mid(func(s *phaseStats) samples { return s.resultMs }))
	m["allocs_per_slot"] = mallocs.mean()
	m["alloc_kb_per_slot"] = kib.mean()
	m["welfare_per_slot"] = welfare.median()
	return finish("serve-stream", cfg, m, t), nil
}

// streamLayerMetrics fills serve-stream's per-layer table: spans and
// program-reported values from the traced repetition, per-phase rates
// from all of them.
func streamLayerMetrics(m metricSet, all []*streamRep, genLate samples, lateAttach int) {
	traced := all[len(all)-1]
	l := &traced.layer
	m["serve.batch_handler_ms_p50"] = l.handlerMs.median()
	m["serve.batch_handler_ms_p95"] = l.handlerMs.pct(0.95)
	m["serve.watch_write_lag_ms_p50"] = l.writeLagMs.median()
	m["serve.watch_write_lag_ms_p95"] = l.writeLagMs.pct(0.95)
	m["serve.watch_requests"] = float64(l.watchRequests)
	m["serve.admission_rejects"] = float64(l.admissionRejects)
	m["psclient.submit_overhead_ms_p50"] = l.submitOverheadMs.median()
	m["psclient.stream_overhead_ms_p50"] = l.streamOverMs.median()
	m["psclient.retries"] = float64(l.batchPosts - l.batchCalls)
	m["psclient.reconnects"] = float64(l.reconnects)
	m["engine.ingest_ms_p50"] = l.ingestMs.median()
	m["hub.publish_ms_p50"] = l.publishMs.median()

	var depth samples
	for _, d := range traced.phases[phaseMid].depth {
		depth = append(depth, float64(d))
	}
	m["engine.queue_depth_p95"] = depth.pct(0.95)
	if len(depth) > 0 {
		m["engine.queue_depth_end"] = depth[len(depth)-1]
	}
	f := traced.final
	m["engine.rejected"] = float64(f.QueriesRejected)
	m["engine.shed"] = float64(f.QueriesShed)
	m["hub.events_delivered"] = float64(f.EventsDelivered)
	m["hub.events_dropped"] = float64(f.EventsDropped)
	m["hub.gap_events"] = float64(f.GapEvents)
	m["core.valuation_calls"] = float64(f.ValuationCalls)
	m["core.exhaustive_equiv_calls"] = float64(f.ValuationCalls + f.ValuationCallsSaved)
	if total := f.ValuationCalls + f.ValuationCallsSaved; total > 0 {
		m["core.prune_ratio"] = float64(f.ValuationCallsSaved) / float64(total)
	}
	m["core.lazy_reevals"] = float64(f.LazyReevaluations)
	m["core.fallback_rescans"] = float64(f.FallbackRescans)
	m["core.submodularity_violations"] = float64(f.SubmodularityViolations)
	m["core.rounds"] = float64(f.SensorsUsed)
	for _, st := range f.SlotStages {
		if st.Stage == ps.StageSelection && f.ValuationCalls > 0 {
			m["core.ns_per_valuation"] = float64(st.Total.Nanoseconds()) / float64(f.ValuationCalls)
		}
	}

	// Each repetition gives its own verdict on the highest rate it sustained
	// and the run reports the median, so one stall of the box (they reach
	// 300 ms here) in one repetition does not halve the metric.
	var maxRate samples
	for _, rep := range all {
		maxRate = append(maxRate, rep.maxRate())
	}
	m["max_rate_qps"] = maxRate.median()

	m["gen.late_ms_p95"] = genLate.pct(0.95)
	m["gen.late_attach"] = float64(lateAttach)
	for p, ph := range streamPhases {
		var result samples
		var accepted int
		var durS float64
		for _, rep := range all {
			result = append(result, rep.phases[p].resultMs...)
			accepted += rep.phases[p].accepted
			durS += rep.phases[p].durS
		}
		m["rate."+ph.name+".result_ms_p95"] = result.pct(0.95)
		m["rate."+ph.name+".achieved_qps"] = float64(accepted) / durS
	}
}
