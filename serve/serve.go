// Package serve implements the psserve HTTP API over a streaming
// ps.Engine: query submission (single and batch), server-pushed result
// streams, polling, cancellation, registry listing and engine metrics.
// The cmd/psserve daemon is a thin flag-parsing wrapper around it; tests
// and the psclient SDK run the same handler behind net/http/httptest.
//
// Endpoints:
//
//	POST   /query          submit a query (legacy or v1-envelope JSON
//	                       body, see package wire)
//	POST   /queries:batch  submit up to wire.MaxBatch specs in one
//	                       request; per-spec accept/reject verdicts
//	GET    /watch?id=&cursor=
//	                       server-pushed event stream (NDJSON, or SSE
//	                       with Accept: text/event-stream): v2 frames
//	                       accepted → slot_update* → final|canceled,
//	                       resumable from a slot cursor after reconnect
//	GET    /query/{id}     status + accumulated per-slot results (poll)
//	DELETE /query/{id}     cancel a pending or continuous query
//	GET    /queries        paginated registry listing (?offset=&limit=)
//	GET    /metrics        engine-wide metrics snapshot (incl. event
//	                       delivery and valuation-call counters)
//	GET    /healthz        liveness + current slot
//
// Graceful shutdown: Server.Shutdown refuses new submissions (503 with
// code "server_closing") and ends every open watch stream with a
// terminal server_closing frame; the daemon then drains the HTTP server
// and stops the engine.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ps "repro"
	"repro/wire"
)

// Options configures a Server.
type Options struct {
	// Retain is how long finished query records stay pollable; zero or
	// negative means the 10-minute default. Set NoRetention to disable
	// retention entirely.
	Retain time.Duration
	// NoRetention makes finished records evict at the next sweep instead
	// of being retained for polling.
	NoRetention bool
	// Strategy is the selection strategy the engine was built with,
	// displayed by /metrics.
	Strategy ps.Strategy
	// Logger receives structured request and query-lifecycle logs. Nil
	// discards them.
	Logger *slog.Logger
	// Debug mounts the net/http/pprof handlers and expvar under
	// /debug/. Off by default: the profiling surface can stall the
	// process (heap dumps, 30s CPU profiles) and belongs behind an
	// explicit operator decision.
	Debug bool

	// RateLimit bounds each client's sustained submission rate
	// (specs/second, batch entries each count one) with a token bucket
	// keyed by X-Client-ID or source address. Over-limit submissions get
	// 429 (code "rate_limited") with a Retry-After covering the token
	// deficit. Zero disables rate limiting.
	RateLimit float64
	// RateBurst is the token bucket's capacity — the instantaneous burst
	// a client may submit after idling. Zero defaults to max(1,
	// RateLimit), i.e. one second's worth.
	RateBurst int
	// HighWater, in (0,1], is the ingest-queue admission threshold:
	// submissions are rejected with 429 (code "queue_full") + Retry-After
	// once the engine's queue depth reaches HighWater x capacity, before
	// they race the queue's last slots. Zero disables the check.
	HighWater float64
	// MaxStreamsPerClient caps one client's concurrent /watch streams
	// (429, code "rate_limited", when exceeded). Zero means unlimited.
	MaxStreamsPerClient int
	// MaxStreams caps concurrent /watch streams across all clients. At
	// the cap, admitting a new stream evicts the oldest stream of the
	// client holding the most (fair share): the evicted SDK reconnects
	// and resumes from its cursor, missed frames surface as gaps. Zero
	// means unlimited.
	MaxStreams int

	// Cluster, when the engine fronts a multi-node cluster, reports the
	// coordinator's membership view (typically cluster.Coordinator's
	// Membership method); /healthz includes it. Nil for single-process
	// deployments.
	Cluster func() []wire.ClusterMember
}

// Server owns the HTTP-side query registry. A record holds its query's
// engine handle and nothing else of the stream: the handle pins the
// query's event log, and watch streams (replay after a cursor, then live
// follow), polling and listing all read that one log, so slow or absent
// HTTP consumers never touch the slot clock. Finished records stay
// pollable for the retention window, then are evicted by an amortized
// sweep on the submit path — the registry stays bounded on a long-lived
// daemon.
type Server struct {
	eng    *ps.Engine
	world  *ps.World
	retain time.Duration
	autoID atomic.Int64
	// strategy names the engine's configured selection strategy for
	// /metrics.
	strategy string

	log     *slog.Logger
	obs     *serverObs
	adm     *admission
	cluster func() []wire.ClusterMember
	start   time.Time
	debug   bool

	// closing is closed by Shutdown: submissions 503 and watch streams
	// end with a server_closing frame.
	closing   chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	queries map[string]*queryRecord
	submits int

	// finished queues the records whose stream ended, oldest doneAt
	// first, for the sweep. finMu also guards every queued record's
	// doneAt. Lock order: mu before finMu before a record's mu.
	finMu    sync.Mutex
	finished []*queryRecord
}

// sweepEvery is how many submissions pass between eviction sweeps.
const sweepEvery = 256

// defaultListLimit and maxListLimit bound GET /queries pages.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// noCursor is the watch cursor meaning "from the beginning".
const noCursor = math.MinInt32

// New builds a Server over a started engine and its world.
func New(eng *ps.Engine, world *ps.World, opts Options) *Server {
	retain := opts.Retain
	if retain <= 0 {
		retain = 10 * time.Minute
	}
	if opts.NoRetention {
		retain = 0
	}
	logger := opts.Logger
	if logger == nil {
		logger = discardLogger()
	}
	s := &Server{
		eng:      eng,
		world:    world,
		retain:   retain,
		strategy: opts.Strategy.String(),
		log:      logger,
		obs:      newServerObs(eng.Observability()),
		cluster:  opts.Cluster,
		start:    time.Now(),
		debug:    opts.Debug,
		closing:  make(chan struct{}),
		queries:  make(map[string]*queryRecord),
	}
	s.adm = newAdmission(opts, eng.QueueStats)
	s.adm.onEvict = func(client string) {
		s.obs.watchEvictions.Inc()
		s.log.Info("watch stream evicted", "client", client, "reason", "fair_share")
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleSubmit)
	mux.HandleFunc("POST /queries:batch", s.handleBatch)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("GET /query/{id}", s.handleGet)
	mux.HandleFunc("DELETE /query/{id}", s.handleCancel)
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.debug {
		// pprof.Index serves the whole /debug/pprof/ subtree (heap,
		// goroutine, block, ...); the named handlers below are the ones
		// Index cannot dispatch itself.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /debug/vars", expvar.Handler())
	}
	return s.instrument(mux)
}

// Shutdown transitions the server into draining: new submissions are
// refused with 503 (code "server_closing") and every open watch stream
// is ended with a terminal server_closing frame. Call it before
// http.Server.Shutdown — which then waits for the streams to unwind —
// and before Engine.Stop. Idempotent.
func (s *Server) Shutdown() {
	s.closeOnce.Do(func() { close(s.closing) })
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// sweepLocked evicts finished records past the retention window: the
// expired prefix of the finished queue, whatever the registry's size. It
// returns how many queue entries it looked at. Caller holds s.mu.
func (s *Server) sweepLocked() (visited int) {
	cutoff := time.Now().Add(-s.retain)
	s.finMu.Lock()
	defer s.finMu.Unlock()
	for visited < len(s.finished) && s.finished[visited].doneAt.Before(cutoff) {
		// A finished ID may have been reused since; only the record that
		// expired leaves the registry.
		if rec := s.finished[visited]; s.queries[rec.id] == rec {
			delete(s.queries, rec.id)
		}
		s.finished[visited] = nil
		visited++
	}
	s.finished = s.finished[visited:]
	return visited
}

// finish marks rec's stream over and queues it for the sweep. It is the
// handle's OnDone callback, so it usually runs on the engine's event
// loop: two short critical sections and, for a caller-supplied logger,
// the lifecycle record.
func (s *Server) finish(rec *queryRecord) {
	s.finMu.Lock()
	rec.mu.Lock()
	rec.done, rec.doneAt = true, time.Now()
	rec.mu.Unlock()
	s.finished = append(s.finished, rec)
	s.finMu.Unlock()
	s.logFinished(rec)
}

// queryRecord is one query on the HTTP side: its identity, its engine
// handle — through which every endpoint reads the query's event log — and
// whether the stream ended.
type queryRecord struct {
	id  string
	typ string

	mu sync.Mutex
	// handle is nil while the submission is still registering with the
	// engine.
	handle *ps.QueryHandle
	done   bool
	doneAt time.Time
}

func (r *queryRecord) isDone() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

func (r *queryRecord) getHandle() *ps.QueryHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.handle
}

// nextAutoID returns the next server-assigned query ID, skipping every
// ID with an existing registry record: a live client-chosen one would
// 409 a request that never picked an ID, and a finished-but-retained one
// would be silently clobbered mid-retention. (A client racing to claim
// the returned ID before the reservation happens can still conflict; the
// counter only ever moves forward, so a retry gets a fresh ID.)
func (s *Server) nextAutoID() string {
	for {
		id := fmt.Sprintf("q%d", s.autoID.Add(1))
		s.mu.Lock()
		_, taken := s.queries[id]
		s.mu.Unlock()
		if !taken {
			return id
		}
	}
}

// submitEnvelope is the shared single-spec submission path behind
// POST /query and POST /queries:batch: decode, validate, reserve the
// registry slot, submit to the engine, hand the record its handle. It
// returns the (possibly server-assigned) query ID, the HTTP status a
// standalone submission maps to, and the error.
func (s *Server) submitEnvelope(env wire.Envelope) (id string, status int, err error) {
	if env.ID == "" {
		env.ID = s.nextAutoID()
	}
	spec, err := env.Spec()
	if err != nil {
		return env.ID, http.StatusBadRequest, err
	}
	// Validate up front so the client gets a synchronous rejection
	// instead of an accepted ID whose stream opens just to fail. The
	// world's static configuration (GP model, bounds) is immutable, so
	// reading it off the loop goroutine is safe.
	if err := spec.Validate(s.world); err != nil {
		return env.ID, http.StatusBadRequest, err
	}
	id = spec.QueryID()

	// Reserve the registry slot before submitting so a duplicate ID can
	// never orphan a live query's record; finished IDs may be reused.
	rec := &queryRecord{id: id, typ: spec.Kind().String()}
	s.mu.Lock()
	old := s.queries[id]
	if old != nil && !old.isDone() {
		s.mu.Unlock()
		return id, http.StatusConflict, fmt.Errorf("query %q already exists: %w", id, ps.ErrDuplicateQueryID)
	}
	s.queries[id] = rec
	s.submits++
	if s.submits%sweepEvery == 0 {
		s.sweepLocked()
	}
	s.mu.Unlock()

	h, err := s.eng.Submit(spec)
	if err != nil {
		// Put back whatever was reserved over — a failed submission must
		// not evict a finished record still inside its retention window.
		s.mu.Lock()
		if old != nil {
			s.queries[id] = old
		} else {
			delete(s.queries, id)
		}
		s.mu.Unlock()
		status := http.StatusBadRequest
		if errors.Is(err, ps.ErrQueueFull) {
			status = http.StatusTooManyRequests
		} else if errors.Is(err, ps.ErrEngineStopped) {
			status = http.StatusServiceUnavailable
		}
		return id, status, err
	}
	// The server reads the log through fresh cursors, never through the
	// handle's own: detach it, so it counts neither as a reader nor as a
	// lagging one.
	h.Subscription().Close()
	rec.mu.Lock()
	rec.handle = h
	rec.mu.Unlock()
	s.logAccepted(rec)
	h.OnDone(func() { s.finish(rec) })
	return id, http.StatusAccepted, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isClosing() {
		httpErrorCoded(w, http.StatusServiceUnavailable, wire.CodeServerClosing, "server closing")
		return
	}
	// Admission runs before the body is even decoded: an over-limit or
	// over-pressure client costs one map lookup, not a JSON parse plus an
	// engine round trip.
	client := clientKey(r)
	if ra, ok := s.adm.admitSubmit(client, 1); !ok {
		s.obs.admissionRejects.With("rate_limit").Inc()
		s.httpTooMany(w, wire.CodeRateLimited, ra, "client %q over its submission rate limit", client)
		return
	}
	if ra, ok := s.adm.admitQueue(); !ok {
		s.obs.admissionRejects.With("queue_pressure").Inc()
		s.httpTooMany(w, wire.CodeQueueFull, ra, "ingest queue past high-water mark: %v", ps.ErrQueueFull)
		return
	}
	var env wire.Envelope
	if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	id, status, err := s.submitEnvelope(env)
	if err != nil {
		if status == http.StatusTooManyRequests {
			// The engine itself pushed back (queue full, or admitted then
			// shed); tell the client how long the queue needs to drain.
			w.Header().Set("Retry-After", retryAfterSeconds(s.adm.pressureRetryAfter()))
		}
		httpErrorCoded(w, status, wire.ErrorCode(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, wire.SubmitAck{ID: id, Status: "accepted"})
}

// handleBatch serves POST /queries:batch: N submission envelopes in one
// request, each accepted or rejected independently. The HTTP status is
// 200 whenever the batch itself is well-formed; per-spec verdicts (with
// stable error codes) are index-aligned with the request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.isClosing() {
		httpErrorCoded(w, http.StatusServiceUnavailable, wire.CodeServerClosing, "server closing")
		return
	}
	var req wire.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.V != 0 && req.V != wire.Version2 {
		httpError(w, http.StatusBadRequest, "unsupported batch version %d (this build speaks v%d)", req.V, wire.Version2)
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, `empty batch: no "queries"`)
		return
	}
	if len(req.Queries) > wire.MaxBatch {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds the %d-spec limit", len(req.Queries), wire.MaxBatch)
		return
	}
	// A batch charges the token bucket one token per entry — splitting a
	// burst across batches must not dodge the rate limit.
	client := clientKey(r)
	if ra, ok := s.adm.admitSubmit(client, len(req.Queries)); !ok {
		s.obs.admissionRejects.With("rate_limit").Inc()
		s.httpTooMany(w, wire.CodeRateLimited, ra, "client %q over its submission rate limit", client)
		return
	}
	if ra, ok := s.adm.admitQueue(); !ok {
		s.obs.admissionRejects.With("queue_pressure").Inc()
		s.httpTooMany(w, wire.CodeQueueFull, ra, "ingest queue past high-water mark: %v", ps.ErrQueueFull)
		return
	}
	resp := wire.BatchResponse{V: wire.Version2, Results: make([]wire.BatchResult, 0, len(req.Queries))}
	for _, env := range req.Queries {
		id, _, err := s.submitEnvelope(env)
		if err != nil {
			resp.Rejected++
			resp.Results = append(resp.Results, wire.BatchResult{
				ID: id, Status: "rejected", Code: wire.ErrorCode(err), Error: err.Error(),
			})
			continue
		}
		resp.Accepted++
		resp.Results = append(resp.Results, wire.BatchResult{ID: id, Status: "accepted"})
	}
	w.Header().Set("Content-Type", "application/json")
	// A 200 batch can still carry retryable per-spec rejections
	// (queue_full/shed); give the retrying client the same queue-pressure
	// hint a standalone 429 would carry.
	for _, res := range resp.Results {
		if res.Status != "accepted" && wire.RetryableCode(res.Code) {
			w.Header().Set("Retry-After", retryAfterSeconds(s.adm.pressureRetryAfter()))
			break
		}
	}
	writeJSON(w, resp)
}

// frameWriter writes v2 event frames in the negotiated stream format
// (NDJSON by default, SSE when the client asked for text/event-stream)
// and flushes after every frame so push latency is one frame, not one
// buffer.
type frameWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	sse bool
	err error
}

func (fw *frameWriter) write(f wire.EventFrame) bool {
	if fw.err != nil {
		return false
	}
	buf, err := wire.MarshalEventFrame(f)
	if err != nil {
		fw.err = err
		return false
	}
	if fw.sse {
		_, fw.err = fmt.Fprintf(fw.w, "data: %s\n\n", buf)
	} else {
		_, fw.err = fmt.Fprintf(fw.w, "%s\n", buf)
	}
	if fw.err == nil {
		fw.fl.Flush()
	}
	return fw.err == nil
}

// handleWatch serves GET /watch?id=...&cursor=...: the query's event
// stream, pushed as NDJSON lines (or SSE events). One cursor on the
// query's event log serves both halves — the retained events after the
// client's cursor, then the live tail — so no event can fall between
// replay and live, and a client reconnecting with its last cursor misses
// nothing the log still retains (anything older surfaces as one gap
// frame). The stream ends with the query's terminal frame, or with a
// server_closing frame on graceful shutdown.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, `missing "id"`)
		return
	}
	cursor := noCursor
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		c, err := strconv.Atoi(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad cursor %q", raw)
			return
		}
		cursor = c
	}
	var h *ps.QueryHandle
	if rec := s.record(id); rec != nil {
		h = rec.getHandle()
	}
	if h == nil {
		// No record, or one whose submission has not reached the engine
		// yet: either way no client has been told the ID exists.
		httpErrorCoded(w, http.StatusNotFound, wire.CodeUnknownQuery, "unknown query %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	// Register the stream with admission control under a cancelable
	// context: fair-share eviction cancels it, the client sees its stream
	// end, reconnects with its cursor, and anything missed surfaces as a
	// gap frame — degradation, not data corruption.
	client := clientKey(r)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	release, ra, admitted := s.adm.admitStream(client, cancel)
	if !admitted {
		s.obs.admissionRejects.With("stream_cap").Inc()
		s.httpTooMany(w, wire.CodeRateLimited, ra, "client %q at its concurrent watch-stream cap", client)
		return
	}
	defer release()

	fw := &frameWriter{w: w, fl: fl, sse: strings.Contains(r.Header.Get("Accept"), "text/event-stream")}
	if fw.sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	sub := h.Watch(cursor)
	defer sub.Close()
	ready := sub.Ready()
	for {
		ev, ok := sub.Next()
		if !ok && sub.Done() {
			// The stream ended without a terminal event: the submission
			// never went live (shed, or a duplicate ID that raced past the
			// registry reservation).
			ev, ok = ps.QueryEvent{Type: ps.EventCanceled, QueryID: id, Err: sub.Err()}, true
		}
		if !ok {
			select {
			case <-ready:
			case <-ctx.Done():
				return
			case <-s.closing:
				fw.write(wire.ServerClosingFrame())
				return
			}
			continue
		}
		f, err := wire.FrameFromEvent(ev)
		if err != nil {
			continue
		}
		if !fw.write(f) || f.Terminal() {
			return
		}
	}
}

func (s *Server) record(id string) *queryRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		httpErrorCoded(w, http.StatusNotFound, wire.CodeUnknownQuery, "unknown query %q", r.PathValue("id"))
		return
	}
	resp := wire.QueryStatus{ID: rec.id, Type: rec.typ, Results: []wire.Result{}}
	if h := rec.getHandle(); h != nil {
		// Read the log like a watcher from the beginning would. Done and
		// Error come from the same read, not from the record: the handle's
		// OnDone marks the record only after the terminal event is
		// published, so a client that has just read the final frame off
		// /watch would otherwise see done:false here.
		sub := h.Watch(noCursor)
		accepted := false
		var cause error
		for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
			switch ev.Type {
			case ps.EventAccepted:
				accepted = true
			case ps.EventSlotUpdate:
				resp.Results = append(resp.Results, wire.ResultFromSlot(ev.Result))
			case ps.EventGap:
				// Results inside a gap are unavailable to the polling
				// endpoint; the gap also covers the accepted event when
				// that is gone.
				resp.ResultsTruncated += ev.Dropped
			case ps.EventFinal, ps.EventCanceled:
				resp.Done, cause = true, ev.Err
			}
		}
		if !resp.Done && sub.Done() {
			// The stream ended without a terminal event: the submission
			// never went live.
			resp.Done, cause = true, sub.Err()
		}
		sub.Close()
		if !accepted && resp.ResultsTruncated > 0 {
			resp.ResultsTruncated--
		}
		if cause != nil {
			resp.Error = cause.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, resp)
}

// handleList serves GET /queries: one page of the registry ordered by
// query ID, so operators can enumerate live queries instead of guessing
// IDs. ?offset= and ?limit= paginate; limit defaults to 100, is capped
// at 1000, and limit=0 returns an empty page with the total only.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	offset, err := queryInt(r, "offset", 0)
	if err != nil || offset < 0 {
		httpError(w, http.StatusBadRequest, "bad offset %q", r.URL.Query().Get("offset"))
		return
	}
	limit, err := queryInt(r, "limit", defaultListLimit)
	if err != nil || limit < 0 {
		httpError(w, http.StatusBadRequest, "bad limit %q", r.URL.Query().Get("limit"))
		return
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}

	s.mu.Lock()
	recs := make([]*queryRecord, 0, len(s.queries))
	for _, rec := range s.queries {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })

	list := wire.QueryList{Total: len(recs), Offset: offset, Queries: []wire.QuerySummary{}}
	if offset < len(recs) && limit > 0 {
		page := recs[offset:]
		if len(page) > limit {
			page = page[:limit]
		}
		for _, rec := range page {
			sum := wire.QuerySummary{ID: rec.id, Type: rec.typ, Done: rec.isDone()}
			if h := rec.getHandle(); h != nil {
				sum.Results = h.Updates()
			}
			list.Queries = append(list.Queries, sum)
		}
	}
	list.Count = len(list.Queries)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, list)
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		httpErrorCoded(w, http.StatusNotFound, wire.CodeUnknownQuery, "unknown query %q", r.PathValue("id"))
		return
	}
	h := rec.getHandle()
	if h == nil {
		httpError(w, http.StatusConflict, "query %q still registering", rec.id)
		return
	}
	if rec.isDone() {
		httpError(w, http.StatusGone, "query %q already finished", rec.id)
		return
	}
	if err := h.Cancel(); err != nil {
		httpErrorCoded(w, http.StatusServiceUnavailable, wire.ErrorCode(err), "cancel: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, wire.SubmitAck{ID: rec.id, Status: "canceling"})
}

// handleMetrics serves the engine metrics in two representations from
// one endpoint: the JSON document (default, unchanged wire format) and
// the Prometheus text exposition, selected by Accept: text/plain (what
// a Prometheus scrape sends) or ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.eng.Observability().WritePrometheus(w); err != nil {
			log.Printf("serve: write prometheus exposition: %v", err)
		}
		return
	}
	m := wire.MetricsFrom(s.eng.Metrics(), s.strategy)
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, m)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.eng.Metrics()
	version, revision, goVersion := buildIdentity()
	h := wire.Healthz{
		OK:            !s.isClosing(),
		Slots:         m.Slots,
		QueueDepth:    m.QueueDepth,
		Version:       version,
		Revision:      revision,
		GoVersion:     goVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.cluster != nil {
		h.Cluster = s.cluster()
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, h)
}

func writeJSON(w http.ResponseWriter, v any) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCoded(w, status, "", format, args...)
}

// httpTooMany writes a 429 with a Retry-After hint derived from the
// admission decision (token deficit or queue pressure).
func (s *Server) httpTooMany(w http.ResponseWriter, code string, retryAfter time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	httpErrorCoded(w, http.StatusTooManyRequests, code, format, args...)
}

// httpErrorCoded writes an ErrorBody carrying the stable machine-
// readable code (empty codes are omitted from the JSON).
func httpErrorCoded(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, wire.ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}
