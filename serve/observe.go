package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// discardLogger is the Options.Logger default: structured logging is
// opt-in, and a nil check at every call site is worse than a no-op
// handler. (slog.DiscardHandler exists but only from Go 1.24; the CI
// matrix still builds with 1.23.)
func discardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// discardHandler enables no level, so a record is dropped before it is
// built, let alone formatted.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// logAccepted and logFinished are the query-lifecycle records, correlated
// by query_id: one when the engine took the submission, one when the
// query's stream ended. Both check the level first — building a record's
// arguments allocates even when the handler then drops it — so they cost
// nothing on the default logger; logFinished runs on the engine's event
// loop.
func (s *Server) logAccepted(rec *queryRecord) {
	if s.log.Enabled(context.Background(), slog.LevelInfo) {
		s.log.Info("query accepted", "query_id", rec.id, "type", rec.typ)
	}
}

func (s *Server) logFinished(rec *queryRecord) {
	if !s.log.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	if err := rec.getHandle().Err(); err != nil {
		s.log.Info("query canceled", "query_id", rec.id, "error", err.Error())
		return
	}
	s.log.Info("query finished", "query_id", rec.id)
}

// serverObs holds the HTTP-layer metric handles. They are registered on
// the engine's registry so GET /metrics exposes one unified family set;
// registration is get-or-create, so building two servers over one engine
// shares the handles.
type serverObs struct {
	requests *obs.CounterVec   // ps_http_requests_total{route,code}
	duration *obs.HistogramVec // ps_http_request_duration_seconds{route}
	inflight *obs.Gauge        // ps_http_requests_inflight
	build    *obs.GaugeVec     // ps_build_info{version,revision,goversion}

	admissionRejects *obs.CounterVec // ps_admission_rejects_total{reason}
	watchEvictions   *obs.Counter    // ps_watch_evictions_total
}

func newServerObs(reg *obs.Registry) *serverObs {
	o := &serverObs{
		requests: reg.CounterVec("ps_http_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"route", "code"),
		duration: reg.HistogramVec("ps_http_request_duration_seconds",
			"HTTP request duration by route pattern. Streaming routes (watch) measure the full stream lifetime.",
			obs.DurationBuckets, "route"),
		inflight: reg.Gauge("ps_http_requests_inflight",
			"HTTP requests currently being served."),
		build: reg.GaugeVec("ps_build_info",
			"Build identity of the serving binary; the value is always 1.",
			"version", "revision", "goversion"),
		admissionRejects: reg.CounterVec("ps_admission_rejects_total",
			"Requests rejected by serve-layer admission control before reaching the engine, by reason (rate_limit, queue_pressure, stream_cap).",
			"reason"),
		watchEvictions: reg.Counter("ps_watch_evictions_total",
			"Watch streams evicted by the fair-share policy to admit a new stream at the global cap."),
	}
	v, r, g := buildIdentity()
	o.build.With(v, r, g).Set(1)
	return o
}

// buildIdentity reports the main module version, the VCS revision the Go
// toolchain stamped in, and the runtime's Go version. Version and
// revision are empty when build info is unavailable (e.g. non-module
// test binaries).
func buildIdentity() (version, revision, goVersion string) {
	goVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", "", goVersion
	}
	version = bi.Main.Version
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return version, revision, goVersion
}

// statusWriter records the status code written through it. It forwards
// Flush so streaming handlers (watch) keep working behind the metrics
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps the route mux with per-route request metrics and
// structured request logging. The route label is the mux's registered
// pattern (e.g. "GET /query/{id}"), so path parameters never explode
// label cardinality; unrouted requests fall under "other".
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := "other"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		sw := &statusWriter{ResponseWriter: w}
		s.obs.inflight.Add(1)
		start := time.Now()
		// Account in a defer — WITHOUT recover — so a handler panic still
		// propagates (chaos injection severs streams by panicking with
		// http.ErrAbortHandler) but cannot leak the inflight gauge or lose
		// the request from the counters.
		defer func() {
			dur := time.Since(start)
			s.obs.inflight.Add(-1)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			s.obs.requests.With(route, strconv.Itoa(sw.status)).Inc()
			s.obs.duration.With(route).Observe(dur.Seconds())
			s.log.Info("http request",
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration", dur,
				"query_id", requestQueryID(r),
			)
		}()
		mux.ServeHTTP(sw, r)
	})
}

// requestQueryID extracts the query ID a request is about, for log
// correlation: the ?id= parameter (watch) or the {id} path element of
// /query/{id}. Empty when the request isn't query-scoped.
func requestQueryID(r *http.Request) string {
	if id := r.URL.Query().Get("id"); id != "" {
		return id
	}
	if rest, ok := strings.CutPrefix(r.URL.Path, "/query/"); ok && !strings.Contains(rest, "/") {
		return rest
	}
	return ""
}

// wantsPrometheus reports whether GET /metrics should serve the
// Prometheus text exposition instead of the JSON metrics document: an
// explicit ?format=prometheus, or an Accept header asking for text/plain
// (what Prometheus scrapers send) or OpenMetrics.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}
