package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/rng"
)

// ChaosConfig parameterizes the Chaos middleware. All probabilities are
// in [0,1] and default to 0 (no injection). The decision stream is drawn
// from a seeded deterministic generator in request-arrival order, so a
// scenario replays the same fault schedule run to run (modulo arrival
// interleaving under concurrency).
type ChaosConfig struct {
	// Seed seeds the fault schedule.
	Seed int64
	// DelayProb injects a uniform delay in [DelayMin, DelayMax] before
	// the request is handled.
	DelayProb          float64
	DelayMin, DelayMax time.Duration
	// ErrorProb short-circuits the request with a 503 (code
	// "chaos_injected") before it reaches the handler.
	ErrorProb float64
	// DropProb arms a mid-stream connection drop: the response is severed
	// (http.ErrAbortHandler) after between DropAfterMin and DropAfterMax
	// flushes. Handlers that never flush — every non-streaming route —
	// are unaffected, so drops cut /watch streams mid-flight without
	// corrupting request/response routes.
	DropProb                   float64
	DropAfterMin, DropAfterMax int
	// Sleep substitutes the delay sleeper (tests inject a recorder);
	// nil means time.Sleep.
	Sleep func(time.Duration)
}

// Chaos wraps a handler with seeded fault injection — delays, error
// responses, and mid-stream connection drops — for resilience tests
// (psclient's TestStreamSurvivesChaosDrops). It is a plain middleware:
// production servers simply never mount it.
func Chaos(next http.Handler, cfg ChaosConfig) http.Handler {
	r := rng.New(cfg.Seed, "serve-chaos")
	var mu sync.Mutex
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Draw the request's full fault decision under one lock so the
		// schedule is a deterministic function of arrival order.
		mu.Lock()
		var delay time.Duration
		if cfg.DelayProb > 0 && r.Bool(cfg.DelayProb) {
			delay = cfg.DelayMin
			if cfg.DelayMax > cfg.DelayMin {
				delay += time.Duration(r.Float64() * float64(cfg.DelayMax-cfg.DelayMin))
			}
		}
		injectErr := cfg.ErrorProb > 0 && r.Bool(cfg.ErrorProb)
		dropAfter := -1
		if cfg.DropProb > 0 && r.Bool(cfg.DropProb) {
			dropAfter = cfg.DropAfterMin
			if cfg.DropAfterMax > cfg.DropAfterMin {
				dropAfter += r.Intn(cfg.DropAfterMax - cfg.DropAfterMin + 1)
			}
		}
		mu.Unlock()

		if delay > 0 {
			sleep(delay)
		}
		if injectErr {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"chaos: injected fault","code":"chaos_injected"}`)
			return
		}
		if dropAfter >= 0 {
			w = &droppingWriter{ResponseWriter: w, remaining: dropAfter}
		}
		next.ServeHTTP(w, req)
	})
}

// droppingWriter severs the connection after a budgeted number of
// flushes by panicking with http.ErrAbortHandler — the one panic value
// net/http treats as "abort this connection quietly". Streaming handlers
// flush per frame, so the budget is a frame count.
type droppingWriter struct {
	http.ResponseWriter
	remaining int
}

func (d *droppingWriter) Flush() {
	if d.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	d.remaining--
	if f, ok := d.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (d *droppingWriter) Unwrap() http.ResponseWriter { return d.ResponseWriter }
