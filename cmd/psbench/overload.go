package main

// The overload-soak scenario: the degradation benchmark. Where
// streaming-fanout proves the happy path (everything admitted, every
// frame on time), this scenario proves the unhappy one: a fleet of
// clients offers roughly twice the admitted capacity against a
// deliberately small shed-oldest ingest queue, behind the chaos
// middleware injecting delays, 503s and mid-stream watch drops. The
// gates are about *graceful* failure, not throughput: the run must not
// deadlock, memory must stay bounded, every layer of the degradation
// ladder (per-client rate limiting, queue high-water 429s, engine
// shed-oldest) must actually fire and be visible in /metrics, and —
// the accounting gate — every single accepted query must still reach a
// terminal frame with cursor-exact slot coverage, shed queries included.
//
// The scenario is intentionally NOT part of "-scenario all": it is a
// soak, its numbers are not comparable run-to-run, and its gates are
// booleans. Run it by name; -slots overrides the soak length for the
// reduced-scale CI configuration.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"context"
	"encoding/json"
	"path/filepath"

	ps "repro"
	"repro/internal/rng"
	"repro/psclient"
	"repro/serve"
	"repro/wire"
)

// overloadScenario is one named overload workload.
type overloadScenario struct {
	Name     string
	Desc     string
	Seed     int64
	Sensors  int
	Interval time.Duration // slot interval
	Slots    int           // soak length in slots (-slots overrides)
	// Offered load: every Interval each of Clients bursts
	// PerClientPerSlot point submissions simultaneously.
	Clients          int
	PerClientPerSlot int
	// Admission configuration. RateLimit is set to about half the
	// per-client offered rate, making the offered load ~2x what
	// admission control will pass.
	RateLimit float64
	RateBurst int
	Queue     int     // deliberately small ingest queue (shed-oldest)
	HighWater float64 // queue-depth admission threshold
	// Background continuous queries that keep slot execution busy so
	// submission bursts genuinely race a occupied loop.
	Continuous int
	Watchers   int // concurrent watcher goroutines draining streams
	Chaos      serve.ChaosConfig
}

var overloadScenarios = []overloadScenario{
	{
		Name: "overload-soak",
		Desc: "16 clients offer 2x their admitted rate against a 4-slot shed-oldest queue under chaos (delays, 503s, stream drops); gates: no deadlock, bounded memory, sheds+rejects visible in /metrics, exact accounting for every accepted query",
		Seed: 23, Sensors: 3000,
		Interval: 50 * time.Millisecond, Slots: 120,
		Clients: 16, PerClientPerSlot: 6,
		RateLimit: 60, RateBurst: 6,
		// A queue smaller than one client's batch of 6: an admitted batch
		// overflows it unless the loop drains as fast as the handler
		// enqueues, so shedding does not depend on the loop being slow.
		// (At 8 the soak leaned on a per-query consumer goroutine
		// competing with the loop for a core; without it the loop kept up
		// and two runs in five shed nothing.)
		Queue: 4, HighWater: 0.75,
		Continuous: 400, Watchers: 48,
		Chaos: serve.ChaosConfig{
			Seed:      23,
			DelayProb: 0.05, DelayMin: time.Millisecond, DelayMax: 4 * time.Millisecond,
			ErrorProb: 0.03,
			DropProb:  0.2, DropAfterMin: 3, DropAfterMax: 9,
		},
	},
}

func overloadScenarioByName(name string) (overloadScenario, bool) {
	for _, sc := range overloadScenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return overloadScenario{}, false
}

// overloadBenchResult is the machine-readable record of one overload
// soak (BENCH_<scenario>.json). The absolute counts are machine- and
// timing-dependent; the invariants the gates check are not.
type overloadBenchResult struct {
	Scenario       string  `json:"scenario"`
	Description    string  `json:"description"`
	Seed           int64   `json:"seed"`
	Sensors        int     `json:"sensors"`
	Clients        int     `json:"clients"`
	Slots          int     `json:"slots"`
	SlotIntervalMs float64 `json:"slot_interval_ms"`
	// Offered-load accounting from the submitting clients' view.
	Offered          int64 `json:"offered"`
	Accepted         int64 `json:"accepted"`
	RateLimited429   int64 `json:"rate_limited_429"`
	QueuePressure429 int64 `json:"queue_pressure_429"`
	ChaosRejected    int64 `json:"chaos_rejected"`
	// Stream-side accounting: every accepted query ends in exactly one
	// of these two buckets.
	FinalsObserved int64 `json:"finals_observed"`
	ShedObserved   int64 `json:"shed_observed"`
	// Engine- and metrics-side accounting the observed counts must match.
	EngineShed       int64              `json:"engine_shed"`
	EngineSubmitted  int64              `json:"engine_submitted"`
	AdmissionRejects map[string]float64 `json:"admission_rejects"`
	PrometheusShed   float64            `json:"prometheus_shed"`
	Reconnects       int64              `json:"reconnects"`
	GapFrames        int64              `json:"gap_frames"`
	Welfare          float64            `json:"welfare"`
	SlotMsAvg        float64            `json:"slot_ms_avg"`
	EngineSlots      int                `json:"engine_slots"`
	HeapGrowthMB     float64            `json:"heap_growth_mb"`
	WallS            float64            `json:"wall_s"`
	GoVersion        string             `json:"go_version"`
}

// runOverloadScenario executes one overload soak and returns its record
// plus the exit code contribution (0 ok, 1 gate failed).
func runOverloadScenario(sc overloadScenario, slotsOverride int) (overloadBenchResult, int) {
	slots := sc.Slots
	if slotsOverride > 0 {
		slots = slotsOverride
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	world := ps.NewRWMWorld(sc.Seed, sc.Sensors, ps.SensorConfig{})
	// The exact point policy (the paper's BILP) is the right engine here:
	// its per-slot cost grows superlinearly with demand, so a fleet
	// offering 2x capacity genuinely occupies the loop and submission
	// bursts race a busy queue instead of an idle drain.
	eng := ps.NewEngine(
		ps.NewAggregator(world),
		ps.WithSlotInterval(sc.Interval),
		ps.WithQueueSize(sc.Queue),
		ps.WithShedOldest(),
	)
	eng.Start()
	api := serve.New(eng, world, serve.Options{
		Strategy:  ps.StrategyAuto,
		RateLimit: sc.RateLimit,
		RateBurst: sc.RateBurst,
		HighWater: sc.HighWater,
	})
	inner := api.Handler()
	ts := httptest.NewServer(serve.Chaos(inner, sc.Chaos))
	defer func() {
		ts.Close()
		eng.Stop()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var (
		failMu  sync.Mutex
		failMsg string
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if failMsg == "" {
			failMsg = fmt.Sprintf(format, args...)
		}
		failMu.Unlock()
		cancel()
	}

	// Background continuous queries: admitted while the engine is idle,
	// they give every slot real selection work for the whole soak. The
	// background fleet spreads its submissions over many client IDs, each
	// staying inside its burst: it is scenery, not the load under test,
	// and must not spend the soak blocked on its own Retry-After hints.
	httpc := &http.Client{}
	bgDial := func(i int) (*psclient.Client, error) {
		return psclient.Dial(ts.URL, psclient.WithRetry(6, 5*time.Millisecond),
			psclient.WithHTTPClient(httpc),
			psclient.WithClientID(fmt.Sprintf("background-%02d", i)))
	}
	rnd := rng.New(sc.Seed, "psbench-"+sc.Name)
	wk := world.Working
	offeredTotal := sc.Clients * sc.PerClientPerSlot * slots
	ids := make(chan string, offeredTotal+sc.Continuous)
	bgPerClient := max(1, sc.RateBurst)
	for i := 0; i < sc.Continuous; i++ {
		bg, err := bgDial(i / bgPerClient)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return overloadBenchResult{}, 1
		}
		q, err := bg.Submit(ctx, ps.LocationMonitoringSpec{
			ID:  fmt.Sprintf("os-bg-%d", i),
			Loc: ps.Pt(rnd.Uniform(wk.MinX, wk.MaxX), rnd.Uniform(wk.MinY, wk.MaxY)),
			// Continuous work spans the soak and ends with it, so the
			// watcher drain below also observes these finals.
			Duration: slots, Budget: 500, Samples: 3,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench: overload background submit:", err)
			return overloadBenchResult{}, 1
		}
		ids <- q.ID
	}

	var (
		offered, accepted, rateRejects, queueRejects, chaosRejects atomic.Int64
		finals, sheds, reconnects                                  atomic.Int64
	)

	// Watcher pool: drains every accepted query's event stream to its
	// terminal frame through the chaos middleware, verifying cursor-exact
	// coverage on finals and a clean shed verdict on evictions.
	wc, err := psclient.Dial(ts.URL, psclient.WithRetry(10, 2*time.Millisecond),
		psclient.WithClientID("watchers"),
		psclient.WithHTTPClient(&http.Client{Transport: &http.Transport{
			MaxIdleConns:        sc.Watchers,
			MaxIdleConnsPerHost: sc.Watchers,
		}}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "psbench:", err)
		return overloadBenchResult{}, 1
	}
	var watchers sync.WaitGroup
	for w := 0; w < sc.Watchers; w++ {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for id := range ids {
				if !watchOne(ctx, wc, id, &finals, &sheds, &reconnects, fail) {
					return
				}
			}
		}()
	}

	// Load fleet: every client bursts its whole per-slot allotment at
	// each wave, simultaneously with every other client — worst-case
	// contention on the admission checks and the tiny ingest queue. The
	// coordinator delays each wave by a random phase within the interval
	// so bursts sample the engine's busy windows too, not just whatever
	// fixed alignment the tickers happened to start with: a burst landing
	// mid-slot races a loop that cannot drain, which is exactly the
	// condition that drives the queue past high-water and into shedding.
	start := time.Now()
	waves := make([]chan int, sc.Clients)
	for c := range waves {
		waves[c] = make(chan int, 1)
	}
	go func() {
		wrnd := rng.New(sc.Seed, "overload-phase")
		tick := time.NewTicker(sc.Interval)
		defer tick.Stop()
		for s := 0; s < slots; s++ {
			select {
			case <-tick.C:
			case <-ctx.Done():
				break
			}
			phase := time.Duration(wrnd.Uniform(0, 0.8*float64(sc.Interval)))
			select {
			case <-time.After(phase):
			case <-ctx.Done():
			}
			for _, ch := range waves {
				select {
				case ch <- s:
				default: // client still busy with the last wave: skip it
				}
			}
		}
		for _, ch := range waves {
			close(ch)
		}
	}()
	var fleet sync.WaitGroup
	for c := 0; c < sc.Clients; c++ {
		fleet.Add(1)
		go func(c int) {
			defer fleet.Done()
			cl, err := psclient.Dial(ts.URL, psclient.WithRetry(0, time.Millisecond),
				psclient.WithClientID(fmt.Sprintf("load-%02d", c)))
			if err != nil {
				fail("dial load client: %v", err)
				return
			}
			crnd := rng.New(sc.Seed, fmt.Sprintf("overload-load-%d", c))
			for s := range waves[c] {
				// The whole allotment goes up as one batch: admission
				// charges and checks the batch as a unit, so an admitted
				// batch's specs enqueue back-to-back — the arrival pattern
				// that can legitimately push the ingest queue past its
				// high-water headroom and into engine-level shedding.
				specs := make([]ps.Spec, 0, sc.PerClientPerSlot)
				for i := 0; i < sc.PerClientPerSlot; i++ {
					specs = append(specs, ps.PointSpec{
						ID:     fmt.Sprintf("os-%d-%d-%d", c, s, i),
						Loc:    ps.Pt(crnd.Uniform(wk.MinX, wk.MaxX), crnd.Uniform(wk.MinY, wk.MaxY)),
						Budget: 8 + crnd.Uniform(0, 10),
					})
				}
				offered.Add(int64(len(specs)))
				verdicts, err := cl.SubmitBatch(ctx, specs)
				if err == nil {
					for _, v := range verdicts {
						switch {
						case v.Status == "accepted":
							accepted.Add(1)
							ids <- v.ID
						case v.Code == wire.CodeQueueFull || v.Code == wire.CodeShed:
							queueRejects.Add(1)
						default:
							fail("batch verdict %s: %s (%s)", v.ID, v.Error, v.Code)
							return
						}
					}
					continue
				}
				n := int64(len(specs))
				var apiErr *psclient.APIError
				switch {
				case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests && apiErr.Code == wire.CodeRateLimited:
					rateRejects.Add(n)
				case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests:
					queueRejects.Add(n) // high-water or engine queue_full
				case errors.As(err, &apiErr) && apiErr.Code == "chaos_injected":
					chaosRejects.Add(n)
				case ctx.Err() != nil:
					return
				default:
					fail("batch os-%d-%d: %v", c, s, err)
					return
				}
			}
		}(c)
	}
	fleet.Wait()
	close(ids)
	watchers.Wait()
	wall := time.Since(start)

	failMu.Lock()
	msg := failMsg
	failMu.Unlock()
	if msg != "" {
		fmt.Fprintln(os.Stderr, "psbench: overload soak:", msg)
		return overloadBenchResult{}, 1
	}

	// Scrape the admission counters from the Prometheus exposition via
	// the inner (chaos-free) handler: the scrape itself must not flake.
	prom := scrapePrometheus(inner)
	admission := map[string]float64{}
	for name, v := range prom {
		if reason, ok := strings.CutPrefix(name, `ps_admission_rejects_total{reason="`); ok {
			admission[strings.TrimSuffix(reason, `"}`)] = v
		}
	}

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapGrowth := float64(after.HeapAlloc) - float64(before.HeapAlloc)

	m := eng.Metrics()
	res := overloadBenchResult{
		Scenario:         sc.Name,
		Description:      sc.Desc,
		Seed:             sc.Seed,
		Sensors:          sc.Sensors,
		Clients:          sc.Clients,
		Slots:            slots,
		SlotIntervalMs:   float64(sc.Interval.Nanoseconds()) / 1e6,
		Offered:          offered.Load(),
		Accepted:         accepted.Load() + int64(sc.Continuous),
		RateLimited429:   rateRejects.Load(),
		QueuePressure429: queueRejects.Load(),
		ChaosRejected:    chaosRejects.Load(),
		FinalsObserved:   finals.Load(),
		ShedObserved:     sheds.Load(),
		EngineShed:       m.QueriesShed,
		EngineSubmitted:  m.QueriesSubmitted,
		AdmissionRejects: admission,
		PrometheusShed:   prom["ps_shed_total"],
		Reconnects:       reconnects.Load(),
		GapFrames:        m.GapEvents,
		Welfare:          m.TotalWelfare,
		SlotMsAvg:        float64(m.SlotLatencyAvg.Nanoseconds()) / 1e6,
		EngineSlots:      m.Slots,
		HeapGrowthMB:     heapGrowth / (1 << 20),
		WallS:            wall.Seconds(),
		GoVersion:        runtime.Version(),
	}

	exit := 0
	gate := func(ok bool, format string, args ...any) {
		if !ok {
			fmt.Fprintf(os.Stderr, "psbench: REGRESSION %s: %s\n", sc.Name, fmt.Sprintf(format, args...))
			exit = 1
		}
	}
	// Accounting exactness: every accepted query reached a terminal
	// frame, and the client-observed shed verdicts equal the engine's own
	// shed count equals the /metrics counter — a shed never corrupts
	// accounting or strands a watcher.
	gate(res.FinalsObserved+res.ShedObserved == res.Accepted,
		"%d finals + %d sheds observed != %d accepted queries", res.FinalsObserved, res.ShedObserved, res.Accepted)
	gate(res.ShedObserved == res.EngineShed,
		"watchers observed %d shed verdicts but the engine shed %d", res.ShedObserved, res.EngineShed)
	gate(res.PrometheusShed == float64(res.EngineShed),
		"ps_shed_total %.0f != engine QueriesShed %d", res.PrometheusShed, res.EngineShed)
	// Every rung of the degradation ladder fired.
	gate(res.EngineShed > 0, "no submissions shed: the soak never pressured the ingest queue")
	gate(res.RateLimited429 > 0, "no rate_limited 429s: offered load never exceeded the per-client limit")
	gate(admission["rate_limit"] > 0, "ps_admission_rejects_total{reason=rate_limit} = %v, want > 0", admission["rate_limit"])
	gate(res.Reconnects > 0, "chaos drops forced no stream reconnects")
	// Welfare degrades smoothly: still a finite, sane number.
	gate(!math.IsNaN(res.Welfare) && !math.IsInf(res.Welfare, 0) && res.Welfare >= 0,
		"welfare %v is not a sane finite value", res.Welfare)
	// Bounded memory: soaking at 2x load must not accumulate state.
	gate(res.HeapGrowthMB < 256, "heap grew %.1f MB over the soak", res.HeapGrowthMB)
	return res, exit
}

// watchOne follows one query's stream to its terminal frame, verifying
// cursor-exact coverage for finals and accepting only a shed verdict for
// cancellations. Returns false when the watcher should stop.
func watchOne(ctx context.Context, wc *psclient.Client, id string, finals, sheds, reconnects *atomic.Int64, fail func(string, ...any)) bool {
	st := wc.Stream(id)
	defer func() {
		reconnects.Add(st.Stats().Reconnects)
		st.Close()
	}()
	var start, end int
	var windowKnown bool
	covered := map[int]int{}
	for {
		ev, err := st.Next(ctx)
		if err != nil {
			fail("watch %s: %v", id, err)
			return false
		}
		switch ev.Event {
		case wire.FrameAccepted:
			start, end, windowKnown = ev.Start, ev.End, true
		case wire.FrameSlotUpdate:
			covered[ev.Slot]++
		case wire.FrameGap:
			for s := ev.From; s <= ev.To; s++ {
				covered[s]++
			}
		case wire.FrameCanceled:
			if ev.Code != wire.CodeShed {
				fail("watch %s: canceled with code %q, want only shed cancellations", id, ev.Code)
				return false
			}
			sheds.Add(1)
			return true
		case wire.FrameFinal:
			if !windowKnown {
				fail("watch %s: final without an accepted frame", id)
				return false
			}
			for s := start; s <= end; s++ {
				if covered[s] != 1 {
					fail("watch %s: slot %d covered %d times, want exactly once", id, s, covered[s])
					return false
				}
			}
			for s := range covered {
				if s < start || s > end {
					fail("watch %s: slot %d outside window [%d,%d]", id, s, start, end)
					return false
				}
			}
			finals.Add(1)
			return true
		default:
			if ev.Terminal() {
				fail("watch %s: unexpected terminal %s (%s)", id, ev.Event, ev.Error)
				return false
			}
		}
	}
}

// scrapePrometheus renders the exposition through the given handler and
// returns every sample keyed by its full series name (labels included).
func scrapePrometheus(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prometheus", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// runOverloadScenarioMode prints, records and gates one overload
// scenario; it mirrors runStreamScenarioMode's contract.
func runOverloadScenarioMode(sc overloadScenario, slotsOverride int, emitJSON bool, outDir string) int {
	start := time.Now()
	res, exit := runOverloadScenario(sc, slotsOverride)
	if res.Scenario == "" {
		return 1
	}
	fmt.Printf("== %s (%d sensors, %v slots x %d, %d clients) — %s\n",
		res.Scenario, res.Sensors, sc.Interval, res.Slots, res.Clients, sc.Desc)
	fmt.Printf("%-26s %d offered, %d accepted, %d rate-limited, %d queue-pressure 429s, %d chaos 503s\n",
		"admission:", res.Offered, res.Accepted, res.RateLimited429, res.QueuePressure429, res.ChaosRejected)
	fmt.Printf("%-26s %d finals + %d sheds observed (engine shed %d, submitted %d)\n",
		"terminals:", res.FinalsObserved, res.ShedObserved, res.EngineShed, res.EngineSubmitted)
	fmt.Printf("%-26s rejects %v, ps_shed_total %.0f, %d reconnects, %d gap frames\n",
		"observability:", res.AdmissionRejects, res.PrometheusShed, res.Reconnects, res.GapFrames)
	fmt.Printf("%-26s welfare %.1f, slot avg %.2fms over %d slots, heap +%.1f MB\n",
		"degradation:", res.Welfare, res.SlotMsAvg, res.EngineSlots, res.HeapGrowthMB)
	fmt.Printf("%-26s %.1fs wall\n", "duration:", res.WallS)

	if emitJSON {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		path := filepath.Join(outDir, benchFileName(res.Scenario))
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "psbench:", err)
			return 1
		}
		fmt.Printf("%-26s %s\n", "json:", path)
	}
	fmt.Printf("-- %s done in %v\n\n", res.Scenario, time.Since(start).Round(time.Millisecond))
	return exit
}
