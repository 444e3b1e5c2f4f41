// Command psserve runs the streaming engine as a long-lived HTTP daemon:
// a simulated participatory-sensing world advances one time slot per
// tick, and clients submit queries and poll their per-slot results. The
// HTTP API lives in package serve, the JSON wire format in package wire,
// and the matching Go SDK in package psclient; this command only parses
// flags and wires them together.
//
// Example:
//
//	psserve -addr :8080 -world rwm -sensors 200 -interval 1s
//	curl -s -X POST localhost:8080/query -d \
//	  '{"v":1,"type":"point","loc":{"x":30,"y":30},"budget":15}'
//	curl -s localhost:8080/query/q1
//	curl -s 'localhost:8080/queries?limit=10'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ps "repro"
	"repro/cluster"
	"repro/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		world     = flag.String("world", "rwm", "world: rwm, rnc or intellab")
		sensors   = flag.Int("sensors", 200, "sensor count (rwm world only)")
		seed      = flag.Int64("seed", 1, "world seed")
		interval  = flag.Duration("interval", time.Second, "slot clock interval")
		shards    = flag.Int("shards", 1, "geographic shards; >1 serves slots through the geo-sharded execution layer (the same greedy selection, run per shard)")
		nodeAddrs = flag.String("node-addrs", "", "comma-separated psnode addresses, one per shard (empty entry = in-process): serves slots through the multi-node cluster coordinator")
		queue     = flag.Int("queue", 1024, "ingest queue size")
		drain     = flag.Int("drain", 64, "max slots run at shutdown to drain continuous queries")
		retain    = flag.Duration("retain", 10*time.Minute, "how long finished query records stay pollable (0 = evict at the next sweep)")
		debug     = flag.Bool("debug", false, "mount net/http/pprof and expvar under /debug/")
		logLevel  = flag.String("log", "info", "structured log level: debug, info, warn, error or off")

		rateLimit           = flag.Float64("rate-limit", 0, "per-client submission rate limit in specs/second (0 = unlimited)")
		rateBurst           = flag.Int("rate-burst", 0, "per-client submission burst (0 = one second's worth of -rate-limit)")
		highWater           = flag.Float64("highwater", 0, "ingest-queue admission threshold as a fraction of -queue; submissions 429 past it (0 = disabled)")
		maxStreamsPerClient = flag.Int("max-streams-per-client", 0, "max concurrent /watch streams per client (0 = unlimited)")
		maxStreams          = flag.Int("max-streams", 0, "global cap on concurrent /watch streams; at the cap the greediest client's oldest stream is evicted (0 = unlimited)")
		shed                = flag.Bool("shed", false, "shed the oldest queued submission instead of rejecting new ones when the ingest queue is full")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psserve:", err)
		os.Exit(2)
	}

	w, err := buildWorld(*world, *seed, *sensors)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psserve:", err)
		os.Exit(2)
	}

	engineOpts := []ps.EngineOption{
		ps.WithSlotInterval(*interval),
		ps.WithQueueSize(*queue),
		ps.WithDrainSlots(*drain),
	}
	if *shed {
		engineOpts = append(engineOpts, ps.WithShedOldest())
	}
	if logger != nil {
		engineOpts = append(engineOpts, ps.WithLogger(logger))
	}
	var eng *ps.Engine
	var co *cluster.Coordinator
	if *nodeAddrs != "" {
		co, err = cluster.New(cluster.Config{
			World:     *world,
			Seed:      *seed,
			Sensors:   *sensors,
			Shards:    *shards,
			Nodes:     strings.Split(*nodeAddrs, ","),
			Heartbeat: time.Second,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "psserve:", err)
			os.Exit(2)
		}
		// The engine must drive the coordinator's own world replica.
		w = co.World()
		eng = ps.NewShardedEngine(co.Sharded(), engineOpts...)
	} else if *shards > 1 {
		eng = ps.NewShardedEngine(ps.NewShardedAggregator(w, *shards), engineOpts...)
	} else {
		eng = ps.NewEngine(ps.NewAggregator(w), engineOpts...)
	}
	eng.Start()
	if co != nil {
		co.BindMetrics(eng.Observability())
	}

	// The flag keeps its historical meaning: 0 evicts finished records at
	// the next sweep.
	sopts := serve.Options{
		Retain:              *retain,
		NoRetention:         *retain <= 0,
		Logger:              logger,
		Debug:               *debug,
		RateLimit:           *rateLimit,
		RateBurst:           *rateBurst,
		HighWater:           *highWater,
		MaxStreamsPerClient: *maxStreamsPerClient,
		MaxStreams:          *maxStreams,
	}
	if co != nil {
		sopts.Cluster = co.Membership
	}
	api := serve.New(eng, w, sopts)
	srv := &http.Server{Addr: *addr, Handler: api.Handler()}
	go func() {
		log.Printf("psserve: serving %s world (%d sensors) on %s, slot every %v, %d shard(s)",
			*world, *sensors, *addr, *interval, *shards)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("psserve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("psserve: shutting down")
	// Graceful order: stop accepting and end every watch stream with a
	// terminal server_closing frame, drain the HTTP server (which waits
	// for those streams to unwind), then stop the engine (which finishes
	// in-flight continuous queries up to the drain cap).
	api.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
	cancel()
	eng.Stop()
	if co != nil {
		co.Close()
	}
	log.Print("psserve: bye")
}

// buildLogger maps the -log flag to a text slog.Logger on stderr; "off"
// returns nil (serve and the engine treat nil as disabled).
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "off", "none":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func buildWorld(kind string, seed int64, sensors int) (*ps.World, error) {
	switch strings.ToLower(kind) {
	case "rwm":
		return ps.NewRWMWorld(seed, sensors, ps.SensorConfig{}), nil
	case "rnc":
		return ps.NewRNCWorld(seed, ps.SensorConfig{}), nil
	case "intellab":
		return ps.NewIntelLabWorld(seed, ps.SensorConfig{}), nil
	default:
		return nil, fmt.Errorf("unknown world %q (want rwm, rnc or intellab)", kind)
	}
}
