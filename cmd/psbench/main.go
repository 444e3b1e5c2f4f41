// Command psbench regenerates the paper's figures: for every figure of
// the evaluation section (Figs 2-10), the §4.7 trust experiment and the
// ablations, it runs the corresponding simulation and prints the x/series
// rows the paper plots.
//
// With -algorithm it runs one point-query simulation instead, calling one
// of the §3.1 point schedulers directly on each slot's offers as the
// figure sweeps do, and prints per-slot metrics plus a summary. -dataset,
// -budget, -queries, -lifetime, -privacy and -linear-energy shape that
// run; -slots and -seed apply to both modes.
//
// Timing lives elsewhere: the repository benchmark (./benchmark, see
// benchmark/README.md) measures the serving stack end to end.
//
// Usage:
//
//	psbench -figure all            # everything (several minutes)
//	psbench -figure fig2           # one figure at paper scale
//	psbench -figure fig3 -slots 10 # reduced horizon
//	psbench -list                  # list figure IDs
//	psbench -algorithm optimal -dataset rwm -budget 15 -queries 300
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		figure    = flag.String("figure", "all", "figure ID to regenerate, or 'all'")
		slots     = flag.Int("slots", 0, "simulation slots (0 = paper's 50)")
		seed      = flag.Int64("seed", 0, "master seed (0 = default)")
		budgets   = flag.String("budgets", "", "comma-separated x-axis override")
		list      = flag.Bool("list", false, "list available figure IDs")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		algorithm = flag.String("algorithm", "", "run one point-query simulation with this scheduler instead of the figures: optimal | localsearch | baseline | egalitarian | greedy")
		dataset   = flag.String("dataset", "rwm", "-algorithm's dataset: rwm | rnc")
		budget    = flag.Float64("budget", 15, "-algorithm's per-query budget")
		queries   = flag.Int("queries", 300, "-algorithm's point queries per slot")
		lifetime  = flag.Int("lifetime", 0, "-algorithm's sensor lifetime (0 = horizon)")
		privacy   = flag.Bool("privacy", false, "-algorithm's sensors get random privacy sensitivity levels")
		linear    = flag.Bool("linear-energy", false, "-algorithm's sensors get a linear energy cost, beta in [0,4]")
	)
	flag.Parse()

	if *list {
		for _, f := range sim.Figures {
			fmt.Printf("%-22s %s\n", f.ID, f.Title)
		}
		return
	}

	if *algorithm != "" {
		if *slots == 0 {
			*slots = sim.DefaultSlots
		}
		if *seed == 0 {
			*seed = 1
		}
		cfg := datasets.SensorConfig{Lifetime: *lifetime, RandomPSL: *privacy, LinearEnergy: *linear}
		runAlgorithm(*dataset, *algorithm, *budget, *queries, *slots, *seed, cfg)
		return
	}

	opts := sim.Options{Slots: *slots, Seed: *seed}
	if *budgets != "" {
		for _, part := range strings.Split(*budgets, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psbench: bad budget %q: %v\n", part, err)
				os.Exit(2)
			}
			opts.Budgets = append(opts.Budgets, v)
		}
	}

	var figures []sim.Figure
	if *figure == "all" {
		figures = sim.Figures
	} else {
		f, ok := sim.FigureByID(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "psbench: unknown figure %q (try -list)\n", *figure)
			os.Exit(2)
		}
		figures = []sim.Figure{f}
	}

	for _, f := range figures {
		start := time.Now()
		fmt.Printf("== %s — %s\n", f.ID, f.Title)
		for _, tab := range f.Run(opts) {
			if *csv {
				fmt.Println(tab.CSV())
			} else {
				fmt.Println(tab.Render())
			}
		}
		fmt.Printf("-- %s done in %v\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	}
}

// runAlgorithm runs one point-query simulation on the figure sweeps'
// workload stream and prints each slot, then the run's average utility
// per slot and its mean per-slot satisfaction.
func runAlgorithm(dataset, algorithm string, budget float64, queries, slots int, seed int64, cfg datasets.SensorConfig) {
	var world *datasets.World
	switch dataset {
	case "rwm":
		world = datasets.NewRWM(seed, 200, cfg)
	case "rnc":
		world = datasets.NewRNC(seed, cfg)
	default:
		fmt.Fprintf(os.Stderr, "psbench: unknown dataset %q\n", dataset)
		os.Exit(2)
	}

	var solver sim.PointSolver
	switch algorithm {
	case "optimal":
		solver = sim.ExactOptimal()
	case "localsearch":
		solver = sim.LocalSearchPoint(sim.DefaultLocalSearchEpsilon)
	case "baseline":
		solver = sim.BaselinePoint()
	case "egalitarian":
		solver = sim.EgalitarianPoint()
	case "greedy":
		solver = sim.GreedyPoint()
	default:
		fmt.Fprintf(os.Stderr, "psbench: unknown algorithm %q\n", algorithm)
		os.Exit(2)
	}

	fmt.Printf("# dataset=%s algorithm=%s budget=%v queries/slot=%d slots=%d seed=%d\n",
		dataset, algorithm, budget, queries, slots, seed)
	fmt.Printf("%-6s %10s %10s %10s %10s %10s\n", "slot", "offers", "selected", "answered", "cost", "welfare")

	res := sim.RunPointSim(world, queries, budget, 0, solver, slots, seed)
	sats := make([]float64, len(res.Slots))
	for i, row := range res.Slots {
		if row.Queries > 0 {
			sats[i] = float64(row.Answered) / float64(row.Queries)
		}
		fmt.Printf("%-6d %10d %10d %10d %10.1f %10.1f\n",
			row.Slot, row.Offers, row.Selected, row.Answered, row.Cost, row.Welfare)
	}
	fmt.Printf("\nsummary: avg utility/slot %.1f, satisfaction %.3f\n", res.AvgUtility, stats.Mean(sats))
}
