// Command pssim runs a single participatory-sensing simulation and prints
// per-slot metrics plus a summary — handy for exploring one configuration
// without the full figure sweep of psbench. It compares the paper's point
// schedulers of §3.1 (the exact BILP, local search, the baseline, the
// egalitarian objective and Algorithm 1's greedy) by calling each solver
// directly on the slot's offers, as the figure sweeps do; the serving
// Aggregator runs only the greedy selection.
//
// Usage:
//
//	pssim -dataset rwm -algorithm optimal -budget 15 -queries 300 -slots 50
package main

import (
	"flag"
	"fmt"
	"os"

	ps "repro"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		dataset   = flag.String("dataset", "rwm", "dataset: rwm | rnc")
		algorithm = flag.String("algorithm", "optimal", "algorithm: optimal | localsearch | baseline | egalitarian | greedy")
		budget    = flag.Float64("budget", 15, "per-query budget")
		queries   = flag.Int("queries", 300, "point queries per slot")
		slots     = flag.Int("slots", sim.DefaultSlots, "simulation slots")
		seed      = flag.Int64("seed", 1, "master seed")
		lifetime  = flag.Int("lifetime", 0, "sensor lifetime (0 = horizon)")
		privacy   = flag.Bool("privacy", false, "random privacy sensitivity levels")
		linear    = flag.Bool("linear-energy", false, "linear energy cost, beta in [0,4]")
	)
	flag.Parse()

	cfg := ps.SensorConfig{Lifetime: *lifetime, RandomPSL: *privacy, LinearEnergy: *linear}
	var world *ps.World
	switch *dataset {
	case "rwm":
		world = ps.NewRWMWorld(*seed, 200, cfg)
	case "rnc":
		world = ps.NewRNCWorld(*seed, cfg)
	default:
		fmt.Fprintf(os.Stderr, "pssim: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	var solver core.PointSolver
	switch *algorithm {
	case "optimal":
		solver = sim.ExactOptimal()
	case "localsearch":
		solver = core.LocalSearchPoint(core.DefaultLocalSearchEpsilon)
	case "baseline":
		solver = core.BaselinePoint()
	case "egalitarian":
		solver = core.EgalitarianPoint()
	case "greedy":
		solver = core.GreedyPoint()
	default:
		fmt.Fprintf(os.Stderr, "pssim: unknown algorithm %q\n", *algorithm)
		os.Exit(2)
	}

	// The same deterministic workload stream the figure sweeps use.
	wl := sim.PointWorkload{
		QueriesPerSlot: *queries,
		BudgetMean:     *budget,
		DMax:           world.DMax,
		Working:        world.Working,
		Grid:           world.Grid,
	}
	wrnd := rng.New(*seed, "point-workload")

	fmt.Printf("# dataset=%s algorithm=%s budget=%v queries/slot=%d slots=%d seed=%d\n",
		*dataset, *algorithm, *budget, *queries, *slots, *seed)
	fmt.Printf("%-6s %10s %10s %10s %10s %10s\n", "slot", "offers", "selected", "answered", "cost", "welfare")

	var utils, sats []float64
	for t := 0; t < *slots; t++ {
		offers := world.Fleet.Step()
		qs := wl.Slot(t, wrnd)
		res := solver(qs, offers)
		world.Fleet.Commit(res.Selected)
		utils = append(utils, res.Welfare())
		answered := len(res.Outcomes)
		sat := 0.0
		if len(qs) > 0 {
			sat = float64(answered) / float64(len(qs))
		}
		sats = append(sats, sat)
		fmt.Printf("%-6d %10d %10d %10d %10.1f %10.1f\n",
			world.Fleet.Slot(), len(offers), len(res.Selected), answered, res.TotalCost, res.Welfare())
	}
	fmt.Printf("\nsummary: avg utility/slot %.1f, satisfaction %.3f\n",
		stats.Mean(utils), stats.Mean(sats))
}
