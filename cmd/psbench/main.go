// Command psbench regenerates the paper's figures: for every figure of
// the evaluation section (Figs 2-10), the §4.7 trust experiment and the
// ablations, it runs the corresponding simulation and prints the x/series
// rows the paper plots.
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
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

func main() {
	var (
		figure  = flag.String("figure", "all", "figure ID to regenerate, or 'all'")
		slots   = flag.Int("slots", 0, "simulation slots (0 = paper's 50)")
		seed    = flag.Int64("seed", 0, "master seed (0 = default)")
		budgets = flag.String("budgets", "", "comma-separated x-axis override")
		list    = flag.Bool("list", false, "list available figure IDs")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
	)
	flag.Parse()

	if *list {
		for _, f := range sim.Figures {
			fmt.Printf("%-22s %s\n", f.ID, f.Title)
		}
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
