package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(k int) float64 { // k-th quartile cut
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		return v[j-1] + (v[j]-v[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// minPairs is how many parent/change pairs a gain needs before it can be
// claimed: fewer cannot tell a change from the machine's drift.
const minPairs = 10

// verdict judges one workload x metric pair of a parent and a change by
// the metric's bound and the parent's own inter-quartile spread:
//
//	unresolved  the parent's spread is wider than the bound, and not every
//	            run of the change reads better than every run of the parent
//	worse       the change's median is worse than the parent's by more than
//	            the bound
//	better      there are at least ten index-aligned pairs, the change wins
//	            at least nine tenths of them (ties counting for neither) and
//	            the medians differ by more than the parent's inter-quartile
//	            distance
//	within      none of the above: no regression, no resolved gain
func verdict(def metricDef, parent, change []float64) string {
	sign := 1.0 // multiplies differences so that positive means worse
	if def.Better == "higher" {
		sign = -1
	}
	q1, medP, q3 := quartiles(parent)
	_, medC, _ := quartiles(change)
	if medP == 0 {
		return "unresolved"
	}
	scale := medP
	if scale < 0 {
		scale = -scale
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	if (q3-q1)/scale > def.Bound && !allBetter {
		return "unresolved"
	}
	if sign*(medC-medP)/scale > def.Bound {
		return "worse"
	}
	pairs, wins, losses := min(len(parent), len(change)), 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	if pairs >= minPairs && float64(wins) >= 0.9*float64(wins+losses) && wins > 0 && sign*(medP-medC) > q3-q1 {
		return "better"
	}
	return "within"
}

// exactVerdict judges a metric that is exact per seed from index-aligned
// pairs of runs on the same seed: worse when any pair got worse, else
// better when any got better, else equal. No bound applies.
func exactVerdict(def metricDef, parent, change []float64) string {
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	v := "equal"
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			return "worse"
		case d < 0:
			v = "better"
		}
	}
	return v
}

// runSet is one workload's untraced runs in an -out file, in file order.
type runSet struct {
	seeds  []int64
	values map[string][]float64
}

func readResults(path string) (map[string]*runSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []result
	if err := json.Unmarshal(buf, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byWorkload := map[string]*runSet{}
	for _, r := range runs {
		if r.Trace {
			continue // per-layer metrics carry no bound
		}
		set := byWorkload[r.Workload]
		if set == nil {
			set = &runSet{values: map[string][]float64{}}
			byWorkload[r.Workload] = set
		}
		set.seeds = append(set.seeds, r.Seed)
		for name, v := range r.Metrics {
			set.values[name] = append(set.values[name], v.Value)
		}
	}
	return byWorkload, nil
}

// compareFiles prints, for every workload and end-to-end metric present in
// both -out files, each side's median and quartiles, the change's median
// as a share of the parent's, and the verdict. The exit status is 1 when
// any pair is worse.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readResults(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareSets(w, parent, change)
}

func compareSets(w io.Writer, parent, change map[string]*runSet) int {
	status := 0
	for _, wl := range workloadDefs {
		p, c := parent[wl.Name], change[wl.Name]
		if p == nil || c == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n  %-20s %-8s %-6s %34s %34s %22s %6s  %s\n", wl.Name,
			"metric", "unit", "better", "parent median [q1, q3] n", "change median [q1, q3] n", "change vs parent", "bound", "verdict")
		for _, def := range endToEndDefs {
			pv, cv := p.values[def.Name], c.values[def.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			v, bound := verdict(def, pv, cv), fmt.Sprintf("%.0f%%", 100*def.Bound)
			// Welfare on the closed-loop workloads is exact per seed: two
			// sets run on the same seeds must agree to the last bit.
			if def.Name == "welfare_per_slot" && wl.Name != "serve-stream" && slices.Equal(p.seeds, c.seeds) {
				v, bound = exactVerdict(def, pv, cv), "exact"
			}
			if v == "worse" {
				status = 1
			}
			side := func(q1, m, q3 float64, n int) string { return fmt.Sprintf("%.5g [%.5g, %.5g] %d", m, q1, q3, n) }
			ratio := "n/a"
			if pm != 0 {
				ratio = fmt.Sprintf("%+.2f%% of %.5g", 100*(cm-pm)/pm, pm)
			}
			fmt.Fprintf(w, "  %-20s %-8s %-6s %34s %34s %22s %6s  %s\n", def.Name, def.Unit, def.Better,
				side(pq1, pm, pq3, len(pv)), side(cq1, cm, cq3, len(cv)), ratio, bound, v)
		}
	}
	return status
}
