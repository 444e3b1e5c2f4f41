// Command benchmark is the repository's benchmark: five workloads that
// build the system the way the library and binaries do by default, measure
// it from outside, check its outputs, and print every metric named in
// BENCHMARK.json with its unit.
//
//	go run ./benchmark -workload urban-select -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -repeat 5 -out a.json
//	go run ./benchmark -compare a.json b.json
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) keeps a span for every call the benchmark makes into a layer,
// runs the replay probes, writes trace-<workload>.ndjson and reports the
// per-layer metrics. The last line of standard output of each workload is
// one JSON object {correct, attempted, failed, metrics}; the exit status is
// non-zero when any output check failed. README.md explains the workloads,
// the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "seconds each run measures")
	trace := fs.Int("trace", 0, "1 keeps spans, runs the probes and reports per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload")
	out := fs.String("out", "", "also write every run to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: benchmark -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need -seconds > 0, -repeat >= 1, -trace 0 or 1")
		return 2
	}
	var names []string
	for _, w := range workloadDefs {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	status := 0
	var results []*result
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			res, err := runWorkload(name, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			results = append(results, res)
			if !res.Correct {
				status = 1
			}
			printResult(res)
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// printResult prints the run for people, then the driver's line last.
func printResult(res *result) {
	fmt.Printf("# %s seed=%d trace=%v attempted=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-36s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, p := range res.Problems {
		fmt.Println("FAILED CHECK:", p)
	}
	line, err := json.Marshal(res.driverLine)
	if err != nil {
		panic(err) // a map of plain numbers cannot fail to encode
	}
	fmt.Println(string(line))
}
