package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTablesMatchBenchmarkJSON keeps the program's metric and workload
// tables and BENCHMARK.json from drifting apart.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if !reflect.DeepEqual(spec.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", spec.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayerDefs)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsAtToyScale runs every workload untraced and traced at toy
// scale and checks that each emits exactly the metric names of its table
// and that every output check passes.
func TestWorkloadsAtToyScale(t *testing.T) {
	// Traced runs write trace-<workload>.ndjson into the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	for _, wl := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(wl.Name, runConfig{seed: 3, seconds: 0.3, trace: trace, toy: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", wl.Name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := names(endToEndDefs)
			if trace {
				want = names(perLayerDefs)
			}
			got := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted metrics %v, want %v", wl.Name, trace, got, want)
			}
			if trace {
				if _, err := os.Stat("trace-" + wl.Name + ".ndjson"); err != nil {
					t.Errorf("%s: no trace file: %v", wl.Name, err)
				}
				continue
			}
			for _, d := range endToEndDefs {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, d.Name, v)
				}
			}
		}
	}
}

// TestVerdict pins the comparison rule on hand-made samples.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "slot_ms_p50", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "query_slots_per_s", Better: "higher", Bound: 0.08}
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	shift := func(by float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * by
		}
		return out
	}
	noisy := []float64{10, 13, 8, 12, 7, 10, 14, 9, 11, 6}
	cases := []struct {
		def    metricDef
		parent []float64
		change []float64
		want   string
	}{
		{lower, parent, shift(1.2), "worse"},
		{lower, parent, shift(0.8), "better"},
		{lower, parent, shift(1.01), "within"},
		{higher, parent, shift(0.8), "worse"},
		{higher, parent, shift(1.2), "better"},
		{lower, noisy, shift(1.2), "unresolved"},
		{lower, noisy, shift(0.5), "better"},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.parent, c.change); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.def.Name, c.parent, c.change, got, c.want)
		}
	}
}

// TestWelfareIsExactOnEqualSeeds: on a closed-loop workload two sets run on
// the same seeds must agree on welfare to the last bit, whatever the bound;
// on different seeds, and on serve-stream, the bound judges.
func TestWelfareIsExactOnEqualSeeds(t *testing.T) {
	set := func(seeds []int64, welfare ...float64) map[string]*runSet {
		out := map[string]*runSet{}
		for _, wl := range []string{"urban-select", "serve-stream"} {
			out[wl] = &runSet{seeds: seeds, values: map[string][]float64{"welfare_per_slot": welfare}}
		}
		return out
	}
	parent := set([]int64{1, 2, 3}, 100, 101, 102)
	var buf strings.Builder
	if got := compareSets(&buf, parent, set([]int64{1, 2, 3}, 100, 101, 102)); got != 0 || !strings.Contains(buf.String(), "equal") {
		t.Errorf("identical welfare on equal seeds: status %d\n%s", got, buf.String())
	}
	buf.Reset()
	if got := compareSets(&buf, parent, set([]int64{1, 2, 3}, 100, 100.5, 102)); got != 1 {
		t.Errorf("welfare 0.5 %% lower on one equal seed: status %d, want 1\n%s", got, buf.String())
	}
	if n := strings.Count(buf.String(), "worse"); n != 1 {
		t.Errorf("%d worse verdicts, want 1 (urban-select only: serve-stream is judged by the bound)\n%s", n, buf.String())
	}
	buf.Reset()
	if got := compareSets(&buf, parent, set([]int64{4, 5, 6}, 100, 100.5, 102)); got != 0 {
		t.Errorf("welfare 0.5 %% lower on other seeds: status %d, want 0\n%s", got, buf.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
