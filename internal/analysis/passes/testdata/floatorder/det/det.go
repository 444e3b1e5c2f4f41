// Package det is a floatorder fixture loaded under a deterministic
// package path (repro/internal/core).
package det

import (
	"sort"
	"sync"
)

func mapSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "float \\+= accumulation in map-iteration order"
	}
	return sum
}

func mapSumLonghand(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want "float \\+= accumulation in map-iteration order"
	}
	return sum
}

func mapProduct(m map[string]float64) float64 {
	prod := 1.0
	for _, v := range m {
		prod *= v // want "float \\*= accumulation in map-iteration order"
	}
	return prod
}

func chanFanIn(ch chan float64) float64 {
	var sum float64
	for v := range ch {
		sum += v // want "float \\+= accumulation in chan-iteration order"
	}
	return sum
}

func structField(m map[string]float64) float64 {
	var acc struct{ total float64 }
	for _, v := range m {
		acc.total += v // want "float \\+= accumulation in map-iteration order"
	}
	return acc.total
}

// sortedKeys is the sanctioned fix: iterate a sorted key slice. The
// range is over a slice, so nothing is flagged.
func sortedKeys(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// intSum is order-independent: integer addition is associative.
func intSum(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// perKey accumulates into an element indexed by the range's own key;
// each key is visited once, so order cannot matter.
func perKey(m map[string]float64, out map[string]float64) {
	for k, v := range m {
		out[k] += v
	}
}

// innerAccumulator is declared inside the loop body: reset every
// iteration, so it is a per-element computation, not a fan-in.
func innerAccumulator(m map[string][]float64, out map[string]float64) {
	for k, vs := range m {
		var s float64
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
}

// notAnAccumulation assigns a fresh value; no read-modify-write.
func notAnAccumulation(m map[string]float64) float64 {
	var last float64
	for _, v := range m {
		last = v * 2
	}
	return last
}

// goFanIn sums into a total shared by every goroutine: the additions
// land in completion order.
func goFanIn(parts [][]float64) float64 {
	var total float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p []float64) {
			defer wg.Done()
			for _, v := range p {
				mu.Lock()
				total += v // want "float \\+= accumulation across goroutines"
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	return total
}

// goSlots is the sanctioned fan-out: each goroutine sums into its own
// local and writes it to its index-addressed slot, and a serial pass
// reduces the slots in index order.
func goSlots(parts [][]float64) float64 {
	sums := make([]float64, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p []float64) {
			defer wg.Done()
			var s float64
			for _, v := range p {
				s += v
			}
			sums[i] = s
		}(i, p)
	}
	wg.Wait()
	var total float64
	for _, s := range sums {
		total += s
	}
	return total
}

// goParamAccumulator accumulates into the literal's own parameter: a
// per-goroutine copy.
func goParamAccumulator(parts [][]float64, out chan<- float64) {
	for _, p := range parts {
		go func(p []float64, acc float64) {
			for _, v := range p {
				acc += v
			}
			out <- acc
		}(p, 0)
	}
}
