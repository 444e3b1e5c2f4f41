package core

import (
	"fmt"
	"testing"
)

// TestGreedyParallelMatchesSerial verifies the sharded candidate scan is
// bit-identical to the serial path: same selection order, same payments,
// same welfare. The merge rule (shard order, strict >) must reproduce the
// serial first-max choice exactly.
func TestGreedyParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		qs, offers := randomAggScenario(seed, 800, 30, 400)
		serial := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySerial})
		for _, workers := range []int{2, 3, 8} {
			par := GreedySelectWith(qs, offers, GreedyConfig{Strategy: StrategySharded, Workers: workers, ParallelThreshold: 1})
			assertSameMultiResult(t, fmt.Sprintf("seed %d workers %d", seed, workers), serial, par)
		}
	}
}
