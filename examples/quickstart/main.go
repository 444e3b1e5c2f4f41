// Quickstart: build a world, submit point-query specs through the
// unified submission API and run one slot. To compare the paper's point
// schedulers (exact BILP, local search, baseline) on identical workloads,
// run `go run ./cmd/psbench -algorithm optimal|localsearch|baseline`.
package main

import (
	"fmt"

	ps "repro"
)

func main() {
	fmt.Println("participatory sensing — quickstart")
	fmt.Println()

	world := ps.NewRWMWorld(42, 200, ps.SensorConfig{})
	agg := ps.NewAggregator(world)

	// A citizen asks for the air quality at three street corners. Every
	// query kind is submitted the same way: a spec into Submit.
	for _, spec := range []ps.PointSpec{
		{ID: "corner-a", Loc: ps.Pt(30, 30), Budget: 20},
		{ID: "corner-b", Loc: ps.Pt(45, 25), Budget: 20},
		{ID: "corner-c", Loc: ps.Pt(25, 50), Budget: 20},
	} {
		if _, err := agg.Submit(spec); err != nil {
			panic(err)
		}
	}
	report := agg.RunSlot()

	fmt.Printf("slot %d: welfare %.1f, %d sensors used (of %d offers)\n",
		report.Slot, report.Welfare, report.SensorsUsed, report.Offers)
	for _, id := range []string{"corner-a", "corner-b", "corner-c"} {
		if report.Answered(id) {
			fmt.Printf("  %s answered: value %.2f, paid %.2f (utility %.2f)\n",
				id, report.Value(id), report.Payment(id), report.Value(id)-report.Payment(id))
		} else {
			fmt.Printf("  %s unanswered (no sensor close enough)\n", id)
		}
	}
}
