// Air-quality scenario: the multi-application workload the paper's
// introduction motivates. On the RNC-like city, three applications share
// one aggregator:
//
//   - citizens issue spot checks (point queries) around downtown,
//   - the environmental agency runs district-wide averages (spatial
//     aggregate queries) every slot,
//   - a school watches the CO2 level at its gate for a whole morning
//     (location monitoring query).
//
// The example runs the workload through the aggregator's shared Algorithm 5
// selection and prints what each application got. For the paper's
// comparison with the sequential baseline on the §4.7 query mix, run
// `go run ./cmd/psbench -figure fig10`.
package main

import (
	"fmt"

	ps "repro"
)

const slots = 20

func runCity() (welfare float64, satisfaction float64, school *ps.LocationMonitoringQuery) {
	world := ps.NewRNCWorld(2024, ps.SensorConfig{})
	agg := ps.NewAggregator(world)

	// The school gate is watched for the whole run; the submitted spec's
	// Underlying query exposes the monitoring state for the report below.
	sq, err := agg.Submit(ps.LocationMonitoringSpec{
		ID: "school-gate", Loc: ps.Pt(120, 150), Duration: slots, Budget: 300, Samples: 6,
	})
	if err != nil {
		panic(err)
	}
	school = sq.Underlying().(*ps.LocationMonitoringQuery)

	for slot := 0; slot < slots; slot++ {
		// Citizens: 150 spot checks, clustered downtown.
		for i := 0; i < 150; i++ {
			x := 75 + float64((i*13+slot*7)%90)
			y := 105 + float64((i*29+slot*17)%90)
			if _, err := agg.Submit(ps.PointSpec{
				ID: fmt.Sprintf("spot-%d-%d", slot, i), Loc: ps.Pt(x, y), Budget: 12,
			}); err != nil {
				panic(err)
			}
		}
		// Agency: four district averages.
		districts := []ps.Rect{
			ps.NewRect(75, 105, 115, 145),
			ps.NewRect(120, 105, 165, 145),
			ps.NewRect(75, 150, 115, 195),
			ps.NewRect(120, 150, 165, 195),
		}
		for d, r := range districts {
			if _, err := agg.Submit(ps.AggregateSpec{
				ID: fmt.Sprintf("district-%d-%d", slot, d), Region: r, Budget: r.Area() / 15 * 5,
			}); err != nil {
				panic(err)
			}
		}
		rep := agg.RunSlot()
		welfare += rep.Welfare
		for i := 0; i < 150; i++ {
			if rep.Answered(fmt.Sprintf("spot-%d-%d", slot, i)) {
				satisfaction++
			}
		}
	}
	return welfare, satisfaction / (slots * 150), school
}

func main() {
	fmt.Println("air-quality city — three applications sharing one aggregator")
	fmt.Printf("(%d slots; 150 spot checks + 4 district averages per slot + 1 school monitor)\n\n", slots)

	welfare, sat, school := runCity()

	fmt.Printf("%14s %12s %16s\n", "total welfare", "spot checks", "school monitor")
	fmt.Printf("%14.1f %11.1f%% %15.1f%%\n", welfare, 100*sat, 100*school.Quality())
	fmt.Printf("school monitor sampled %d times (desired %d)\n",
		len(school.Sampled), len(school.Desired))
}
