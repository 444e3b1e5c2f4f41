package ps_test

import (
	"fmt"

	ps "repro"
	"repro/internal/mobility"
	"repro/internal/sensornet"
)

// ExampleAggregator_Submit shows the batch entry point: every query kind
// is a spec struct submitted through the one generic Submit, and RunSlot
// executes the paper's once-per-slot selection.
func ExampleAggregator_Submit() {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	agg := ps.NewAggregator(world)

	if _, err := agg.Submit(ps.PointSpec{ID: "q1", Loc: ps.Pt(30, 30), Budget: 15}); err != nil {
		fmt.Println("submit:", err)
		return
	}
	if _, err := agg.Submit(ps.AggregateSpec{ID: "q2", Region: ps.NewRect(20, 20, 45, 45), Budget: 120}); err != nil {
		fmt.Println("submit:", err)
		return
	}

	report := agg.RunSlot()
	fmt.Println("q1 answered:", report.Answered("q1"))
	fmt.Println("q2 answered:", report.Answered("q2"))
	fmt.Println("welfare positive:", report.Welfare > 0)
	// Output:
	// q1 answered: true
	// q2 answered: true
	// welfare positive: true
}

// ExampleEngine_Watch attaches a second observer to a live query's event
// stream: the watcher gets the query's Accepted event on join, then every
// event published afterwards, ending with Final when the query expires.
func ExampleEngine_Watch() {
	world := ps.NewRWMWorld(1, 200, ps.SensorConfig{})
	eng := ps.NewEngine(ps.NewAggregator(world)) // no interval: virtual clock
	eng.Start()
	defer eng.Stop()

	h, err := eng.Submit(ps.LocationMonitoringSpec{
		ID: "lm1", Loc: ps.Pt(30, 30), Duration: 2, Budget: 80, Samples: 2,
	})
	if err != nil {
		fmt.Println("submit:", err)
		return
	}
	// Submission is an asynchronous enqueue: the query is live — and
	// watchable — once its own stream opens with Accepted.
	<-h.Events()
	// The handle's own stream is not read any further: closing it lets
	// the goroutine feeding its channel go.
	defer h.Subscription().Close()

	sub, err := eng.Watch("lm1")
	if err != nil {
		fmt.Println("watch:", err)
		return
	}
	defer sub.Close()

	if err := eng.RunSlots(2); err != nil {
		fmt.Println("run:", err)
		return
	}
	for ev := range sub.Events() {
		if ev.Type == ps.EventSlotUpdate {
			fmt.Println("slot", ev.Slot, "answered:", ev.Result.Answered)
		} else {
			fmt.Println(ev.Type)
		}
	}
	// Output:
	// accepted
	// slot 0 answered: true
	// slot 1 answered: true
	// final
}

// ExampleShardedAggregator_RunSlot shows each shard lane of the
// geo-sharded layer running the one lazy greedy on its own offers: a busy
// downtown shard and a quiet suburb alike, with no per-shard setting, and
// each lane's heap skipping valuation calls an exhaustive scan would make.
func ExampleShardedAggregator_RunSlot() {
	// A fleet standing still: 300 sensors downtown (the south-west
	// shard), 60 in the north-east suburb.
	world := ps.NewRWMWorld(2, 360, ps.SensorConfig{})
	pos := make([]ps.Point, 360)
	for i := range pos {
		if i < 300 {
			pos[i] = ps.Pt(20+float64(i%20), 20+float64(i/20))
		} else {
			pos[i] = ps.Pt(45+float64(i%10), 45+float64((i-300)/10))
		}
	}
	world.Fleet = sensornet.NewFleet(world.Fleet.Sensors, mobility.NewStationary(pos), world.Working)

	sa := ps.NewShardedAggregator(world, 4)
	sa.Submit(ps.PointSpec{ID: "downtown", Loc: ps.Pt(30, 30), Budget: 15})
	sa.Submit(ps.PointSpec{ID: "suburb", Loc: ps.Pt(50, 48), Budget: 15})

	report := sa.RunSlot()
	for _, sh := range report.Shards {
		if sh.Offers > 0 {
			fmt.Printf("shard %d: %d offers, %d of %d valuation calls saved\n",
				sh.Shard, sh.Offers, sh.Selection.SavedCalls(), sh.Selection.SerialEquivCalls)
		}
	}
	fmt.Println("both answered:", report.Answered("downtown") && report.Answered("suburb"))
	// Output:
	// shard 0: 300 offers, 39 of 89 valuation calls saved
	// shard 3: 60 offers, 33 of 79 valuation calls saved
	// both answered: true
}
