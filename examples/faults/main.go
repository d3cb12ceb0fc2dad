// Faults: run the aggregation pipeline under message loss, channel jamming
// and node churn, inspect the per-run FaultReport, then sweep a fault grid
// with the scenario runner. Every run is deterministic: same seed, same
// faults, same transcript.
//
// Run with: go run ./examples/faults
package main

import (
	"context"
	"fmt"
	"log"

	"mcnet"
)

func main() {
	const n = 64

	// A dense crowd on 4 channels with 5% message loss and two sensors
	// crashing mid-run. (Jamming composes the same way — the sweep below
	// adds it; note how even mild faults break exactness while informedness
	// and survivor consensus degrade gracefully, because the pipeline's
	// convergecast has no redundancy.)
	net, err := mcnet.New(n,
		mcnet.Channels(4),
		mcnet.Seed(42),
		mcnet.WithTopology(mcnet.Crowd),
		mcnet.Loss(0.05),
		mcnet.Churn(mcnet.ChurnSpec{CrashAt: map[int]int{3: 500, 17: 2000}}),
	)
	if err != nil {
		log.Fatal(err)
	}

	values := make([]int64, n)
	for i := range values {
		values[i] = int64(10 + i)
	}
	res, err := net.Aggregate(context.Background(), values, mcnet.Sum)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: %d nodes, %d channels, faults on\n", net.N(), net.Channels())
	fmt.Printf("informed: %d/%d, exact: %d/%d\n", res.Informed, n, res.Exact, n)
	fr := res.Faults
	fmt.Printf("fault layer: %d delivered, %d lost, %d slot-channels jammed\n",
		fr.Delivered, fr.Lost, fr.JammedSlotChannels)
	fmt.Printf("churn: crashed %v; %d/%d survivors informed, %d agree on one aggregate\n",
		fr.CrashedNodes, fr.SurvivorsInformed, fr.Survivors, fr.SurvivorsAgreeing)

	// Sweep a small fault grid; the table is stable for a fixed base seed.
	tb, err := mcnet.RunScenario(context.Background(), mcnet.ScenarioSpec{
		Name:     "faults example",
		N:        48,
		Topology: "crowd",
		Channels: 4,
		Loss:     []float64{0, 0.1},
		Jam:      []int{0, 1},
		Seeds:    2,
	}, mcnet.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(tb.Render())
}
