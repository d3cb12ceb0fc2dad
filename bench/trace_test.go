package main

import (
	"testing"

	"mcnet/internal/phy"
)

func TestStageOfWindowEdges(t *testing.T) {
	// The crowd deployment's first and last windows, abbreviated.
	ws := []window{{0, 840}, {840, 3613}, {3613, 3669}, {3669, 19377}}
	cases := []struct{ slot, want int }{
		{0, 0},
		{839, 0},
		{840, 1},   // a window's start belongs to it
		{3612, 1},  // its last slot too
		{3613, 2},  // its end belongs to the next window
		{19376, 3}, // last slot of the budget
		{19377, 3}, // past the budget: clamped into the last stage
		{1 << 30, 3},
	}
	for _, c := range cases {
		if got := stageOf(ws, c.slot); got != c.want {
			t.Errorf("stageOf(slot %d) = %d, want %d", c.slot, got, c.want)
		}
	}
}

func TestCountPairsPerChannel(t *testing.T) {
	perTx, perRx := make([]int64, 3), make([]int64, 3)
	txs := []phy.Tx{{Node: 0, Channel: 0}, {Node: 1, Channel: 0}, {Node: 2, Channel: 1}}
	rxs := []phy.Rx{{Node: 3, Channel: 0}, {Node: 4, Channel: 0}, {Node: 5, Channel: 0}, {Node: 6, Channel: 2}}
	// Channel 0: 2 × 3; channel 1: 1 × 0; channel 2: 0 × 1.
	if got := countPairs(txs, rxs, perTx, perRx); got != 6 {
		t.Errorf("countPairs = %d, want 6", got)
	}
	// The scratch is reset between slots.
	if got := countPairs(txs[2:], rxs[:1], perTx, perRx); got != 0 {
		t.Errorf("countPairs on disjoint channels = %d, want 0", got)
	}
	if got := countPairs(nil, rxs, perTx, perRx); got != 0 {
		t.Errorf("countPairs without transmitters = %d, want 0", got)
	}
}
