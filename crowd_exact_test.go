//go:build !race

package mcnet_test

import (
	"context"
	"testing"

	"mcnet"
)

// TestCrowd4096AllExact runs one complete Aggregate on the
// BenchmarkAggregateCrowdFull/n=4k deployment (Crowd, n = 4096, F = 8,
// Seed(1)) and requires every node to learn the exact sum, so a timed
// crowd row whose run broke cannot read as a speedup. The race detector
// build leaves it out: the smaller runs of the race leg cover the same
// code at a fraction of the time.
func TestCrowd4096AllExact(t *testing.T) {
	const n = 4096
	nw, err := mcnet.New(n, mcnet.Channels(8), mcnet.WithTopology(mcnet.Crowd), mcnet.Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}
	res, err := nw.Aggregate(context.Background(), values, mcnet.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n + 1) / 2; res.Value != want {
		t.Errorf("Value = %d, want %d", res.Value, want)
	}
	if res.Informed != n || res.Exact != n {
		t.Errorf("Informed = %d, Exact = %d, want %d and %d", res.Informed, res.Exact, n, n)
	}
}
