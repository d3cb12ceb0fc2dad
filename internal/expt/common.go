// Package expt implements the experiment suite listed in the mcnet package
// documentation: one runner per claimed bound of the paper, each
// regenerating a table whose shape can be compared against the theory
// (the root package's testdata/golden_experiments_quick.csv freezes every
// table at -quick -seeds 1).
//
// Stage budgets in the pipeline are conservative envelopes, so wall-clock
// comparisons use *event* timestamps: when followers were acknowledged, when
// the backbone root completed the aggregate, when the last dominator heard
// the result.
package expt

import (
	"context"
	"fmt"

	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// aggregate runs the Sum pipeline once, fault-free, over a fresh plan and
// engine; core.RunSummary measures the run.
func aggregate(ctx context.Context, pos []geo.Point, p model.Params, cfg core.Config, values []int64, seed uint64) (*core.Summary, error) {
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	return core.RunSummary(ctx, e, core.NewPlan(p, cfg), values, agg.Sum)
}

// Crowd places n nodes inside one cluster-radius disk (a single-cluster,
// Δ = n-1 workload isolating the Δ/F term).
func Crowd(p model.Params, n int, seed uint64) []geo.Point {
	return topology.Crowd(newRand(seed), n, p.ClusterRadius())
}

// sequentialValues returns 1..n and their sum.
func sequentialValues(n int) ([]int64, int64) {
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	return values, want
}

func pct(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(a)/float64(b))
}
