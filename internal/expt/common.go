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
	"fmt"

	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// AggMetrics summarizes one pipeline run.
type AggMetrics struct {
	N int
	// Delta and Diam are the communication-graph parameters (measurement
	// only).
	Delta, Diam int
	// BuildSlots is the structure-construction budget (stages 1–5).
	BuildSlots int
	// AckSlots is when the last follower was acknowledged, measured from
	// the aggregation start (the Δ/F mechanism of Lemma 21).
	AckSlots int
	// AggSlots is when the last dominator knew the final aggregate,
	// measured from the aggregation start (Theorem 22's quantity up to the
	// fixed intra-cluster announce).
	AggSlots int
	// CastDelay is when the backbone root completed the aggregate, measured
	// from the start of the backbone convergecast phase (the D-sensitive
	// part, for E10).
	CastDelay int
	// Informed and Exact count nodes that learned a value / the exact fold.
	Informed, Exact int
	// Followers and FollowersAcked validate the follower procedure.
	Followers, FollowersAcked int
	// Dominators is the cluster count.
	Dominators int
	// Survivors, SurvivorsInformed and SurvivorsExact restrict the counts
	// to nodes alive at run end — equal to N, Informed and Exact on
	// fault-free runs; SurvivorsAgreeing is the largest set of informed
	// survivors sharing one learned value (consensus under churn, where the
	// full-input fold may be unreachable). See RunAggFaults.
	Survivors, SurvivorsInformed, SurvivorsExact int
	SurvivorsAgreeing                            int
}

// RunAgg executes the pipeline once and extracts metrics. The values slice
// must hold exactly one input per node; the pipeline rejects mismatches
// instead of silently zero-filling.
func RunAgg(pos []geo.Point, p model.Params, cfg core.Config, values []int64, op agg.Op, seed uint64) (AggMetrics, error) {
	m, _, err := runAgg(pos, p, cfg, values, op, seed, nil)
	return m, err
}

// runAgg is the shared pipeline runner: with a nil injector it is the
// fault-free path, otherwise the injector is attached to the engine and its
// report returned alongside the metrics.
func runAgg(pos []geo.Point, p model.Params, cfg core.Config, values []int64, op agg.Op, seed uint64, inj *fault.Injector) (AggMetrics, fault.Report, error) {
	var m AggMetrics
	if len(values) != len(pos) {
		return m, fault.Report{}, fmt.Errorf("expt: %d values for %d nodes", len(values), len(pos))
	}
	m.N = len(pos)
	g := graph.Build(pos, p.REps())
	m.Delta = g.MaxDegree()
	m.Diam = g.DiameterApprox()

	pl := core.NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	if inj != nil {
		e.Faults = inj
	}
	res, err := core.Run(e, pl, values, op, seed)
	if err != nil {
		return m, fault.Report{}, err
	}
	m.BuildSlots = pl.Offsets.Followers
	rep := fault.Report{}
	if inj != nil {
		rep = inj.Report()
	}
	want := op.Fold(values)
	for _, r := range res {
		if r.IsDominator {
			m.Dominators++
		} else if !r.IsReporter {
			m.Followers++
		}
		if r.Ok {
			m.Informed++
			if r.Value == want {
				m.Exact++
			}
		}
	}
	tally := rep.TallySurvivors(m.N, func(i int) (bool, int64) {
		return res[i].Ok, res[i].Value
	}, want)
	m.Survivors = tally.Survivors
	m.SurvivorsInformed = tally.Informed
	m.SurvivorsExact = tally.Exact
	m.SurvivorsAgreeing = tally.Agreeing
	aggStart := pl.Offsets.Followers
	castStart := pl.Offsets.Backbone +
		pl.Tree.PhiMax*(pl.Tree.BuildBlocks+pl.Tree.ChildBlocks)
	lastAck, lastResult, rootAgg := 0, 0, 0
	for _, ev := range e.Events() {
		switch ev.Name {
		case core.EventAcked:
			m.FollowersAcked++
			if ev.Slot > lastAck {
				lastAck = ev.Slot
			}
		case backbone.EventResult:
			if ev.Slot > lastResult {
				lastResult = ev.Slot
			}
		case backbone.EventAgg:
			if ev.Slot > rootAgg {
				rootAgg = ev.Slot
			}
		}
	}
	if lastAck > 0 {
		m.AckSlots = lastAck - aggStart
	}
	end := lastResult
	if rootAgg > end {
		end = rootAgg
	}
	if end > 0 {
		m.AggSlots = end - aggStart
	}
	if rootAgg > 0 {
		m.CastDelay = rootAgg - castStart
	}
	return m, rep, nil
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
