// Package expt implements the experiment suite listed in the mcnet package
// documentation: one runner per claimed bound of the paper, each
// regenerating a table whose shape can be compared against the theory
// (the root package's testdata/golden_experiments_quick*.csv freeze every
// table at -quick, with one seed and with three).
//
// Stage budgets in the pipeline are conservative envelopes, so wall-clock
// comparisons use *event* timestamps: when followers were acknowledged, when
// the backbone root completed the aggregate, when the last dominator heard
// the result.
//
// Every aggregation experiment (E1, E2, E10, A1–A3, F1–F6, and E3's two
// pipeline rows) runs through one runner, aggCase.run, and every sweep
// folds its per-seed summaries with one fold, aggSweep. Each table that
// reports informed reports exact next to it: over all nodes, or over the
// honest survivors (surv_exact) in the churn and Byzantine sweeps F3, F4
// and F6. Every plan the package builds is sized by sizing.config.
package expt

import (
	"context"

	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/stats"
	"mcnet/internal/topology"
)

// sizing is the structure sizing a plan derives its schedule from: the
// cluster-size bound Δ̂, the TDMA period φ and the backbone hop bound.
type sizing struct {
	deltaHat, phiMax, hopBound int
}

// crowdSizing sizes a single-cluster crowd of n nodes.
func crowdSizing(n int) sizing { return sizing{n, 4, 2} }

// fieldSizing sizes the sparse multi-cluster field (degree 14, the A2 and
// F4 deployment) at TDMA period phi.
func fieldSizing(phi int) sizing { return sizing{32, phi, 14} }

// config is the default pipeline configuration for p under this sizing.
func (z sizing) config(p model.Params) core.Config {
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat, cfg.PhiMax, cfg.HopBound = z.deltaHat, z.phiMax, z.hopBound
	return cfg
}

// aggCase is one aggregation run: a deployment, its plan configuration,
// the engine seed and an optional fault spec (nil: no injector attached).
type aggCase struct {
	p    model.Params
	pos  []geo.Point
	cfg  core.Config
	seed uint64
	spec *fault.Spec
}

// run aggregates the values 1..n with Sum once over a fresh plan and
// engine; core.RunSummary measures the run. A fault spec must be valid for
// (n, p.Channels); its injector shares the engine seed, and its rate-based
// crash window defaults to the schedule's slot budget.
func (c aggCase) run(ctx context.Context) (*core.Summary, error) {
	pl := core.NewPlan(c.p, c.cfg)
	e := sim.NewEngine(phy.NewField(c.p, c.pos), c.seed)
	if c.spec != nil {
		if err := c.spec.Validate(len(c.pos), c.p.Channels); err != nil {
			return nil, err
		}
		e.Faults = fault.NewInjector(*c.spec, c.seed, len(c.pos), c.p.Channels, pl.Offsets.End)
	}
	values, _ := sequentialValues(len(c.pos))
	return core.RunSummary(ctx, e, pl, values, agg.Sum)
}

// aggRow is one sweep point's runs folded in seed order: medians of the
// event-measured latencies, sums of the counts, and the run count for
// per-seed averages.
type aggRow struct {
	ack, agg, cast         float64 // AckSlots, AggSlots, CastDelay
	informed, exact, nodes int
	followers, acked       int
	lost, crashed, byz     int
	surv                   fault.SurvivorTally
	runs                   int
}

// aggSweep runs points × seeds aggregation runs through sweep, indexing
// run i as (point, seed) = (i/seeds, i%seeds), and folds each point's
// summaries in seed order into one row. deploy builds the run for one
// (point, seed); a case without positions is skipped and left out of
// the fold.
func aggSweep(o Options, points int, deploy func(pt, s int) aggCase) ([]aggRow, error) {
	seeds := o.seeds()
	sums, err := sweep(o, points*seeds, func(ctx context.Context, i int) (*core.Summary, error) {
		c := deploy(i/seeds, i%seeds)
		if c.pos == nil {
			return nil, nil
		}
		return c.run(ctx)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]aggRow, points)
	for pt := range rows {
		var acks, aggs, casts []float64
		r := &rows[pt]
		for _, m := range sums[pt*seeds : (pt+1)*seeds] {
			if m == nil {
				continue
			}
			acks = append(acks, float64(m.AckSlots))
			aggs = append(aggs, float64(m.AggSlots))
			casts = append(casts, float64(m.CastDelay))
			r.informed += m.Informed
			r.exact += m.Exact
			r.nodes += len(m.Results)
			r.followers += m.Followers
			r.acked += m.FollowersAcked
			if m.Faults != nil {
				r.lost += m.Faults.Lost
				r.crashed += len(m.Faults.CrashedNodes)
				r.byz += len(m.Faults.ByzantineNodes)
			}
			r.surv.Survivors += m.Survivors.Survivors
			r.surv.Informed += m.Survivors.Informed
			r.surv.Exact += m.Survivors.Exact
			r.surv.Agreeing += m.Survivors.Agreeing
			r.runs++
		}
		r.ack, r.agg, r.cast = stats.Median(acks), stats.Median(aggs), stats.Median(casts)
	}
	return rows, nil
}

// Crowd places n nodes inside one cluster-radius disk (a single-cluster,
// Δ = n-1 workload isolating the Δ/F term). Layouts draw from
// topology.LayoutRand(seed), a stream kept apart from the protocol seeds.
func Crowd(p model.Params, n int, seed uint64) []geo.Point {
	return topology.Crowd(topology.LayoutRand(seed), n, p.ClusterRadius())
}

// crowdCase is the aggregation run on a seeded crowd of n nodes at F = f
// under the crowd sizing.
func crowdCase(f, n int, layout, seed uint64) aggCase {
	p := model.Default(f, n)
	return aggCase{p: p, pos: Crowd(p, n, layout), cfg: crowdSizing(n).config(p), seed: seed}
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
