package core

import (
	"context"
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/golden"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// runIdentityCase runs the pipeline on (topology, seed, faults) and checks
// its transcript, events, results and slot count against the golden the
// goroutine engine recorded.
func runIdentityCase(t *testing.T, name string, pos []geo.Point, p model.Params, cfg Config, values []int64, op agg.Op, seed uint64, spec fault.Spec) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		pl := NewPlan(p, cfg)
		e := sim.NewEngine(phy.NewField(p, pos), seed)
		if !spec.Zero() {
			e.Faults = fault.NewInjector(spec, seed+1, len(pos), p.Channels, pl.Offsets.End)
		}
		rec := golden.NewRecorder()
		e.Trace = rec.Trace
		res, err := RunContext(context.Background(), e, pl, values, op, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range e.Events() {
			rec.Event(ev.Slot, ev.Node, ev.Name, ev.Value)
		}
		golden.Check(t, "", rec.Digest(t, res))
	})
}

// clusterPositions places n-1 nodes uniformly within a half-r_c box around
// the origin node.
func clusterPositions(n int, p model.Params, src int64) []geo.Point {
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(src))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	return pos
}

// TestRunSteppedIdentity pins the pipeline's transcripts bit for bit to the
// goldens recorded from the goroutine engine — across both CSA variants,
// multi-cluster fields, and fault injection.
func TestRunSteppedIdentity(t *testing.T) {
	values := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(3*i + 1)
		}
		return v
	}

	{
		// Small-Δ̂ CSA variant (UseSmall): dense single cluster.
		const n = 40
		p := model.Default(4, 64)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = n
		runIdentityCase(t, "small-csa", clusterPositions(n, p, 1), p, cfg, values(n), agg.Sum, 7, fault.Spec{})
	}
	{
		// Large-Δ̂ CSA variant: Δ̂/F above log²n̂ forces the single-channel
		// estimator.
		const n = 30
		p := model.Default(2, 64)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = 64
		cfg.PhiMax = 4
		cfg.HopBound = 2
		runIdentityCase(t, "large-csa", clusterPositions(n, p, 2), p, cfg, values(n), agg.Max, 11, fault.Spec{})
	}
	{
		// Faults: message loss plus deterministic and seeded crashes, so
		// stepped crash retirement is exercised mid-pipeline.
		const n = 36
		p := model.Default(4, 64)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = n
		spec := fault.Spec{
			LossProb:  0.02,
			CrashAt:   map[int]int{3: 40, 11: 2000, 17: 0},
			CrashRate: 0.05,
			CrashFrom: 100,
		}
		runIdentityCase(t, "faults", clusterPositions(n, p, 3), p, cfg, values(n), agg.Sum, 13, spec)
	}
	if !testing.Short() {
		// Sparse connected field spanning several clusters and backbone hops.
		const n = 80
		p := model.Default(4, 128)
		rnd := rand.New(rand.NewSource(5))
		pos := topology.UniformDegree(rnd, n, p.REps(), 14)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = 32
		cfg.HopBound = 14
		cfg.PhiMax = 24
		runIdentityCase(t, "multi-cluster", pos, p, cfg, values(n), agg.Sum, 17, fault.Spec{})
	}
}

// TestRunSteppedSlotCount pins that the pipeline's Steppers consume exactly
// the plan's slot budget.
func TestRunSteppedSlotCount(t *testing.T) {
	const n = 12
	p := model.Default(2, 64)
	pos := clusterPositions(n, p, 9)
	pl := NewPlan(p, DefaultConfig(p))
	e := sim.NewEngine(phy.NewField(p, pos), 13)
	steppers := make([]sim.Stepper, n)
	for i := 0; i < n; i++ {
		steppers[i] = &pipelineStepper{build: BuildFrag{Pl: pl}, op: agg.Sum}
	}
	slots, err := e.Run(steppers)
	if err != nil {
		t.Fatal(err)
	}
	if slots != pl.Offsets.End {
		t.Errorf("stepped pipeline consumed %d slots, plan says %d", slots, pl.Offsets.End)
	}
}
