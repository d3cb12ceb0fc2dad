package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// txRec is one transcript entry: who transmitted and who decoded what.
type txRec struct {
	Slot    int
	Txs     []phy.Tx
	Listens []int
	Decoded []bool
}

// captureTrace returns a TraceFn that appends deep copies of every resolved
// slot to *dst (Trace slices are engine scratch).
func captureTrace(dst *[]txRec) sim.TraceFn {
	return func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
		r := txRec{Slot: slot, Txs: append([]phy.Tx(nil), txs...)}
		for i, rx := range rxs {
			r.Listens = append(r.Listens, rx.Node)
			r.Decoded = append(r.Decoded, recs[i].Msg != nil)
		}
		*dst = append(*dst, r)
	}
}

func sortedEvents(evs []sim.Event) []sim.Event {
	out := append([]sim.Event(nil), evs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Slot != out[b].Slot {
			return out[a].Slot < out[b].Slot
		}
		if out[a].Node != out[b].Node {
			return out[a].Node < out[b].Node
		}
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		return out[a].Value < out[b].Value
	})
	return out
}

// runIdentityCase runs the pipeline once per execution mode on the same
// (topology, seed, faults) and requires bit-identical transcripts, events,
// results, and slot counts.
func runIdentityCase(t *testing.T, name string, pos []geo.Point, p model.Params, cfg Config, values []int64, op agg.Op, seed uint64, spec fault.Spec) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		type outcome struct {
			res    []Result
			events []sim.Event
			trace  []txRec
		}
		run := func(stepped bool) outcome {
			pl := NewPlan(p, cfg)
			e := sim.NewEngine(phy.NewField(p, pos), seed)
			if !spec.Zero() {
				e.Faults = fault.NewInjector(spec, seed+1, len(pos), p.Channels, pl.Offsets.End)
			}
			var trace []txRec
			e.Trace = captureTrace(&trace)
			var (
				res []Result
				err error
			)
			if stepped {
				res, err = RunStepped(e, pl, values, op, seed)
			} else {
				res, err = Run(e, pl, values, op, seed)
			}
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res: res, events: sortedEvents(e.Events()), trace: trace}
		}
		g, s := run(false), run(true)
		if !reflect.DeepEqual(g.res, s.res) {
			for i := range g.res {
				if g.res[i] != s.res[i] {
					t.Fatalf("node %d result differs:\n goroutine %+v\n stepped   %+v", i, g.res[i], s.res[i])
				}
			}
		}
		if !reflect.DeepEqual(g.events, s.events) {
			t.Fatalf("events differ: goroutine %d vs stepped %d entries", len(g.events), len(s.events))
		}
		if len(g.trace) != len(s.trace) {
			t.Fatalf("transcript lengths differ: %d vs %d", len(g.trace), len(s.trace))
		}
		for i := range g.trace {
			if !reflect.DeepEqual(g.trace[i], s.trace[i]) {
				t.Fatalf("transcript diverges at slot %d:\n goroutine %+v\n stepped   %+v",
					g.trace[i].Slot, g.trace[i], s.trace[i])
			}
		}
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

// TestRunSteppedIdentity pins the tentpole guarantee at the pipeline level:
// the Stepper port of every stage reproduces the goroutine pipeline's
// transcript bit for bit — across both CSA variants, multi-cluster fields,
// and fault injection.
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

// TestRunSteppedSlotCount pins that the stepped pipeline consumes exactly
// the plan's slot budget, like the goroutine form.
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
	slots, err := e.RunSteppers(steppers)
	if err != nil {
		t.Fatal(err)
	}
	if slots != pl.Offsets.End {
		t.Errorf("stepped pipeline consumed %d slots, plan says %d", slots, pl.Offsets.End)
	}
}
