package core

import (
	"context"
	"fmt"

	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// ColorMsg disseminates a cluster's color from its dominator.
type ColorMsg struct {
	Dom, Color int
}

// FollowerMsg carries a follower's value to a reporter (Sec. 6, first
// procedure).
type FollowerMsg struct {
	From, Dom int
	Value     int64
}

// PayloadValue exposes the follower's value to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m FollowerMsg) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m FollowerMsg) WithPayloadValue(v int64) any { m.Value = v; return m }

// FollowerAck confirms receipt of a follower's value.
type FollowerAck struct {
	To, Dom int
}

// Backoff is the dominator's congestion signal on the first channel.
type Backoff struct {
	Dom int
}

// FinalMsg announces the network-wide aggregate within a cluster.
type FinalMsg struct {
	Dom   int
	Value int64
}

// PayloadValue exposes the announced aggregate to the fault layer's
// Byzantine corruption hook (fault.Payload).
func (m FinalMsg) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m FinalMsg) WithPayloadValue(v int64) any { m.Value = v; return m }

// Event names emitted by the pipeline (see also the backbone package's
// "backbone-agg" and "backbone-result").
const (
	// EventAcked fires when a follower's value is first acknowledged.
	EventAcked = "acked"
	// EventClusterAgg fires at a dominator once its cluster aggregate is
	// complete (end of the reporter-tree pass).
	EventClusterAgg = "cluster-agg"
	// EventInformed fires when a node learns the final aggregate.
	EventInformed = "informed"
)

// Result is the per-node outcome of a pipeline run.
type Result struct {
	// Value is the network aggregate the node learned; Ok reports whether
	// it learned one.
	Value int64
	Ok    bool
	// IsDominator, Dominator, Color, SizeEst, Channel, IsReporter describe
	// the node's place in the aggregation structure.
	IsDominator bool
	Dominator   int
	Color       int
	SizeEst     int
	Channel     int
	IsReporter  bool
}

// Run executes the full pipeline over the engine's field: structure
// construction followed by data aggregation of values under op. It returns
// the per-node results; timings are available via the engine's events and
// the plan's stage offsets.
func Run(e *sim.Engine, pl *Plan, values []int64, op agg.Op, seed uint64) ([]Result, error) {
	return RunContext(context.Background(), e, pl, values, op, seed)
}

// RunContext is like Run but aborts promptly with ctx.Err() when ctx is
// cancelled mid-run. A values slice whose length differs from the node
// count is an error: silently substituting zeros would corrupt the
// aggregate while the run still "succeeds".
//
// The plan's Cfg.Exec decides how the node code executes: goroutine
// programs or — the default — the goroutine-free Stepper form
// (RunSteppedContext). The transcript is bit-identical either way; only
// memory and wall-clock differ.
func RunContext(ctx context.Context, e *sim.Engine, pl *Plan, values []int64, op agg.Op, seed uint64) ([]Result, error) {
	n := e.Field().N()
	if pl.Cfg.Exec.Stepped() {
		return RunSteppedContext(ctx, e, pl, values, op, seed)
	}
	if len(values) != n {
		return nil, fmt.Errorf("core: %d values for %d nodes", len(values), n)
	}
	res := make([]Result, n)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		progs[i] = pl.program(i, values[i], op, res)
	}
	_ = seed
	if _, err := e.RunContext(ctx, progs); err != nil {
		return nil, err
	}
	return res, nil
}

// fv returns the cluster's channel count f_v = min(⌈est/(C1·ln n̂)⌉, F),
// at least 1 (Sec. 5.2).
func (pl *Plan) fv(est int) int {
	if est < 1 {
		return 1
	}
	f := int(float64(est)/(pl.Cfg.C1*pl.Params.LogN())) + 1
	if f > pl.Params.Channels {
		f = pl.Params.Channels
	}
	if f < 1 {
		f = 1
	}
	return f
}

// program builds node i's pipeline program: structure build, then the three
// aggregation procedures, then the inform stage.
func (pl *Plan) program(i int, value int64, op agg.Op, res []Result) sim.Program {
	return func(ctx *sim.Ctx) {
		r := &res[i]

		// Stages 1-5: structure construction.
		st := pl.BuildStage(ctx)
		r.IsDominator = st.IsDominator()
		r.Dominator = st.Dom.Dominator
		r.Color = st.Color
		r.SizeEst = st.Est
		r.Channel = st.Channel
		r.IsReporter = st.IsReporter()

		// Stage 6: followers → reporters.
		got, _ := pl.FollowerStage(ctx, st, value)

		// Stage 7: reporter-tree convergecast to the dominator.
		cast := pl.CastConfig(st.Off)
		var clusterAgg int64
		if st.Role >= 0 {
			castVal := value
			for _, v := range got {
				castVal = op.Combine(castVal, v)
			}
			cs := reporter.RunCastUp(ctx, cast, st.Role, st.Dom.Dominator, castVal, op)
			if st.Role == 0 {
				clusterAgg = cs.Value
				ctx.Emit(EventClusterAgg, 0)
			}
		} else {
			reporter.IdleCast(ctx, cast)
		}

		// Stage 8: inter-cluster aggregation over the backbone.
		var final int64
		informed := false
		if st.IsDominator() {
			out := backbone.RunTree(ctx, pl.Tree, st.Off, clusterAgg, op)
			final, informed = out.Result, out.Done
		} else {
			backbone.IdleTree(ctx, pl.Tree)
		}

		// Stage 9: dominators inform their clusters.
		final, informed = pl.InformStage(ctx, st, final, informed)
		if informed {
			r.Value, r.Ok = final, true
			ctx.Emit(EventInformed, 0)
		}
	}
}

// runAnnounce is stage 3: dominators repeatedly announce their color on
// channel 0; members learn their cluster's color. Returns the node's color
// (dominators: their own; members: the learned one, or 0 if missed).
func (pl *Plan) runAnnounce(ctx *sim.Ctx, dom dominate.Outcome, ownColor int) int {
	p := pl.Params
	if dom.IsDominator {
		for s := 0; s < pl.AnnounceSlots; s++ {
			if ctx.Rand.Float64() < 0.2 {
				ctx.Transmit(0, ColorMsg{Dom: ctx.ID(), Color: ownColor})
			} else {
				ctx.Idle()
			}
		}
		return ownColor
	}
	color := -1
	for s := 0; s < pl.AnnounceSlots; s++ {
		if color >= 0 {
			ctx.Idle()
			continue
		}
		rec := ctx.Listen(0)
		if m, ok := rec.Msg.(ColorMsg); ok && m.Dom == dom.Dominator &&
			phy.SenderWithin(rec, p, p.ClusterRadius()) {
			color = m.Color
		}
	}
	if color < 0 {
		color = 0 // degraded: TDMA misalignment possible, but keep going
	}
	return color
}

// runCSA is stage 4: the Lemma 14 chooser between the two CSA variants.
func (pl *Plan) runCSA(ctx *sim.Ctx, dom dominate.Outcome, off int) int {
	if pl.UseSmall {
		cfg := pl.CSASmall
		cfg.Offset = off
		if dom.IsDominator {
			return csa.RunSmallDominator(ctx, cfg)
		}
		return csa.RunSmallDominatee(ctx, cfg, dom.Dominator)
	}
	cfg := pl.CSALarge
	cfg.Offset = off
	if dom.IsDominator {
		return csa.RunDominator(ctx, cfg, ctx.ID()) + 1 // members + self
	}
	est := csa.RunDominatee(ctx, cfg, dom.Dominator)
	if est > 0 {
		est++
	}
	return est
}
