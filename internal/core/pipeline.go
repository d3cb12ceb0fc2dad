package core

import (
	"context"
	"fmt"

	"mcnet/internal/agg"
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
	// complete: in the step its reporter-tree root folds the last level.
	EventClusterAgg = "cluster-agg"
	// EventInformed fires when a node learns the final aggregate: a
	// dominator when the backbone hands it the result, a member when it
	// decodes its dominator's announcement.
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

// RunContext executes the full pipeline over the engine's field: structure
// construction followed by data aggregation of values under op. It returns
// the per-node results (RunSummary also measures the run) and aborts
// promptly with ctx.Err() when ctx is cancelled mid-run. A values slice
// whose length differs from the node count is an error: silently
// substituting zeros would corrupt the aggregate while the run still
// "succeeds". seed is unused: all randomness flows from the engine's seed.
func RunContext(ctx context.Context, e *sim.Engine, pl *Plan, values []int64, op agg.Op, seed uint64) ([]Result, error) {
	n := e.Field().N()
	if len(values) != n {
		return nil, fmt.Errorf("core: %d values for %d nodes", len(values), n)
	}
	steppers := make([]sim.Stepper, n)
	arena := make([]pipelineStepper, n) // one allocation for all nodes
	for i := 0; i < n; i++ {
		arena[i] = pipelineStepper{build: BuildFrag{Pl: pl, Value: values[i]}, op: op}
		steppers[i] = &arena[i]
	}
	_ = seed
	if _, err := e.RunContext(ctx, steppers); err != nil {
		return nil, err
	}
	res := make([]Result, n)
	for i := range arena {
		arena[i].result(&res[i])
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
