// Package baseline provides the comparison algorithms for the experiment
// suite:
//
//   - SingleChannelTree: distributed single-channel tree aggregation in the
//     style of Li et al. [24] (the O(D + Δ) regime the paper improves on).
//     It is the backbone flood/echo run over every node on one channel,
//     with no multichannel structure.
//   - TDMAByID: a centralized, deterministic round-robin schedule (one
//     transmitter per slot, 2n slots total): the classic interference-free
//     reference point, Θ(n) regardless of Δ, D, or F.
//   - GreedyColors: centralized greedy coloring, the palette-size reference
//     for the coloring experiment.
package baseline

import (
	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/sim"
)

// SingleChannelResult is a node's outcome under SingleChannelTree.
type SingleChannelResult struct {
	Value int64
	Done  bool
}

// SingleChannelTree aggregates values under op over a single channel with
// no clustering: every node participates in one flood/echo tree. deltaHint
// calibrates the transmission probability (the baseline is granted degree
// knowledge, a courtesy the multichannel pipeline does not get). hopBound
// sizes the phase budgets.
func SingleChannelTree(e *sim.Engine, values []int64, op agg.Op, deltaHint, hopBound int) ([]SingleChannelResult, error) {
	p := e.Field().Params()
	n := e.Field().N()
	cfg := backbone.DefaultTreeConfig(p, 1, hopBound)
	cfg.Radius = p.REps()
	prob := 2.0 / float64(max2(deltaHint, 4))
	if prob > 0.4 {
		prob = 0.4
	}
	cfg.FloodProb = prob
	// Without clustering, contention is n-wide and the tree root must serve
	// up to Δ children one acknowledgement at a time: stretch the phases by
	// Δ (the Δ term of single-channel lower bounds) so the run actually
	// completes; the measured completion event reflects the true cost.
	stretch := max2(deltaHint/4, 1)
	cfg.BuildBlocks += 2 * stretch * hopBound
	cfg.ChildBlocks += 8 * deltaHint
	cfg.CastBlocks += 2*stretch*hopBound + 8*deltaHint
	cfg.ResultBlocks += 2 * stretch * hopBound

	out := make([]SingleChannelResult, n)
	steppers := make([]sim.Stepper, n)
	for i := range steppers {
		f := &backbone.TreeFrag{Cfg: cfg, Value: values[i], Op: op}
		steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) {
			out[i] = SingleChannelResult{Value: f.Out.Result, Done: f.Out.Done}
		}}
	}
	if _, err := e.Run(steppers); err != nil {
		return nil, err
	}
	return out, nil
}

// TDMAByID runs the centralized round-robin schedule: slot t < n is owned
// by the node at position t in reverse-BFS order (deepest first), which
// transmits its partial aggregate to its BFS parent; slots n ≤ t < 2n
// broadcast the result down in BFS order. Exactly one node transmits per
// slot, so every in-range reception decodes. Returns the per-node results;
// the run always takes exactly 2n slots.
func TDMAByID(e *sim.Engine, pos []geo.Point, values []int64, op agg.Op) ([]SingleChannelResult, error) {
	p := e.Field().Params()
	n := len(pos)
	sched := buildTDMASchedule(pos, p.REps())
	out := make([]SingleChannelResult, n)
	steppers := make([]sim.Stepper, n)
	arena := make([]tdmaStepper, n)
	for i := 0; i < n; i++ {
		arena[i] = tdmaStepper{sched: &sched, op: op, out: out, have: values[i]}
		steppers[i] = &arena[i]
	}
	if _, err := e.Run(steppers); err != nil {
		return nil, err
	}
	return out, nil
}

type upMsg struct {
	To    int
	Value int64
}

type downMsg struct {
	Value int64
}

// bfsParents derives a parent per node from BFS distances (parent -1 for
// the root and unreachable nodes).
func bfsParents(g *graph.G, dist []int) []int {
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
		if dist[i] <= 0 {
			continue
		}
		for _, j := range g.Neighbors(i) {
			if dist[j] == dist[i]-1 {
				parent[i] = int(j)
				break
			}
		}
	}
	return parent
}

// GreedyColors computes a centralized greedy proper coloring of the
// radius-graph over pos: the palette-size reference for E4.
func GreedyColors(pos []geo.Point, radius float64) []int {
	g := graph.Build(pos, radius)
	colors := make([]int, len(pos))
	for i := range colors {
		colors[i] = -1
	}
	for i := range pos {
		used := map[int]bool{}
		for _, j := range g.Neighbors(i) {
			if colors[j] >= 0 {
				used[colors[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[i] = c
	}
	return colors
}

// MaxColor returns the palette size of a coloring.
func MaxColor(colors []int) int {
	m := 0
	for _, c := range colors {
		if c+1 > m {
			m = c + 1
		}
	}
	return m
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
