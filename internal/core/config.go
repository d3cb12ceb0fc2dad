// Package core assembles the paper's aggregation structure (Sec. 5) and
// executes data aggregation on it (Sec. 6): the primary contribution of
// "Leveraging Multiple Channels in Ad Hoc Networks".
//
// The pipeline runs as a fixed sequence of slot-budgeted stages, every node
// executing the same schedule so clusters stay aligned:
//
//  1. dominate   — r_c-dominating set + clustering (Sec. 5.1.1, channel 0):
//     the ruling package's HELLO/ACK/IN primitive, NewDominatingStage
//  2. color      — cluster coloring of dominators (Sec. 5.1.2)
//  3. announce   — dominators disseminate cluster colors (enables TDMA)
//  4. csa        — cluster-size approximation (Sec. 5.2.1 / Appendix A)
//  5. elect      — reporter election on f_v channels (Sec. 5.2.2)
//  6. followers  — followers → reporters with backoff control (Sec. 6)
//  7. tree       — reporter-tree convergecast to dominators (Sec. 6)
//  8. backbone   — inter-cluster aggregation + result flood (Sec. 6, [2])
//  9. inform     — dominators announce the result to their clusters
//
// Stage budgets are conservative envelopes; actual completion is observed
// through sim events ("acked", "informed", "backbone-agg"), which
// RunSummary measures for the facade and the experiments alike.
package core

import (
	"math"

	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/ruling"
	"mcnet/internal/sim"
)

// Config parameterizes the full pipeline.
type Config struct {
	// DeltaHat is the global upper bound on cluster sizes (≤ n̂; the paper's
	// Δ̂). It sizes the CSA and follower stages.
	DeltaHat int
	// C1 scales channels per cluster: f_v = min(⌈est/(C1·ln n̂)⌉, F). The
	// paper uses c₁ = 24; 1.0 is the practical default (deviation D1 in the
	// mcnet package documentation).
	C1 float64
	// PhiMax is the agreed TDMA period (an upper bound on cluster colors).
	PhiMax int
	// HopBound bounds the backbone hop diameter, sizing backbone budgets.
	HopBound int
	// DisableBackoff removes the dominator's congestion signal from the
	// follower stage (ablation A1): transmission probabilities then double
	// unchecked and Bounded Contention (Definition 17) is not maintained.
	DisableBackoff bool
}

// Follower-stage constants of Sec. 6.
const (
	// gamma2 scales follower-phase length: Γ = ⌈γ₂·ln n̂⌉ rounds.
	gamma2 = 5
	// omega2 scales the dominator's backoff threshold: Ω = ⌈ω₂·ln n̂⌉
	// messages per phase.
	omega2 = 1
	// lambda is the contention target λ = 1/2.
	lambda = 0.5
	// extraFollowerPhases pads the follower stage beyond the computed
	// doubling+throughput phases.
	extraFollowerPhases = 4
)

// DefaultConfig returns the pipeline configuration for the given model.
func DefaultConfig(p model.Params) Config {
	return Config{
		DeltaHat: p.NEstimate,
		C1:       1.0,
		PhiMax:   10,
		HopBound: 8,
	}
}

// Plan holds the pipeline's compiled stages: every run constant a stage
// derives from the model and the sizing — its slot window, reception
// filters, round strides, counts and probability tables — computed once,
// where the plan is built, and shared by every node's fragments.
type Plan struct {
	Params model.Params
	Cfg    Config

	// The stages in slot order; each window starts where the previous one
	// ends. UseSmall picks the CSA variant (Lemma 14): CSASmall when set,
	// CSALarge otherwise; only the picked one is compiled.
	Dominate  ruling.Stage
	Color     backbone.ColorStage
	Announce  sim.Window
	UseSmall  bool
	CSALarge  csa.Stage
	CSASmall  csa.SmallStage
	Elect     reporter.ElectStage
	Followers followerStage
	Cast      reporter.CastStage
	Tree      backbone.TreeStage
	Inform    sim.Window

	// Offsets records the window starts and the total budget.
	Offsets StageOffsets

	// domReach filters receptions from the node's dominator (within r_c);
	// memberReach those from fellow cluster members (within 2·r_c).
	domReach, memberReach phy.Reach
}

// followerStage is stage 6 compiled: phases of perPhase−1 value rounds and
// one backoff round, each round 2·PhiMax slots.
type followerStage struct {
	sim.Window
	perPhase int // Γ + 1 rounds, Γ = ⌈γ₂·ln n̂⌉
	omega    int // the dominator's backoff threshold per phase, ⌈ω₂·ln n̂⌉
}

// StageOffsets records where each stage begins in the global slot timeline.
type StageOffsets struct {
	Dominate, Color, Announce, CSA, Elect, Followers, Tree, Backbone, Inform, End int
}

// MemberReach is the reception filter for fellow cluster members: any two
// members of one cluster are within 2·r_c of each other.
func (pl *Plan) MemberReach() phy.Reach { return pl.memberReach }

// NewPlan compiles every stage and its window.
func NewPlan(p model.Params, cfg Config) *Plan {
	if cfg.DeltaHat <= 0 {
		cfg.DeltaHat = p.NEstimate
	}
	if cfg.DeltaHat > p.NEstimate {
		cfg.DeltaHat = p.NEstimate
	}
	pl := &Plan{Params: p, Cfg: cfg}
	// The three model radii, each compiled once: r_c to the dominator,
	// 2·r_c between fellow cluster members, R_{ε/2} between adjacent
	// clusters' dominators.
	rc := p.ClusterRadius()
	pl.domReach, pl.memberReach = phy.NewReach(p, rc), phy.NewReach(p, 2*rc)
	backboneReach := phy.NewReach(p, p.REpsHalf())

	pl.Dominate = ruling.NewDominatingStage(p, pl.domReach, 0)
	pl.Color = backbone.NewColorStage(p, backboneReach, cfg.PhiMax, pl.Dominate.End())
	pl.Announce = sim.Window{Start: pl.Color.End(), Len: int(math.Ceil(8 * p.LogN()))}

	var csaEnd int
	pl.UseSmall = csa.UseSmall(p, cfg.DeltaHat)
	if pl.UseSmall {
		pl.CSASmall = csa.NewSmallStage(p, pl.memberReach, cfg.PhiMax, pl.Announce.End())
		csaEnd = pl.CSASmall.End()
	} else {
		pl.CSALarge = csa.NewStage(p, pl.memberReach, cfg.DeltaHat, cfg.PhiMax, pl.Announce.End())
		csaEnd = pl.CSALarge.End()
	}

	pl.Elect = reporter.NewElectStage(p, pl.memberReach, cfg.PhiMax, csaEnd)

	gamma := int(math.Ceil(gamma2 * p.LogN()))
	throughput := float64(p.Channels) * p.LogN()
	phases := int(math.Ceil(math.Log2(float64(max(cfg.DeltaHat, 2))))) +
		int(math.Ceil(float64(cfg.DeltaHat)/throughput)) +
		extraFollowerPhases
	pl.Followers = followerStage{
		Window:   sim.Window{Start: pl.Elect.End(), Len: phases * (gamma + 1) * 2 * cfg.PhiMax},
		perPhase: gamma + 1,
		omega:    int(math.Ceil(omega2 * p.LogN())),
	}

	// The reporter-tree pass covers the deepest possible tree: f_v up to F.
	pl.Cast = reporter.NewCastStage(p, pl.memberReach, cfg.PhiMax, pl.Followers.End())
	pl.Tree = backbone.NewTreeStage(p, backboneReach, backbone.DefaultTreeConfig(p, cfg.PhiMax, cfg.HopBound), pl.Cast.End())
	pl.Inform = sim.Window{Start: pl.Tree.End(), Len: cfg.PhiMax}

	pl.Offsets = StageOffsets{
		Dominate:  pl.Dominate.Start,
		Color:     pl.Color.Start,
		Announce:  pl.Announce.Start,
		CSA:       pl.Announce.End(),
		Elect:     pl.Elect.Start,
		Followers: pl.Followers.Start,
		Tree:      pl.Cast.Start,
		Backbone:  pl.Tree.Start,
		Inform:    pl.Inform.Start,
		End:       pl.Inform.End(),
	}
	return pl
}
