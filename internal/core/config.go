// Package core assembles the paper's aggregation structure (Sec. 5) and
// executes data aggregation on it (Sec. 6): the primary contribution of
// "Leveraging Multiple Channels in Ad Hoc Networks".
//
// The pipeline runs as a fixed sequence of slot-budgeted stages, every node
// executing the same schedule so clusters stay aligned:
//
//  1. dominate   — r_c-dominating set + clustering (Sec. 5.1.1, channel 0)
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
	"mcnet/internal/dominate"
	"mcnet/internal/model"
	"mcnet/internal/reporter"
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

// Plan holds the fully derived stage configurations and their slot offsets.
type Plan struct {
	Params model.Params
	Cfg    Config

	Dominate dominate.Config
	Color    backbone.ColorConfig
	CSALarge csa.Config
	CSASmall csa.SmallConfig
	UseSmall bool
	Elect    reporter.ElectConfig
	Tree     backbone.TreeConfig

	// AnnounceSlots is the length of the color-dissemination stage.
	AnnounceSlots int
	// FollowerPhases and FollowerGamma size the follower stage: phases ×
	// (Γ rounds + 1 backoff round) × 2 sub-slots × PhiMax stride.
	FollowerPhases, FollowerGamma int
	// Omega is the dominator's backoff threshold per phase.
	Omega int

	// Stage slot offsets (start of each stage) and the total budget.
	Offsets StageOffsets
}

// StageOffsets records where each stage begins in the global slot timeline.
type StageOffsets struct {
	Dominate, Color, Announce, CSA, Elect, Followers, Tree, Backbone, Inform, End int
}

// ClusterRadius returns the membership radius used by intra-cluster filters:
// any two members of one cluster are within 2·r_c of each other.
func (pl *Plan) ClusterRadius() float64 { return 2 * pl.Params.ClusterRadius() }

// NewPlan derives all stage configurations and offsets.
func NewPlan(p model.Params, cfg Config) *Plan {
	if cfg.DeltaHat <= 0 {
		cfg.DeltaHat = p.NEstimate
	}
	if cfg.DeltaHat > p.NEstimate {
		cfg.DeltaHat = p.NEstimate
	}
	pl := &Plan{Params: p, Cfg: cfg}
	rc := p.ClusterRadius()
	memberR := 2 * rc

	pl.Dominate = dominate.DefaultConfig(rc, 0)
	pl.Color = backbone.DefaultColorConfig(p, cfg.PhiMax)

	pl.AnnounceSlots = int(math.Ceil(8 * p.LogN()))

	pl.UseSmall = csa.UseSmall(p, cfg.DeltaHat)
	pl.CSALarge = csa.DefaultConfig(cfg.DeltaHat, memberR)
	pl.CSALarge.Stride = cfg.PhiMax
	pl.CSASmall = csa.DefaultSmallConfig(p, memberR)
	pl.CSASmall.Stride = cfg.PhiMax

	pl.Elect = reporter.DefaultElectConfig(memberR)
	pl.Elect.Stride = cfg.PhiMax

	pl.FollowerGamma = int(math.Ceil(gamma2 * p.LogN()))
	pl.Omega = int(math.Ceil(omega2 * p.LogN()))
	throughput := float64(p.Channels) * p.LogN()
	pl.FollowerPhases = int(math.Ceil(math.Log2(float64(max2(cfg.DeltaHat, 2))))) +
		int(math.Ceil(float64(cfg.DeltaHat)/throughput)) +
		extraFollowerPhases

	pl.Tree = backbone.DefaultTreeConfig(p, cfg.PhiMax, cfg.HopBound)

	// Stage offsets.
	o := &pl.Offsets
	o.Dominate = 0
	o.Color = o.Dominate + pl.Dominate.SlotBudget(p)
	o.Announce = o.Color + pl.Color.SlotBudget(p)
	o.CSA = o.Announce + pl.AnnounceSlots
	csaBudget := pl.CSALarge.SlotBudget(p)
	if pl.UseSmall {
		csaBudget = pl.CSASmall.SlotBudget(p)
	}
	o.Elect = o.CSA + csaBudget
	o.Followers = o.Elect + pl.Elect.SlotBudget(p)
	o.Tree = o.Followers + pl.followerBudget()
	o.Backbone = o.Tree + pl.castBudget()
	o.Inform = o.Backbone + pl.Tree.SlotBudget()
	o.End = o.Inform + cfg.PhiMax
	return pl
}

// followerBudget is the slot cost of the follower-aggregation stage.
func (pl *Plan) followerBudget() int {
	return pl.FollowerPhases * (pl.FollowerGamma + 1) * 2 * pl.Cfg.PhiMax
}

// castBudget is the slot cost of the reporter-tree convergecast stage, which
// must cover the deepest possible tree (f_v up to F).
func (pl *Plan) castBudget() int {
	cast := reporter.DefaultCastConfig(pl.Params.Channels, pl.ClusterRadius())
	cast.Stride = pl.Cfg.PhiMax
	return cast.SlotBudget()
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
