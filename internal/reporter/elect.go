// Package reporter implements the intra-cluster channel structure of
// Sec. 5.2.2: electing one reporter per (cluster, channel) and organizing
// the reporters into a complete binary tree keyed by channel number (a
// binary heap with the dominator as root), over which values are
// convergecast to the dominator (and, for the coloring algorithm of Sec. 7,
// ranges are distributed back down).
//
// Election uses min-ID gossip per (cluster, channel) instead of the paper's
// ruling-set invocation (deviation D6 in the mcnet package documentation):
// all members of a cluster share one r_c-ball, so the channel population is
// a single-hop environment in which the smallest ID propagates to everyone
// in O(log n) rounds w.h.p. The postcondition is the paper's: exactly one
// reporter per non-empty channel.
//
// Tree role numbering: the dominator is role 0; the reporter elected on
// physical channel c has role c+1; the parent of role k is ⌊k/2⌋; role
// k ≥ 1 operates on channel k-1. Role 1 therefore talks to the dominator on
// channel 0, the paper's "special first channel".
package reporter

import (
	"math"

	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Cand is the election gossip message.
type Cand struct {
	From int
	Dom  int // cluster identity (dominator ID)
}

// ElectConfig parameterizes the per-channel leader election.
type ElectConfig struct {
	// ClusterRadius bounds the distance to co-members (the pipeline passes
	// 2·r_c); senders beyond it are ignored.
	ClusterRadius float64
	// TxProb is the per-round transmission probability of a node that still
	// believes itself the minimum.
	TxProb float64
	// RoundFactor scales the stage: rounds = ceil(RoundFactor·ln n̂).
	RoundFactor float64
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// DefaultElectConfig returns the pipeline configuration.
func DefaultElectConfig(clusterRadius float64) ElectConfig {
	return ElectConfig{
		ClusterRadius: clusterRadius,
		TxProb:        0.25,
		RoundFactor:   10,
		Stride:        1,
	}
}

func (c ElectConfig) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// Rounds returns the number of election rounds.
func (c ElectConfig) Rounds(p model.Params) int {
	return int(math.Ceil(c.RoundFactor * p.LogN()))
}

// SlotBudget returns the exact number of slots an election consumes.
func (c ElectConfig) SlotBudget(p model.Params) int {
	return c.stride() * c.Rounds(p)
}

// ElectFrag runs the election on the given physical channel for a member
// of cluster Dom. Min is the node's current minimum; once Feed returns
// true it is the elected reporter's ID — the minimum ID among members that
// chose the channel, w.h.p. — which equals the node's own ID exactly when
// it is the reporter. It consumes exactly Cfg.SlotBudget slots;
// non-members idle through the budget with a sim.IdleFrag.
type ElectFrag struct {
	Cfg          ElectConfig
	Channel, Dom int
	Min          int

	init, awaitCand bool
	reach           phy.Reach // Cfg.ClusterRadius
	start, total    int
}

// Feed implements sim.Frag. The member acts in every round's act slot and
// sleeps between them.
func (f *ElectFrag) Feed(sc *sim.StepCtx) bool {
	if !f.init {
		p := sc.Params()
		f.init = true
		f.reach = phy.NewReach(p, f.Cfg.ClusterRadius)
		f.start = sc.Slot()
		f.total = f.Cfg.SlotBudget(p)
		f.Min = sc.ID()
	}
	if f.awaitCand {
		f.awaitCand = false
		rec := sc.Prev()
		if c, ok := rec.Msg.(Cand); ok && c.Dom == f.Dom && c.From < f.Min &&
			f.reach.Within(rec) {
			f.Min = c.From
		}
	}
	rel := sc.Slot() - f.start
	if rel >= f.total {
		return true
	}
	r := sim.Rounds{Stride: f.Cfg.stride(), Offset: f.Cfg.Offset}
	if at := min(r.At(r.Next(rel)), f.total); at > rel {
		sc.IdleFor(at - rel)
		return false
	}
	if f.Min == sc.ID() && sc.Rand.Float64() < f.Cfg.TxProb {
		sc.Transmit(f.Channel, Cand{From: sc.ID(), Dom: f.Dom})
	} else {
		sc.Listen(f.Channel)
		f.awaitCand = true
	}
	return false
}
