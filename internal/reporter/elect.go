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

// Election constants (deviation D1 in the mcnet package documentation).
const (
	// txProb is the per-round transmission probability of a node that
	// still believes itself the minimum.
	txProb float64 = 0.25
	// roundFactor scales the stage: rounds = ⌈roundFactor·ln n̂⌉.
	roundFactor float64 = 10
)

// ElectStage is an election compiled for one run.
type ElectStage struct {
	sim.Window
	reach  phy.Reach // within the cluster radius
	stride int       // at least 1
}

// NewElectStage compiles the election under p starting at slot start:
// ⌈roundFactor·ln n̂⌉ rounds of stride slots. reach bounds the distance to
// co-members (the pipeline's is 2·r_c); senders beyond it are ignored.
// stride interleaves clusters under the TDMA scheme: each node acts in its
// own offset of every round; stride 0 means 1.
func NewElectStage(p model.Params, reach phy.Reach, stride, start int) ElectStage {
	stride = max(stride, 1)
	return ElectStage{
		Window: sim.Window{Start: start, Len: stride * int(math.Ceil(roundFactor*p.LogN()))},
		reach:  reach,
		stride: stride,
	}
}

// ElectFrag runs the election on the given physical channel for a member
// of cluster Dom, acting in offset Off of every round. Min is the node's
// current minimum and starts as its own ID; once Feed returns true it is
// the elected reporter's ID — the minimum ID among members that chose the
// channel, w.h.p. — which equals the node's own ID exactly when it is the
// reporter. It consumes exactly its Stage's window; non-members sleep
// through the window.
type ElectFrag struct {
	Stage        *ElectStage
	Off          int
	Channel, Dom int
	Min          int

	awaitCand bool
}

// Feed implements sim.Frag. The member acts in every round's act slot and
// sleeps between them.
func (f *ElectFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	if f.awaitCand {
		f.awaitCand = false
		rec := sc.Prev()
		if c, ok := rec.Msg.(Cand); ok && c.Dom == f.Dom && c.From < f.Min &&
			st.reach.Within(rec) {
			f.Min = c.From
		}
	}
	rel := st.Rel(sc)
	if rel >= st.Len {
		return true
	}
	r := sim.Rounds{Stride: st.stride, Offset: f.Off}
	if at := min(r.At(r.Next(rel)), st.Len); at > rel {
		sc.IdleFor(at - rel)
		return false
	}
	if f.Min == sc.ID() && sc.Rand.Float64() < txProb {
		sim.Send(sc, f.Channel, Cand{From: sc.ID(), Dom: f.Dom})
	} else {
		sc.Listen(f.Channel)
		f.awaitCand = true
	}
	return false
}
