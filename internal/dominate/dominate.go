// Package dominate computes the r_c-dominating set of constant density that
// heads the paper's aggregation structure (Sec. 5.1.1), together with the
// clustering function assigning every node a dominator within distance r_c.
//
// The paper adopts the O(log n) protocol of Scheideler, Richa and Santi [28]
// as a black box. This package implements an equivalent substrate (deviation
// D2 in the mcnet package documentation): a HELLO/ACK/IN contention process in the style of the
// Sec. 4 ruling-set algorithm, extended with
//
//   - per-phase probability doubling from 1/n̂ up to the cap 1/(2µ), so the
//     process works at unbounded node density without degree knowledge, and
//   - periodic IN re-announcements by established dominators, so stragglers
//     are absorbed into existing clusters instead of founding new ones.
//
// Rounds have three slots: HELLO (probe), ACK (clear receivers confirm), IN
// (confirmed probers join the dominating set / dominators re-announce).
// A node that finishes the schedule neither dominated nor dominating
// appoints itself dominator, guaranteeing coverage; re-announcements make
// this rare outside genuinely isolated spots.
package dominate

import (
	"math"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Hello is the slot-1 probe of a candidate node.
type Hello struct {
	From int
}

// Ack is the slot-2 confirmation addressed to a probing candidate.
type Ack struct {
	To int
}

// In is the slot-3 announcement of a (new or established) dominator.
type In struct {
	From int
}

// Protocol constants (deviation D1 in the mcnet package documentation).
const (
	// channel is the one channel every node operates on.
	channel int = 0
	// mu is the density bound µ: the HELLO probability is capped at 1/(2µ).
	mu float64 = 4
	// ackProb is the probability with which a clear receiver confirms.
	ackProb float64 = 0.5
	// reannounceProb is the probability an established dominator repeats
	// IN in slot 3 of a round.
	reannounceProb float64 = 0.25
	// roundFactor scales rounds per phase: ⌈roundFactor·ln n̂⌉.
	roundFactor float64 = 4
)

// Outcome is the per-node result of the construction.
type Outcome struct {
	// IsDominator reports whether the node heads a cluster.
	IsDominator bool
	// Dominator is the ID of the node's cluster head (its own ID for
	// dominators). It is always set once RunFrag finishes.
	Dominator int
	// SelfAppointed reports that the node became a dominator by exhausting
	// the schedule uncovered rather than via the ACK handshake.
	SelfAppointed bool
}

// Stage is the construction compiled for one run: its slot window, its
// reception filter and its per-phase HELLO probabilities.
type Stage struct {
	sim.Window
	reach  phy.Reach // within the dominating radius
	rounds int       // rounds per phase, ⌈roundFactor·ln n̂⌉
	probs  []float64 // HELLO probability per phase, doubling from 1/n̂ to 1/(2µ)
}

// NewStage compiles the construction under p starting at slot start: ⌈log₂
// n̂⌉ phases of rounds three-slot rounds each. reach filters receptions at
// the dominating radius (the pipeline's is r_c).
func NewStage(p model.Params, reach phy.Reach, start int) Stage {
	phases := int(math.Ceil(math.Log2(float64(p.NEstimate))))
	rounds := int(math.Ceil(roundFactor * p.LogN()))
	st := Stage{
		Window: sim.Window{Start: start, Len: 3 * phases * rounds},
		reach:  reach,
		rounds: rounds,
		probs:  make([]float64, max(phases, 0)),
	}
	prob := 1 / float64(p.NEstimate)
	for i := range st.probs {
		st.probs[i] = prob
		prob = math.Min(prob*2, 1/(2*mu))
	}
	return st
}

// runAwait tags which listen, if any, the fragment's previous slot holds.
type runAwait uint8

const (
	awaitNone runAwait = iota
	awaitHello
	awaitAck
	awaitIn
)

// RunFrag executes the node's side of the dominating-set construction as a
// sim.Frag over its Stage's window. Out is valid once Feed returns true.
// Build it with NewRunFrag.
type RunFrag struct {
	Stage *Stage
	Out   Outcome

	clearFrom         int
	sentHello, gotAck bool
	await             runAwait
}

// NewRunFrag returns a node's fragment for st, not yet dominated.
func NewRunFrag(st *Stage) RunFrag {
	return RunFrag{Stage: st, Out: Outcome{Dominator: -1}, clearFrom: -1}
}

// Feed implements sim.Frag. The node acts in every slot of the window:
// round k of phase k/rounds spans its slots [3k, 3k+3).
func (f *RunFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	// Consume the previous slot's reception before acting (or drawing).
	switch f.await {
	case awaitHello:
		rec := sc.Prev()
		if h, ok := rec.Msg.(Hello); ok && !f.Out.IsDominator &&
			st.reach.Clear(rec) {
			f.clearFrom = h.From
		}
	case awaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(Ack); ok && a.To == sc.ID() &&
			st.reach.Within(rec) {
			f.gotAck = true
		}
	case awaitIn:
		rec := sc.Prev()
		if in, ok := rec.Msg.(In); ok && f.Out.Dominator == -1 &&
			st.reach.Within(rec) {
			f.Out.Dominator = in.From
		}
	}
	f.await = awaitNone

	rel := st.Rel(sc)
	if rel >= st.Len {
		if f.Out.Dominator == -1 {
			f.Out.IsDominator = true
			f.Out.SelfAppointed = true
			f.Out.Dominator = sc.ID()
		}
		return true
	}

	switch rel % 3 {
	case 0: // HELLO
		candidate := f.Out.Dominator == -1 && !f.Out.IsDominator
		f.sentHello = candidate && sc.Rand.Float64() < st.probs[rel/3/st.rounds]
		f.clearFrom = -1
		if f.sentHello {
			sc.Transmit(channel, Hello{From: sc.ID()})
		} else {
			sc.Listen(channel)
			f.await = awaitHello
		}
	case 1: // ACK
		f.gotAck = false
		switch {
		case f.sentHello:
			sc.Listen(channel)
			f.await = awaitAck
		case f.clearFrom >= 0 && sc.Rand.Float64() < ackProb:
			sc.Transmit(channel, Ack{To: f.clearFrom})
		default:
			sc.Listen(channel)
		}
	case 2: // IN
		switch {
		case f.sentHello && f.gotAck:
			f.Out.IsDominator = true
			f.Out.Dominator = sc.ID()
			sc.Transmit(channel, In{From: sc.ID()})
		case f.Out.IsDominator && sc.Rand.Float64() < reannounceProb:
			sc.Transmit(channel, In{From: sc.ID()})
		default:
			sc.Listen(channel)
			f.await = awaitIn
		}
	}
	return false
}

// Stats summarizes a constructed dominating set for validation and the E9
// experiment.
type Stats struct {
	// Dominators is the number of cluster heads.
	Dominators int
	// SelfAppointed counts dominators created by the fallback rule.
	SelfAppointed int
	// MaxDensity is the maximum number of dominators in any R-ball centered
	// at a dominator (the paper's density µ).
	MaxDensity int
	// Uncovered counts nodes whose assigned dominator is farther than R
	// (zero for a correct run).
	Uncovered int
	// MaxClusterSize is the largest cluster (dominator plus dominatees).
	MaxClusterSize int
}

// Analyze validates outcomes against the geometry.
func Analyze(pos []geo.Point, out []Outcome, r float64) Stats {
	var s Stats
	var dom []geo.Point
	clusterSize := make(map[int]int)
	for i, o := range out {
		if o.IsDominator {
			s.Dominators++
			if o.SelfAppointed {
				s.SelfAppointed++
			}
			dom = append(dom, pos[i])
		}
		if o.Dominator < 0 || !out[o.Dominator].IsDominator ||
			pos[i].Dist(pos[o.Dominator]) > r {
			s.Uncovered++
		}
		clusterSize[o.Dominator]++
	}
	if len(dom) > 0 {
		s.MaxDensity = geo.MaxBallCount(dom, r)
	}
	for _, c := range clusterSize {
		if c > s.MaxClusterSize {
			s.MaxClusterSize = c
		}
	}
	return s
}
