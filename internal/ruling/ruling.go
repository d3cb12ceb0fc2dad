// Package ruling implements the paper's symmetry-breaking primitive, the
// HELLO/ACK/IN contention process of the Sec. 4 ruling set, compiled as one
// of two stages:
//
//   - NewStage: the (r, 2r)-ruling set of Sec. 4 (second phase). Given
//     participants whose density within r-balls is bounded by µ, it
//     computes a subset S that is r-independent and 2r-dominates the
//     participants, in O(log n) three-slot rounds w.h.p.
//   - NewDominatingStage: the r_c-dominating set of constant density that
//     heads the aggregation structure (Sec. 5.1.1), together with the
//     clustering function assigning every node a dominator within r_c. The
//     paper adopts the protocol of Scheideler, Richa and Santi [28] as a
//     black box; this stage is an equivalent substrate (deviation D2 in the
//     mcnet package documentation) that adds per-phase HELLO probability
//     doubling from 1/n̂ up to the cap 1/(2µ), so it works at unbounded
//     density without degree knowledge, and periodic IN re-announcements
//     by dominators, so stragglers join existing clusters instead of
//     founding new ones.
//
// Each round has three slots on one channel:
//
//	Slot 1 — HELLO: each undecided node transmits HELLO(id) with its
//	         phase's probability; others listen.
//	Slot 2 — ACK: a node outside S with a *clear reception* (Definition 4)
//	         of a HELLO from an r-neighbor transmits ACK(sender) with
//	         probability ackProb; the HELLO sender listens.
//	Slot 3 — IN: a HELLO sender that received an ACK addressed to it from
//	         an r-neighbor joins S and announces IN(id). Everyone else
//	         listens; an undecided node receiving IN from an r-neighbor is
//	         dominated by its sender (Lemma 5).
//
// Nodes still undecided after all rounds join S by themselves
// (self-appointed). In the ruling set a decided node halts and sleeps to
// the end of the window. In the dominating set it keeps acting: members
// re-announce IN with probability reannounceProb, and dominated nodes keep
// acknowledging HELLOs.
//
// A Stage compiles one execution's slot window, and RunFrag consumes
// exactly that window, so staged pipelines stay slot-aligned.
package ruling

import (
	"math"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Hello is the slot-1 probe of an undecided node.
type Hello struct {
	From int
}

// Ack is the slot-2 confirmation addressed to a HELLO sender.
type Ack struct {
	To int
}

// In is the slot-3 announcement of a (new or established) member of S.
type In struct {
	From int
}

// Protocol constants (deviation D1 in the mcnet package documentation).
const (
	// channel is the one channel every node operates on.
	channel int = 0
	// ackProb is the slot-2 acknowledgement probability. The paper uses
	// 1/(2µ) as well; 1/2 suffices since clear receivers of distinct
	// HELLOs are already spatially sparse.
	ackProb float64 = 0.5
	// rulingMu is the ruling set's density bound µ: the HELLO probability
	// is 1/(2µ).
	rulingMu float64 = 3
	// rulingRoundFactor scales the ruling set's rounds: ⌈k·ln n̂⌉.
	rulingRoundFactor float64 = 14
	// domMu is the dominating set's µ: its doubling HELLO probability is
	// capped at 1/(2µ).
	domMu float64 = 4
	// domRoundFactor scales the dominating set's rounds per doubling
	// phase: ⌈k·ln n̂⌉.
	domRoundFactor float64 = 4
	// reannounceProb is the probability a dominator repeats IN in slot 3
	// of a round.
	reannounceProb float64 = 0.25
)

// Stage is one execution compiled for one run: its slot window, its
// reception filter and its per-phase HELLO probabilities.
type Stage struct {
	sim.Window
	reach      phy.Reach // within the independence (dominating) radius r
	rounds     int       // rounds per phase
	probs      []float64 // HELLO probability per phase
	reannounce float64   // a member's IN probability per round; 0 halts decided nodes
}

// NewStage compiles the Sec. 4 ruling set under p starting at slot start:
// one phase of ⌈rulingRoundFactor·ln n̂⌉ rounds at HELLO probability
// 1/(2µ). reach filters receptions at the independence radius r ≤ R_T/2.
func NewStage(p model.Params, reach phy.Reach, start int) Stage {
	rounds := int(math.Ceil(rulingRoundFactor * p.LogN()))
	return newStage(reach, start, rounds, []float64{1 / (2 * rulingMu)}, 0)
}

// NewDominatingStage compiles the dominating set under p starting at slot
// start: ⌈log₂ n̂⌉ phases of ⌈domRoundFactor·ln n̂⌉ rounds, the HELLO
// probability doubling per phase from 1/n̂ up to 1/(2µ). reach filters
// receptions at the dominating radius (the pipeline's is r_c).
func NewDominatingStage(p model.Params, reach phy.Reach, start int) Stage {
	probs := make([]float64, max(int(math.Ceil(math.Log2(float64(p.NEstimate)))), 0))
	prob := 1 / float64(p.NEstimate)
	for i := range probs {
		probs[i] = prob
		prob = math.Min(prob*2, 1/(2*domMu))
	}
	rounds := int(math.Ceil(domRoundFactor * p.LogN()))
	return newStage(reach, start, rounds, probs, reannounceProb)
}

func newStage(reach phy.Reach, start, rounds int, probs []float64, reannounce float64) Stage {
	return Stage{
		Window:     sim.Window{Start: start, Len: 3 * len(probs) * rounds},
		reach:      reach,
		rounds:     rounds,
		probs:      probs,
		reannounce: reannounce,
	}
}

// Outcome is the per-node result of an execution.
type Outcome struct {
	// Dominator is the ID of the node's member of S: its own ID for
	// members, the IN announcer that decided it otherwise. It is set once
	// RunFrag finishes.
	Dominator int
	// JoinRound is the round, counted from 0 across phases, in which the
	// node's fate was decided; self-appointed members report the stage's
	// total round count.
	JoinRound int32
	// IsDominator reports whether the node joined S (heads a cluster).
	IsDominator bool
	// SelfAppointed reports that the node joined S by finishing the
	// schedule undecided rather than via the ACK handshake.
	SelfAppointed bool
}

// runAwait tags which listen, if any, the fragment's previous slot holds.
type runAwait uint8

const (
	awaitNone runAwait = iota
	awaitHello
	awaitAck
	awaitIn
)

// RunFrag is a node's side of the protocol as a sim.Frag over its Stage's
// window. Out is valid once Feed returns true. Build it with NewRunFrag.
type RunFrag struct {
	Stage *Stage
	Out   Outcome

	clearFrom         int
	sentHello, gotAck bool
	await             runAwait
}

// NewRunFrag returns a node's fragment for st, not yet decided.
func NewRunFrag(st *Stage) RunFrag {
	return RunFrag{Stage: st, Out: Outcome{Dominator: -1}, clearFrom: -1}
}

// Feed implements sim.Frag. An undecided node acts in every slot of the
// window: round k (phase k/rounds) spans its slots [3k, 3k+3).
func (f *RunFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	rel := st.Rel(sc)
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
		if in, ok := rec.Msg.(In); ok && f.Out.Dominator < 0 &&
			st.reach.Within(rec) {
			f.Out.Dominator = in.From
			f.Out.JoinRound = int32(rel/3 - 1)
		}
	}
	f.await = awaitNone

	if rel >= st.Len {
		if f.Out.Dominator < 0 {
			f.Out = Outcome{Dominator: sc.ID(), JoinRound: int32(st.Len / 3), IsDominator: true, SelfAppointed: true}
		}
		return true
	}
	if st.reannounce == 0 && f.Out.Dominator >= 0 {
		sc.IdleFor(st.Len - rel)
		return false
	}

	switch rel % 3 {
	case 0: // HELLO
		f.clearFrom, f.gotAck = -1, false
		f.sentHello = f.Out.Dominator < 0 && sc.Rand.Float64() < st.probs[rel/3/st.rounds]
		if f.sentHello {
			sim.Send(sc, channel, Hello{From: sc.ID()})
		} else {
			sc.Listen(channel)
			f.await = awaitHello
		}
	case 1: // ACK
		switch {
		case f.sentHello:
			sc.Listen(channel)
			f.await = awaitAck
		case f.clearFrom >= 0 && sc.Rand.Float64() < ackProb:
			sim.Send(sc, channel, Ack{To: f.clearFrom})
		default:
			sc.Listen(channel)
		}
	case 2: // IN
		switch {
		case f.sentHello && f.gotAck:
			f.Out.IsDominator = true
			f.Out.Dominator = sc.ID()
			f.Out.JoinRound = int32(rel / 3)
			sim.Send(sc, channel, In{From: sc.ID()})
		case f.Out.IsDominator && sc.Rand.Float64() < st.reannounce:
			sim.Send(sc, channel, In{From: sc.ID()})
		default:
			sc.Listen(channel)
			f.await = awaitIn
		}
	}
	return false
}

// Validate checks the ruling-set postcondition over the participant set:
// members of S are pairwise more than r apart, and every participant is
// within 2r of some member. It returns the number of independence violations
// and the number of undominated participants.
func Validate(pos []geo.Point, participant []bool, inSet []bool, r float64) (violations, undominated int) {
	var members []int
	for i := range pos {
		if participant[i] && inSet[i] {
			members = append(members, i)
		}
	}
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			if pos[members[a]].Dist(pos[members[b]]) <= r {
				violations++
			}
		}
	}
	for i := range pos {
		if !participant[i] || inSet[i] {
			continue
		}
		ok := false
		for _, m := range members {
			if pos[i].Dist(pos[m]) <= 2*r {
				ok = true
				break
			}
		}
		if !ok {
			undominated++
		}
	}
	return violations, undominated
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

// Analyze validates dominating-set outcomes against the geometry.
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
