// Package ruling implements the (r, 2r)-ruling set algorithm of Sec. 4
// (second phase): given a set of participants whose density within r-balls
// is bounded by µ, it computes a subset S that is r-independent and
// 2r-dominates the participants, in O(log n) three-slot rounds w.h.p.
//
// Each round has three slots on one channel:
//
//	Slot 1 — HELLO: each active participant transmits HELLO(id) with
//	         probability 1/(2µ); others listen.
//	Slot 2 — ACK: a node with a *clear reception* (Definition 4) of a HELLO
//	         from an r-neighbor transmits ACK(sender) with probability
//	         ackProb; the HELLO sender listens.
//	Slot 3 — IN: a HELLO sender that received an ACK addressed to it from an
//	         r-neighbor joins S, announces IN(id) and halts. Everyone else
//	         listens; receiving IN from an r-neighbor halts the node
//	         (it is dominated, Lemma 5). Participants still active after all
//	         rounds join S.
//
// The implementation is a composable stage: NewStage compiles one
// execution's slot window, and RunFrag consumes exactly that window,
// padding with idle slots after the node halts, so staged pipelines stay
// slot-aligned. Config.Stride and each node's offset interleave independent
// executions under the cluster TDMA scheme of Sec. 5.1.2.
package ruling

import (
	"math"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Hello is the slot-1 probe message.
type Hello struct {
	From int
}

// Ack is the slot-2 response addressed to a HELLO sender.
type Ack struct {
	To int
}

// In is the slot-3 announcement of a node joining the ruling set.
type In struct {
	From int
}

// Config parameterizes one ruling-set execution.
type Config struct {
	// Channel all participants operate on.
	Channel int
	// Mu is the assumed density bound µ; the HELLO probability is 1/(2µ).
	Mu float64
	// Stride interleaves executions under the cluster TDMA scheme: a node
	// runs its 3 protocol slots in sub-block Off (its RunFrag's) of each
	// 3·Stride-slot block. Stride 0 means 1 (no interleaving).
	Stride int
}

// Ruling-set constants (deviation D1 in the mcnet package documentation).
const (
	// ackProb is the slot-2 acknowledgement probability. The paper uses
	// 1/(2µ) as well; 1/2 suffices since clear receivers of distinct
	// HELLOs are already spatially sparse.
	ackProb float64 = 0.5
	// roundFactor scales the round count: rounds = ⌈roundFactor·ln n̂⌉.
	roundFactor float64 = 14
)

// DefaultConfig returns the practical configuration of a ruling set on the
// given channel.
func DefaultConfig(channel int) Config {
	return Config{
		Channel: channel,
		Mu:      3,
		Stride:  1,
	}
}

// Stage is one ruling-set execution compiled for one run.
type Stage struct {
	sim.Window
	// Rounds is the number of protocol rounds, ⌈roundFactor·ln n̂⌉.
	Rounds    int
	reach     phy.Reach // within the independence radius r
	channel   int
	stride    int // Config.Stride, at least 1
	helloProb float64
}

// NewStage compiles c under p starting at slot start: Rounds rounds of 3
// slots per stride sub-block. reach filters receptions at the independence
// radius r ≤ R_T/2.
func NewStage(p model.Params, reach phy.Reach, c Config, start int) Stage {
	rounds := int(math.Ceil(roundFactor * p.LogN()))
	stride := max(c.Stride, 1)
	return Stage{
		Window:    sim.Window{Start: start, Len: 3 * stride * rounds},
		Rounds:    rounds,
		reach:     reach,
		channel:   c.Channel,
		stride:    stride,
		helloProb: 1 / (2 * c.Mu),
	}
}

// Outcome is the per-node result of a ruling-set execution.
type Outcome struct {
	// InSet reports whether the node joined the ruling set S.
	InSet bool
	// DominatedBy is the ID of the IN announcer that silenced this node, or
	// -1 (nodes in S, and nodes that joined by surviving all rounds).
	DominatedBy int
	// JoinRound is the protocol round in which the node's fate was decided
	// (rounds count from 0; survivors report the total round count).
	JoinRound int
}

// rulingAwait tags which listen, if any, the fragment's previous slot
// holds.
type rulingAwait uint8

const (
	awaitNone rulingAwait = iota
	awaitHello
	awaitAck
	awaitIn
)

// RunFrag is the participant side of the ruling-set protocol as a
// sim.Frag, in sub-block Off of its Stage's rounds. It consumes exactly the
// Stage's window: a live node acts in the three protocol slots of every
// round and sleeps between them, and a halted node sleeps to the end. Out
// is the node's outcome once Feed returns true. Build it with NewRunFrag.
type RunFrag struct {
	Stage *Stage
	Off   int
	Out   Outcome

	round             int // the round of the node's latest HELLO slot
	clearFrom         int
	halted            bool // joined S or was dominated
	sentHello, gotAck bool
	await             rulingAwait
}

// NewRunFrag returns a participant's fragment for st at TDMA offset off.
func NewRunFrag(st *Stage, off int) RunFrag {
	return RunFrag{Stage: st, Off: off, Out: Outcome{DominatedBy: -1, JoinRound: st.Rounds}}
}

// Feed implements sim.Frag.
func (f *RunFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	// Consume the previous slot's reception before acting (or drawing).
	switch f.await {
	case awaitHello:
		rec := sc.Prev()
		if h, ok := rec.Msg.(Hello); ok && st.reach.Clear(rec) {
			f.clearFrom = h.From
		}
	case awaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(Ack); ok && a.To == sc.ID() && st.reach.Within(rec) {
			f.gotAck = true
		}
	case awaitIn:
		rec := sc.Prev()
		if in, ok := rec.Msg.(In); ok && st.reach.Within(rec) {
			f.Out.DominatedBy = in.From
			f.Out.JoinRound = f.round
			f.halted = true
		}
	}
	f.await = awaitNone

	rel := st.Rel(sc)
	if rel >= st.Len {
		if !f.halted {
			// Survivor: enters S at the end (Sec. 4).
			f.Out.InSet = true
		}
		return true
	}
	if f.halted {
		sc.IdleFor(st.Len - rel)
		return false
	}
	r := sim.Rounds{Stride: 3 * st.stride, Offset: 3 * f.Off}
	k := rel / r.Stride
	switch w := rel - r.At(k); { // slots past this round's HELLO slot
	case w < 0:
		sc.IdleFor(-w)
	case w >= 3:
		sc.IdleFor(min(r.At(k+1), st.Len) - rel)
	case w == 0: // slot 1: HELLO
		f.round = k
		f.clearFrom, f.gotAck = -1, false
		f.sentHello = sc.Rand.Float64() < st.helloProb
		if f.sentHello {
			sc.Transmit(st.channel, Hello{From: sc.ID()})
		} else {
			sc.Listen(st.channel)
			f.await = awaitHello
		}
	case w == 1: // slot 2: ACK
		switch {
		case f.sentHello:
			sc.Listen(st.channel)
			f.await = awaitAck
		case f.clearFrom >= 0 && sc.Rand.Float64() < ackProb:
			sc.Transmit(st.channel, Ack{To: f.clearFrom})
		default:
			sc.Listen(st.channel)
		}
	default: // slot 3: IN
		if f.sentHello && f.gotAck {
			sc.Transmit(st.channel, In{From: sc.ID()})
			f.Out.InSet = true
			f.Out.JoinRound = f.round
			f.halted = true
		} else {
			sc.Listen(st.channel)
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
