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
//	         AckProb; the HELLO sender listens.
//	Slot 3 — IN: a HELLO sender that received an ACK addressed to it from an
//	         r-neighbor joins S, announces IN(id) and halts. Everyone else
//	         listens; receiving IN from an r-neighbor halts the node
//	         (it is dominated, Lemma 5). Participants still active after all
//	         rounds join S.
//
// The implementation is a composable stage: RunFrag consumes exactly
// Config.SlotBudget slots, padding with idle slots after the node halts, so
// staged pipelines stay slot-aligned. Stride/Offset interleave
// independent executions under the cluster TDMA scheme of Sec. 5.1.2.
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
	// R is the independence radius r ≤ R_T/2.
	R float64
	// Channel all participants operate on.
	Channel int
	// Mu is the assumed density bound µ; the HELLO probability is 1/(2µ).
	Mu float64
	// AckProb is the slot-2 acknowledgement probability. The paper uses
	// 1/(2µ) as well; 1/2 is a practical default since clear receivers of
	// distinct HELLOs are already spatially sparse (deviation D1 in the
	// mcnet package documentation).
	AckProb float64
	// RoundFactor scales the round count: rounds = ceil(RoundFactor·ln n̂).
	RoundFactor float64
	// Stride and Offset interleave executions under the cluster TDMA
	// scheme: a node runs its 3 protocol slots in sub-block Offset of each
	// 3·Stride-slot block. Stride 0 means 1 (no interleaving).
	Stride, Offset int
}

// DefaultConfig returns the practical configuration used by the pipeline for
// a ruling set of radius r on the given channel.
func DefaultConfig(r float64, channel int) Config {
	return Config{
		R:           r,
		Channel:     channel,
		Mu:          3,
		AckProb:     0.5,
		RoundFactor: 14,
		Stride:      1,
	}
}

func (c Config) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// Rounds returns the number of protocol rounds for the given parameters.
func (c Config) Rounds(p model.Params) int {
	return int(math.Ceil(c.RoundFactor * p.LogN()))
}

// SlotBudget returns the exact number of simulator slots RunFrag consumes:
// 3 slots per round per stride sub-block.
func (c Config) SlotBudget(p model.Params) int {
	return 3 * c.stride() * c.Rounds(p)
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
// sim.Frag. It consumes exactly Cfg.SlotBudget slots: a live node acts in
// the three protocol slots of every round and sleeps between them, and a
// halted node sleeps to the end. Out is the node's outcome once Feed
// returns true. Non-participants idle through the budget with a
// sim.IdleFrag.
type RunFrag struct {
	Cfg Config
	Out Outcome

	init              bool
	reach             phy.Reach // Cfg.R
	halted            bool      // joined S or was dominated
	sentHello, gotAck bool
	await             rulingAwait
	start, total      int
	round             int // the round of the node's latest HELLO slot
	clearFrom         int
}

// Feed implements sim.Frag.
func (f *RunFrag) Feed(sc *sim.StepCtx) bool {
	cfg := f.Cfg
	if !f.init {
		p := sc.Params()
		f.init = true
		f.reach = phy.NewReach(p, cfg.R)
		f.start = sc.Slot()
		f.total = cfg.SlotBudget(p)
		f.Out = Outcome{DominatedBy: -1, JoinRound: cfg.Rounds(p)}
	}
	// Consume the previous slot's reception before acting (or drawing).
	switch f.await {
	case awaitHello:
		rec := sc.Prev()
		if h, ok := rec.Msg.(Hello); ok && f.reach.Clear(rec) {
			f.clearFrom = h.From
		}
	case awaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(Ack); ok && a.To == sc.ID() && f.reach.Within(rec) {
			f.gotAck = true
		}
	case awaitIn:
		rec := sc.Prev()
		if in, ok := rec.Msg.(In); ok && f.reach.Within(rec) {
			f.Out.DominatedBy = in.From
			f.Out.JoinRound = f.round
			f.halted = true
		}
	}
	f.await = awaitNone

	rel := sc.Slot() - f.start
	if rel >= f.total {
		if !f.halted {
			// Survivor: enters S at the end (Sec. 4).
			f.Out.InSet = true
		}
		return true
	}
	if f.halted {
		sc.IdleFor(f.total - rel)
		return false
	}
	r := sim.Rounds{Stride: 3 * cfg.stride(), Offset: 3 * cfg.Offset}
	k := rel / r.Stride
	switch w := rel - r.At(k); { // slots past this round's HELLO slot
	case w < 0:
		sc.IdleFor(-w)
	case w >= 3:
		sc.IdleFor(min(r.At(k+1), f.total) - rel)
	case w == 0: // slot 1: HELLO
		f.round = k
		f.clearFrom, f.gotAck = -1, false
		f.sentHello = sc.Rand.Float64() < 1/(2*cfg.Mu)
		if f.sentHello {
			sc.Transmit(cfg.Channel, Hello{From: sc.ID()})
		} else {
			sc.Listen(cfg.Channel)
			f.await = awaitHello
		}
	case w == 1: // slot 2: ACK
		switch {
		case f.sentHello:
			sc.Listen(cfg.Channel)
			f.await = awaitAck
		case f.clearFrom >= 0 && sc.Rand.Float64() < cfg.AckProb:
			sc.Transmit(cfg.Channel, Ack{To: f.clearFrom})
		default:
			sc.Listen(cfg.Channel)
		}
	default: // slot 3: IN
		if f.sentHello && f.gotAck {
			sc.Transmit(cfg.Channel, In{From: sc.ID()})
			f.Out.InSet = true
			f.Out.JoinRound = f.round
			f.halted = true
		} else {
			sc.Listen(cfg.Channel)
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
