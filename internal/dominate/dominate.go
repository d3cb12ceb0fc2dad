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

// Config parameterizes the dominating-set construction.
type Config struct {
	// R is the dominating radius (the pipeline passes r_c).
	R float64
	// Channel all nodes operate on.
	Channel int
	// Mu caps the HELLO probability at 1/(2µ).
	Mu float64
	// AckProb is the probability with which a clear receiver confirms.
	AckProb float64
	// ReannounceProb is the probability an established dominator repeats IN
	// in slot 3 of a round.
	ReannounceProb float64
	// RoundFactor scales rounds per phase: ceil(RoundFactor·ln n̂).
	RoundFactor float64
	// Phases overrides the number of doubling phases; 0 means ceil(log₂ n̂).
	Phases int
}

// DefaultConfig returns the pipeline configuration for radius r on the given
// channel.
func DefaultConfig(r float64, channel int) Config {
	return Config{
		R:              r,
		Channel:        channel,
		Mu:             4,
		AckProb:        0.5,
		ReannounceProb: 0.25,
		RoundFactor:    4,
	}
}

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

func (c Config) phases(p model.Params) int {
	if c.Phases > 0 {
		return c.Phases
	}
	return int(math.Ceil(math.Log2(float64(p.NEstimate))))
}

func (c Config) roundsPerPhase(p model.Params) int {
	return int(math.Ceil(c.RoundFactor * p.LogN()))
}

// SlotBudget returns the exact number of slots RunFrag consumes.
func (c Config) SlotBudget(p model.Params) int {
	return 3 * c.phases(p) * c.roundsPerPhase(p)
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
// sim.Frag, consuming exactly Cfg.SlotBudget slots. Out is valid once Feed
// returns true.
type RunFrag struct {
	Cfg Config
	Out Outcome

	init              bool
	reach             phy.Reach // Cfg.R
	phases, rounds    int
	prob, probCap     float64
	phase, round, sub int
	sentHello         bool
	clearFrom         int
	gotAck            bool
	await             runAwait
}

// Feed implements sim.Frag.
func (f *RunFrag) Feed(sc *sim.StepCtx) bool {
	if !f.init {
		p := sc.Params()
		f.init = true
		f.reach = phy.NewReach(p, f.Cfg.R)
		f.phases = f.Cfg.phases(p)
		f.rounds = f.Cfg.roundsPerPhase(p)
		f.prob = 1 / float64(p.NEstimate)
		f.probCap = 1 / (2 * f.Cfg.Mu)
		f.Out = Outcome{Dominator: -1}
		f.clearFrom = -1
	}
	// Consume the previous slot's reception before acting (or drawing).
	switch f.await {
	case awaitHello:
		rec := sc.Prev()
		if h, ok := rec.Msg.(Hello); ok && !f.Out.IsDominator &&
			f.reach.Clear(rec) {
			f.clearFrom = h.From
		}
	case awaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(Ack); ok && a.To == sc.ID() &&
			f.reach.Within(rec) {
			f.gotAck = true
		}
	case awaitIn:
		rec := sc.Prev()
		if in, ok := rec.Msg.(In); ok && f.Out.Dominator == -1 &&
			f.reach.Within(rec) {
			f.Out.Dominator = in.From
		}
	}
	f.await = awaitNone

	if f.phase >= f.phases {
		if f.Out.Dominator == -1 {
			f.Out.IsDominator = true
			f.Out.SelfAppointed = true
			f.Out.Dominator = sc.ID()
		}
		return true
	}

	ch := f.Cfg.Channel
	switch f.sub {
	case 0: // HELLO
		candidate := f.Out.Dominator == -1 && !f.Out.IsDominator
		f.sentHello = candidate && sc.Rand.Float64() < f.prob
		f.clearFrom = -1
		if f.sentHello {
			sc.Transmit(ch, Hello{From: sc.ID()})
		} else {
			sc.Listen(ch)
			f.await = awaitHello
		}
	case 1: // ACK
		f.gotAck = false
		switch {
		case f.sentHello:
			sc.Listen(ch)
			f.await = awaitAck
		case f.clearFrom >= 0 && sc.Rand.Float64() < f.Cfg.AckProb:
			sc.Transmit(ch, Ack{To: f.clearFrom})
		default:
			sc.Listen(ch)
		}
	case 2: // IN
		switch {
		case f.sentHello && f.gotAck:
			f.Out.IsDominator = true
			f.Out.Dominator = sc.ID()
			sc.Transmit(ch, In{From: sc.ID()})
		case f.Out.IsDominator && sc.Rand.Float64() < f.Cfg.ReannounceProb:
			sc.Transmit(ch, In{From: sc.ID()})
		default:
			sc.Listen(ch)
			f.await = awaitIn
		}
	}
	f.sub++
	if f.sub == 3 {
		f.sub = 0
		f.round++
		if f.round == f.rounds {
			f.round = 0
			f.phase++
			f.prob = math.Min(f.prob*2, f.probCap)
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
