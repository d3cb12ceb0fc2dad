// Package csa implements Cluster-Size Approximation (Sec. 5.2.1 and
// Appendix A): every node of a well-separated cluster learns a constant-
// factor approximation of its cluster's size.
//
// Two variants are provided, exactly as in the paper:
//
//   - The large-Δ̂ variant (Sec. 5.2.1.1) uses a single channel. Dominatees
//     probe with a probability that starts at λ/Δ̂ and doubles each phase;
//     the dominator terminates the estimate when it hears enough probes in
//     one phase, inferring |C| ≈ λ/p from the probe probability p. Runtime
//     O(log Δ̂ · log n).
//
//   - The small-Δ̂ variant (Appendix A) spreads dominatees uniformly over
//     the F channels, elects a per-channel leader (reporter.ElectFrag), runs
//     the probing estimator per channel with the small per-channel bound,
//     aggregates the per-channel estimates to the dominator over the
//     reporter tree, and broadcasts the total. Runtime O(log n · log log n)
//     when Δ̂ ≤ F·polylog(n) (Lemma 13).
//
// Choose combines them per Lemma 14.
package csa

import (
	"math"

	"mcnet/internal/agg"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// Probe is a dominatee's counting transmission.
type Probe struct {
	From, Dom int
}

// Estimate is the dominator's (or channel leader's) termination notice
// carrying the cluster-size estimate.
type Estimate struct {
	Dom int
	Est int
}

// Config parameterizes the large-Δ̂ estimator (also used per channel by the
// small-Δ̂ variant).
type Config struct {
	// Channel the estimator runs on.
	Channel int
	// ClusterRadius bounds the distance to co-members (2·r_c).
	ClusterRadius float64
	// DeltaHat is the known upper bound Δ̂ on the cluster size.
	DeltaHat int
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// Estimator constants of Sec. 5.2.1.1 (deviation D1 in the mcnet package
// documentation).
const (
	// lambda is the target contention λ = 1/2.
	lambda float64 = 0.5
	// omega1 sets the termination count: the dominator stops on
	// ≥ ⌈ω₁·ln n̂⌉ probes in a phase.
	omega1 float64 = 2
	// gamma1 sets the phase length: ⌈γ₁·ln n̂⌉ probe rounds.
	gamma1 float64 = 16
)

func (c Config) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// Phases returns ⌈log₂ Δ̂⌉, the number of doubling phases.
func (c Config) Phases() int {
	if c.DeltaHat <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(c.DeltaHat))))
}

// RoundsPerPhase returns the probe rounds per phase.
func (c Config) RoundsPerPhase(p model.Params) int {
	return int(math.Ceil(gamma1 * p.LogN()))
}

// SlotBudget returns the exact number of slots the estimator consumes:
// per phase, RoundsPerPhase probe rounds plus one notification round.
func (c Config) SlotBudget(p model.Params) int {
	return c.stride() * c.Phases() * (c.RoundsPerPhase(p) + 1)
}

// threshold is the termination count for the given parameters.
func (c Config) threshold(p model.Params) int {
	t := int(math.Ceil(omega1 * p.LogN()))
	if t < 1 {
		return 1
	}
	return t
}

// rounds is the estimator's TDMA round layout: RoundsPerPhase probe
// rounds and then one notification round per phase, each Stride slots long
// with the act slot at Offset.
func (c Config) rounds() sim.Rounds { return sim.Rounds{Stride: c.stride(), Offset: c.Offset} }

// DominatorFrag executes the counting side for cluster head Dom (usually
// the node itself; channel leaders in the small-Δ̂ variant pass their own
// ID). Once Feed returns true, Estimate is the estimate of the number of
// PROBING members (excluding the head itself), ≥ 1·constant-factor
// accurate w.h.p., or 0 if the cluster appears empty. It consumes exactly
// Cfg.SlotBudget slots.
type DominatorFrag struct {
	Cfg      Config
	Dom      int
	Estimate int

	init, terminated, awaitProbe bool
	reach                        phy.Reach // Cfg.ClusterRadius
	start, total                 int
	perPhase                     int // rounds per phase, the notification round included
	thresh                       int
	phase                        int
	count                        int
}

// Feed implements sim.Frag. The head listens in every probe round and
// notifies (or sleeps through) every notification round.
func (f *DominatorFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.reach = phy.NewReach(p, f.Cfg.ClusterRadius)
		f.start = sc.Slot()
		f.total = f.Cfg.SlotBudget(p)
		f.perPhase = f.Cfg.RoundsPerPhase(p) + 1
		f.thresh = f.Cfg.threshold(p)
	}
	if f.awaitProbe {
		f.awaitProbe = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Probe); ok && m.Dom == f.Dom &&
			f.reach.Within(rec) {
			f.count++
		}
	}
	rel := sc.Slot() - f.start
	if rel >= f.total {
		return true
	}
	r := f.Cfg.rounds()
	k := r.Next(rel)
	at := min(r.At(k), f.total)
	if at == rel {
		if ph := k / f.perPhase; ph > f.phase {
			f.phase, f.count = ph, 0
		}
		if k%f.perPhase < f.perPhase-1 {
			sc.Listen(f.Cfg.Channel)
			f.awaitProbe = true
			return false
		}
		if !f.terminated && f.count >= f.thresh {
			f.terminated = true
			f.Estimate = f.Cfg.DeltaHat >> f.phase
			if f.Estimate < 1 {
				f.Estimate = 1
			}
		}
		if f.terminated {
			sc.Transmit(f.Cfg.Channel, Estimate{Dom: f.Dom, Est: f.Estimate})
			return false
		}
		at = min(r.At(k+1), f.total)
	}
	sc.IdleFor(at - rel)
	return false
}

// DominateeFrag executes the probing side for a member of cluster Dom.
// Once Feed returns true, Estimate is the estimate learned from the head's
// notification (0 if none arrived). It consumes exactly Cfg.SlotBudget
// slots.
type DominateeFrag struct {
	Cfg      Config
	Dom      int
	Estimate int

	init, awaitEst bool
	reach          phy.Reach // Cfg.ClusterRadius
	start, total   int
	perPhase       int // rounds per phase, the notification round included
	phase          int
	prob           float64
}

// Feed implements sim.Frag. The member draws in every probe round until it
// holds an estimate and listens in every notification round; it sleeps
// through everything else, and through the probe rounds once estimated.
func (f *DominateeFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.reach = phy.NewReach(p, f.Cfg.ClusterRadius)
		f.start = sc.Slot()
		f.total = f.Cfg.SlotBudget(p)
		f.perPhase = f.Cfg.RoundsPerPhase(p) + 1
		f.prob = lambda / float64(f.Cfg.DeltaHat)
	}
	if f.awaitEst {
		f.awaitEst = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Estimate); ok && m.Dom == f.Dom &&
			f.reach.Within(rec) && f.Estimate == 0 {
			f.Estimate = m.Est
		}
	}
	rel := sc.Slot() - f.start
	if rel >= f.total {
		return true
	}
	k := f.next(rel)
	at := min(f.Cfg.rounds().At(k), f.total)
	if at == rel {
		for ph := k / f.perPhase; f.phase < ph; f.phase++ {
			f.prob = math.Min(f.prob*2, lambda)
		}
		if k%f.perPhase == f.perPhase-1 {
			sc.Listen(f.Cfg.Channel)
			f.awaitEst = true
			return false
		}
		if f.Estimate == 0 && sc.Rand.Float64() < f.prob {
			sc.Transmit(f.Cfg.Channel, Probe{From: sc.ID(), Dom: f.Dom})
			return false
		}
		at = min(f.Cfg.rounds().At(f.next(rel+1)), f.total)
	}
	sc.IdleFor(at - rel)
	return false
}

// next returns the first round at or after slot rel in which the member
// acts: any round while it still probes, only notification rounds once it
// holds an estimate.
func (f *DominateeFrag) next(rel int) int {
	k := f.Cfg.rounds().Next(rel)
	if f.Estimate != 0 {
		k += f.perPhase - 1 - k%f.perPhase
	}
	return k
}

// SmallConfig parameterizes the Appendix A multichannel estimator.
type SmallConfig struct {
	// F is the number of channels to spread members over.
	F int
	// ClusterRadius bounds the distance to co-members (2·r_c).
	ClusterRadius float64
	// Elect configures the per-channel leader election.
	Elect reporter.ElectConfig
	// Probe configures the per-channel estimator (Channel is overridden).
	Probe Config
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// DefaultSmallConfig returns the pipeline configuration of the small-Δ̂
// variant.
func DefaultSmallConfig(p model.Params, clusterRadius float64) SmallConfig {
	// The per-channel estimators' Δ̂ is the paper's γ₃·ln^c n: members per
	// channel are O(polylog n) w.h.p.
	perChan := int(math.Ceil(8 * p.LogN()))
	return SmallConfig{
		F:             p.Channels,
		ClusterRadius: clusterRadius,
		Elect:         reporter.ElectConfig{ClusterRadius: clusterRadius},
		Probe:         Config{ClusterRadius: clusterRadius, DeltaHat: perChan},
		Stride:        1,
	}
}

func (c SmallConfig) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// SlotBudget returns the exact number of slots the small-Δ̂ estimator
// consumes: election + per-channel estimation + tree aggregation + one
// broadcast round.
func (c SmallConfig) SlotBudget(p model.Params) int {
	elect := c.Elect
	elect.Stride, elect.Offset = c.stride(), 0
	probe := c.Probe
	probe.Stride, probe.Offset = c.stride(), 0
	cast := reporter.DefaultCastConfig(c.F, c.ClusterRadius)
	cast.Stride, cast.Offset = c.stride(), 0
	return elect.SlotBudget(p) + probe.SlotBudget(p) + cast.SlotBudget() + c.stride()
}

// UseSmall implements the Lemma 14 chooser: the small variant applies when
// Δ̂ ≤ F·log^{ĉ+2} n̂ (we use ĉ = 0, i.e. Δ̂/F ≤ log² n̂).
func UseSmall(p model.Params, deltaHat int) bool {
	return float64(deltaHat)/float64(p.Channels) <= p.LogN()*p.LogN()
}

// smallCastCfg builds the reporter-tree config the small variant uses.
func smallCastCfg(cfg SmallConfig) reporter.CastConfig {
	cast := reporter.DefaultCastConfig(cfg.F, cfg.ClusterRadius)
	cast.Stride, cast.Offset = cfg.stride(), cfg.Offset
	return cast
}

// broadcast runs the closing broadcast round — the last stride slots of a
// total-slot budget, acting at Offset — for a fragment at relative slot
// rel: it sleeps up to the act slot, calls act there, and sleeps from it to
// the end. It reports true once the budget is spent.
func (c SmallConfig) broadcast(sc *sim.StepCtx, rel, total int, act func()) bool {
	at := total - c.stride() + c.Offset
	switch {
	case rel < at:
		sc.IdleFor(at - rel)
	case rel == at:
		act()
	case rel < total:
		sc.IdleFor(total - rel)
	default:
		return true
	}
	return false
}

// SmallDominatorFrag executes the dominator side of the Appendix A
// variant: it sits out election and probing, collects the per-channel
// counts over the reporter tree and broadcasts the total. Once Feed
// returns true, Estimate is the cluster-size estimate (counting members
// and the dominator itself). It consumes exactly Cfg.SlotBudget slots.
type SmallDominatorFrag struct {
	Cfg      SmallConfig
	Estimate int

	init, counted        bool
	start, castAt, total int
	cast                 *reporter.CastUpFrag
}

// Feed implements sim.Frag.
func (f *SmallDominatorFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.start = sc.Slot()
		f.total = f.Cfg.SlotBudget(p)
		elect, probe := f.Cfg.Elect, f.Cfg.Probe
		elect.Stride, probe.Stride = f.Cfg.stride(), f.Cfg.stride()
		f.castAt = elect.SlotBudget(p) + probe.SlotBudget(p)
	}
	rel := sc.Slot() - f.start
	if rel < f.castAt { // sit out the election and the probing
		sc.IdleFor(f.castAt - rel)
		return false
	}
	if !f.counted { // aggregate channel counts up the reporter tree
		if f.cast == nil {
			f.cast = &reporter.CastUpFrag{
				Cfg: smallCastCfg(f.Cfg), Role: 0, Dom: sc.ID(), Value: 0, Op: agg.Sum,
			}
		}
		if !f.cast.Feed(sc) {
			return false
		}
		f.Estimate = int(f.cast.St.Value) + 1 // members + self
		f.counted = true
	}
	return f.Cfg.broadcast(sc, rel, f.total, func() {
		sc.Transmit(0, Estimate{Dom: sc.ID(), Est: f.Estimate})
	})
}

// SmallDominateeFrag executes the member side of the Appendix A variant
// for a member of cluster Dom: pick a channel, elect a leader, estimate per
// channel, aggregate, and learn the total from the dominator's broadcast.
// Once Feed returns true, Estimate is the learned estimate (0 if the
// broadcast was missed). It consumes exactly Cfg.SlotBudget slots.
type SmallDominateeFrag struct {
	Cfg      SmallConfig
	Dom      int
	Estimate int

	init, await  bool
	reach        phy.Reach // Cfg.ClusterRadius
	stage        uint8     // 0 elect, 1 lead probe, 2 lead cast, 3 member probe, 4 broadcast
	start, total int
	channel      int
	elect        *reporter.ElectFrag
	domFrag      *DominatorFrag
	deeFrag      *DominateeFrag
	cast         *reporter.CastUpFrag
}

// Feed implements sim.Frag. A plain member sleeps from the end of its
// probing straight to the broadcast listen.
func (f *SmallDominateeFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Estimate); ok && m.Dom == f.Dom &&
			f.reach.Within(rec) {
			f.Estimate = m.Est
		}
	}
	if !f.init {
		f.init = true
		f.reach = phy.NewReach(p, f.Cfg.ClusterRadius)
		f.start = sc.Slot()
		f.total = f.Cfg.SlotBudget(p)
		f.channel = sc.Rand.Intn(f.Cfg.F)
		elect := f.Cfg.Elect
		elect.Stride, elect.Offset = f.Cfg.stride(), f.Cfg.Offset
		f.elect = &reporter.ElectFrag{Cfg: elect, Channel: f.channel, Dom: f.Dom}
	}
	for {
		switch f.stage {
		case 0: // election
			if !f.elect.Feed(sc) {
				return false
			}
			probe := f.Cfg.Probe
			probe.Stride, probe.Offset = f.Cfg.stride(), f.Cfg.Offset
			probe.Channel = f.channel
			if f.elect.Min == sc.ID() {
				f.domFrag = &DominatorFrag{Cfg: probe, Dom: sc.ID()}
				f.stage = 1
			} else {
				f.deeFrag = &DominateeFrag{Cfg: probe, Dom: f.elect.Min}
				f.stage = 3
			}
		case 1: // channel leader: count own channel
			if !f.domFrag.Feed(sc) {
				return false
			}
			f.cast = &reporter.CastUpFrag{
				Cfg: smallCastCfg(f.Cfg), Role: f.channel + 1, Dom: f.Dom,
				Value: int64(f.domFrag.Estimate) + 1, Op: agg.Sum, // + leader
			}
			f.stage = 2
		case 2: // channel leader: report up the tree
			if !f.cast.Feed(sc) {
				return false
			}
			f.stage = 4
		case 3: // member: probe, then sit out the cast
			if !f.deeFrag.Feed(sc) {
				return false
			}
			f.stage = 4
		default: // listen to the dominator's broadcast on channel 0
			return f.Cfg.broadcast(sc, sc.Slot()-f.start, f.total, func() {
				sc.Listen(0)
				f.await = true
			})
		}
	}
}
