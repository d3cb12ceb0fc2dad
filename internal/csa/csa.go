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
// UseSmall picks between them per Lemma 14; core.NewPlan calls it to choose
// the variant a plan compiles.
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
	// gamma3 sets the small-Δ̂ variant's per-channel bound: its
	// estimators run with Δ̂ = ⌈γ₃·ln n̂⌉, the paper's γ₃·ln^c n, since
	// members per channel are O(polylog n) w.h.p.
	gamma3 float64 = 8
)

// Stage is the estimator compiled for one run.
type Stage struct {
	sim.Window
	reach    phy.Reach // within the cluster radius
	deltaHat int
	stride   int       // at least 1
	perPhase int       // rounds per phase, the notification round included
	thresh   int       // the head's termination count, ⌈ω₁·ln n̂⌉ ≥ 1
	probs    []float64 // member probe probability per phase, doubling from λ/Δ̂ to λ
}

// NewStage compiles the estimator under p starting at slot start: ⌈log₂
// Δ̂⌉ doubling phases (at least one), each ⌈γ₁·ln n̂⌉ probe rounds plus one
// notification round of stride slots. reach bounds the distance to
// co-members (the pipeline's is 2·r_c), deltaHat is the known upper bound
// Δ̂ on the cluster size, and stride interleaves clusters under the TDMA
// scheme: each node acts in its own offset of every round; stride 0 means
// 1.
func NewStage(p model.Params, reach phy.Reach, deltaHat, stride, start int) Stage {
	phases := 1
	if deltaHat > 1 {
		phases = int(math.Ceil(math.Log2(float64(deltaHat))))
	}
	st := Stage{
		reach:    reach,
		deltaHat: deltaHat,
		stride:   max(stride, 1),
		perPhase: int(math.Ceil(gamma1*p.LogN())) + 1,
		thresh:   max(int(math.Ceil(omega1*p.LogN())), 1),
		probs:    make([]float64, phases),
	}
	st.Window = sim.Window{Start: start, Len: st.stride * len(st.probs) * st.perPhase}
	prob := lambda / float64(deltaHat)
	for i := range st.probs {
		st.probs[i] = prob
		prob = math.Min(prob*2, lambda)
	}
	return st
}

// rounds is the estimator's TDMA round layout for a node at offset off:
// perPhase−1 probe rounds and then one notification round per phase, each
// stride slots long with the act slot at off.
func (s *Stage) rounds(off int) sim.Rounds { return sim.Rounds{Stride: s.stride, Offset: off} }

// DominatorFrag executes the counting side for cluster head Dom (usually
// the node itself; channel leaders in the small-Δ̂ variant pass their own
// ID) on Channel at TDMA offset Off. Once Feed returns true, Estimate is
// the estimate of the number of PROBING members (excluding the head
// itself), ≥ 1·constant-factor accurate w.h.p., or 0 if the cluster appears
// empty. It consumes exactly its Stage's window.
type DominatorFrag struct {
	Stage             *Stage
	Off, Channel, Dom int
	Estimate          int

	phase, count           int
	terminated, awaitProbe bool
}

// Feed implements sim.Frag. The head listens in every probe round and
// notifies (or sleeps through) every notification round.
func (f *DominatorFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	if f.awaitProbe {
		f.awaitProbe = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Probe); ok && m.Dom == f.Dom &&
			st.reach.Within(rec) {
			f.count++
		}
	}
	rel := st.Rel(sc)
	if rel >= st.Len {
		return true
	}
	r := st.rounds(f.Off)
	k := r.Next(rel)
	at := min(r.At(k), st.Len)
	if at == rel {
		if ph := k / st.perPhase; ph > f.phase {
			f.phase, f.count = ph, 0
		}
		if k%st.perPhase < st.perPhase-1 {
			sc.Listen(f.Channel)
			f.awaitProbe = true
			return false
		}
		if !f.terminated && f.count >= st.thresh {
			f.terminated = true
			f.Estimate = st.deltaHat >> f.phase
			if f.Estimate < 1 {
				f.Estimate = 1
			}
		}
		if f.terminated {
			sim.Send(sc, f.Channel, Estimate{Dom: f.Dom, Est: f.Estimate})
			return false
		}
		at = min(r.At(k+1), st.Len)
	}
	sc.IdleFor(at - rel)
	return false
}

// DominateeFrag executes the probing side for a member of cluster Dom on
// Channel at TDMA offset Off. Once Feed returns true, Estimate is the
// estimate learned from the head's notification (0 if none arrived). It
// consumes exactly its Stage's window.
type DominateeFrag struct {
	Stage             *Stage
	Off, Channel, Dom int
	Estimate          int

	awaitEst bool
}

// Feed implements sim.Frag. The member draws in every probe round until it
// holds an estimate and listens in every notification round; it sleeps
// through everything else, and through the probe rounds once estimated.
func (f *DominateeFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	if f.awaitEst {
		f.awaitEst = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Estimate); ok && m.Dom == f.Dom &&
			st.reach.Within(rec) && f.Estimate == 0 {
			f.Estimate = m.Est
		}
	}
	rel := st.Rel(sc)
	if rel >= st.Len {
		return true
	}
	r := st.rounds(f.Off)
	k := f.next(rel)
	at := min(r.At(k), st.Len)
	if at == rel {
		if k%st.perPhase == st.perPhase-1 {
			sc.Listen(f.Channel)
			f.awaitEst = true
			return false
		}
		if f.Estimate == 0 && sc.Rand.Float64() < st.probs[k/st.perPhase] {
			sim.Send(sc, f.Channel, Probe{From: sc.ID(), Dom: f.Dom})
			return false
		}
		at = min(r.At(f.next(rel+1)), st.Len)
	}
	sc.IdleFor(at - rel)
	return false
}

// next returns the first round at or after slot rel in which the member
// acts: any round while it still probes, only notification rounds once it
// holds an estimate.
func (f *DominateeFrag) next(rel int) int {
	st := f.Stage
	k := st.rounds(f.Off).Next(rel)
	if f.Estimate != 0 {
		k += st.perPhase - 1 - k%st.perPhase
	}
	return k
}

// SmallStage is the small-Δ̂ estimator compiled for one run: its
// sub-stages — election, per-channel estimation, tree aggregation — run
// back to back from the window's start, and one broadcast round closes the
// window.
type SmallStage struct {
	sim.Window
	reach  phy.Reach // within the cluster radius
	f      int       // channels members spread over, F
	stride int       // at least 1
	elect  reporter.ElectStage
	probe  Stage
	cast   reporter.CastStage
}

// NewSmallStage compiles the Appendix A estimator under p starting at slot
// start: members spread over all F = p.Channels channels, and each
// channel's estimator runs with Δ̂ = ⌈γ₃·ln n̂⌉. reach bounds the distance
// to co-members (the pipeline's is 2·r_c) for every sub-stage, and stride
// interleaves clusters under the TDMA scheme; stride 0 means 1.
func NewSmallStage(p model.Params, reach phy.Reach, stride, start int) SmallStage {
	stride = max(stride, 1)
	st := SmallStage{reach: reach, f: p.Channels, stride: stride}
	st.elect = reporter.NewElectStage(p, reach, stride, start)
	st.probe = NewStage(p, reach, int(math.Ceil(gamma3*p.LogN())), stride, st.elect.End())
	st.cast = reporter.NewCastStage(p, reach, stride, st.probe.End())
	st.Window = sim.Window{Start: start, Len: st.cast.End() + stride - start}
	return st
}

// UseSmall implements the Lemma 14 chooser: the small variant applies when
// Δ̂ ≤ F·log^{ĉ+2} n̂ (we use ĉ = 0, i.e. Δ̂/F ≤ log² n̂).
func UseSmall(p model.Params, deltaHat int) bool {
	return float64(deltaHat)/float64(p.Channels) <= p.LogN()*p.LogN()
}

// broadcast runs the closing broadcast round — the window's last stride
// slots, acting at offset off — for a fragment at window-relative slot
// rel: it sleeps up to the act slot, calls act there, and sleeps from it
// to the end. It reports true once the window is spent.
func (s *SmallStage) broadcast(sc *sim.StepCtx, off, rel int, act func()) bool {
	at := s.Len - s.stride + off
	switch {
	case rel < at:
		sc.IdleFor(at - rel)
	case rel == at:
		act()
	case rel < s.Len:
		sc.IdleFor(s.Len - rel)
	default:
		return true
	}
	return false
}

// SmallDominatorFrag executes the dominator side of the Appendix A
// variant at TDMA offset Off: it sits out election and probing, collects
// the per-channel counts over the reporter tree and broadcasts the total.
// Once Feed returns true, Estimate is the cluster-size estimate (counting
// members and the dominator itself). It consumes exactly its Stage's
// window. Build it with NewSmallDominatorFrag.
type SmallDominatorFrag struct {
	Stage    *SmallStage
	Off      int
	Estimate int

	cast    *reporter.CastUpFrag
	counted bool
}

// NewSmallDominatorFrag returns dominator id's fragment for st at TDMA
// offset off.
func NewSmallDominatorFrag(st *SmallStage, off, id int) *SmallDominatorFrag {
	return &SmallDominatorFrag{Stage: st, Off: off, cast: reporter.NewCastUpFrag(&st.cast, off, 0, id, 0, agg.Sum)}
}

// Feed implements sim.Frag.
func (f *SmallDominatorFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	if sc.Slot() < st.cast.Start { // sit out the election and the probing
		sc.IdleFor(st.cast.Start - sc.Slot())
		return false
	}
	if !f.counted { // aggregate channel counts up the reporter tree
		if !f.cast.Feed(sc) {
			return false
		}
		f.Estimate = int(f.cast.St.Value) + 1 // members + self
		f.counted = true
	}
	return st.broadcast(sc, f.Off, st.Rel(sc), func() {
		sim.Send(sc, 0, Estimate{Dom: sc.ID(), Est: f.Estimate})
	})
}

// SmallDominateeFrag executes the member side of the Appendix A variant
// for a member of cluster Dom at TDMA offset Off: pick a channel, elect a
// leader, estimate per channel, aggregate, and learn the total from the
// dominator's broadcast. Once Feed returns true, Estimate is the learned
// estimate (0 if the broadcast was missed). It consumes exactly its
// Stage's window. Build it with NewSmallDominateeFrag.
type SmallDominateeFrag struct {
	Stage    *SmallStage
	Off, Dom int
	Estimate int
	channel  int
	stage    uint8 // 0 elect, 1 lead probe, 2 lead cast, 3 member probe, 4 broadcast
	await    bool
	elect    *reporter.ElectFrag
	domFrag  *DominatorFrag
	deeFrag  *DominateeFrag
	cast     *reporter.CastUpFrag
}

// NewSmallDominateeFrag returns the member fragment for st at TDMA offset
// off, drawing the member's channel from sc.Rand.
func NewSmallDominateeFrag(sc *sim.StepCtx, st *SmallStage, off, dom int) SmallDominateeFrag {
	ch := sc.Rand.Intn(st.f)
	return SmallDominateeFrag{
		Stage: st, Off: off, Dom: dom, channel: ch,
		elect: &reporter.ElectFrag{Stage: &st.elect, Off: off, Channel: ch, Dom: dom, Min: sc.ID()},
	}
}

// Feed implements sim.Frag. A plain member sleeps from the end of its
// probing straight to the broadcast listen.
func (f *SmallDominateeFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Estimate); ok && m.Dom == f.Dom &&
			st.reach.Within(rec) {
			f.Estimate = m.Est
		}
	}
	for {
		switch f.stage {
		case 0: // election
			if !f.elect.Feed(sc) {
				return false
			}
			if f.elect.Min == sc.ID() {
				f.domFrag = &DominatorFrag{Stage: &st.probe, Off: f.Off, Channel: f.channel, Dom: sc.ID()}
				f.stage = 1
			} else {
				f.deeFrag = &DominateeFrag{Stage: &st.probe, Off: f.Off, Channel: f.channel, Dom: f.elect.Min}
				f.stage = 3
			}
		case 1: // channel leader: count own channel
			if !f.domFrag.Feed(sc) {
				return false
			}
			// + leader
			f.cast = reporter.NewCastUpFrag(&st.cast, f.Off, f.channel+1, f.Dom, int64(f.domFrag.Estimate)+1, agg.Sum)
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
			return st.broadcast(sc, f.Off, st.Rel(sc), func() {
				sc.Listen(0)
				f.await = true
			})
		}
	}
}
