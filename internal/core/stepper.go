package core

import (
	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// This file holds the pipeline's node protocol (see internal/sim: Stepper,
// Frag). BuildFrag chains the structure-construction and follower
// fragments (stages 1–6), and pipelineStepper composes it with the
// aggregation stages 7–9; the Sec. 7 coloring composes the same BuildFrag
// with its own procedures. The stage-glue code (structure bookkeeping, the
// elect channel draw, the cast-value fold) runs at the fragment
// boundaries, within the Step call that finishes the previous stage, so
// stage boundaries cost no slots. TestRunSteppedIdentity pins the
// transcripts.

// Build stages (stages 1–6), in slot order.
const (
	stDominate uint8 = iota
	stColor
	stAnnounce
	stCSA
	stElect
	stFollower
	stBuilt
)

// BuildFrag runs structure construction (stages 1–5, Theorem 10) and the
// Sec. 6 follower procedure (stage 6), with Value as the node's follower
// payload; it consumes exactly Offsets.Tree slots. St is final once Built
// reports true. Got and AckedOn are valid once Feed returns true: for
// reporters, Got maps each collected follower's ID to its value; for
// followers, AckedOn is the channel whose reporter acknowledged the value
// (-1 if never acknowledged) — that reporter owns the follower in the
// Sec. 7 coloring.
type BuildFrag struct {
	Pl    *Plan
	Value int64

	St      Structure
	Got     map[int]int64
	AckedOn int

	stage uint8
	cur   sim.Frag

	// Stages every node (or every member — at crowd scale, nearly every
	// node) passes through live as values inside the fragment, so entering
	// them costs zero allocations: cur points at the embedded field. The
	// rare-role fragments (dominators are ~1 per cluster) stay heap
	// pointers to keep the arena element lean.
	dom     dominate.RunFrag
	ann     announceFrag
	csaDee  csa.DominateeFrag
	csaSDee csa.SmallDominateeFrag
	elect   reporter.ElectFrag
	fol     followerFrag
	idle    sim.IdleFrag

	col     *backbone.ColorFrag
	csaDom  *csa.DominatorFrag
	csaSDom *csa.SmallDominatorFrag

	ownColor int
}

// Built reports whether stages 1–5 have completed, so St is final.
func (f *BuildFrag) Built() bool { return f.stage > stElect }

// Feed implements sim.Frag: the active stage fragment acts; when it
// finalizes, the stage glue runs and the next fragment starts within the
// same call.
func (f *BuildFrag) Feed(sc *sim.StepCtx) bool {
	for {
		if f.cur != nil {
			if !f.cur.Feed(sc) {
				return false
			}
			f.cur = nil
			f.leave(sc)
		}
		if f.stage == stBuilt {
			return true
		}
		f.enter(sc)
	}
}

// enterIdle points cur at the embedded idle fragment, reset for a k-slot
// idle stretch.
func (f *BuildFrag) enterIdle(k int) {
	f.idle = sim.IdleFrag{K: k}
	f.cur = &f.idle
}

// enter builds the fragment for the current stage, including its pre-stage
// glue (the member's elect channel draw).
func (f *BuildFrag) enter(sc *sim.StepCtx) {
	pl := f.Pl
	p := sc.Params()
	switch f.stage {
	case stDominate:
		f.dom = dominate.RunFrag{Cfg: pl.Dominate}
		f.cur = &f.dom
	case stColor:
		if f.St.Dom.IsDominator {
			f.col = &backbone.ColorFrag{Cfg: pl.Color}
			f.cur = f.col
		} else {
			f.enterIdle(pl.Color.SlotBudget(p))
		}
	case stAnnounce:
		f.ann = announceFrag{pl: pl, dom: f.St.Dom, ownColor: f.ownColor, start: sc.Slot(), color: -1}
		f.cur = &f.ann
	case stCSA:
		if pl.UseSmall {
			cfg := pl.CSASmall
			cfg.Offset = f.St.Off
			if f.St.Dom.IsDominator {
				f.csaSDom = &csa.SmallDominatorFrag{Cfg: cfg}
				f.cur = f.csaSDom
			} else {
				f.csaSDee = csa.SmallDominateeFrag{Cfg: cfg, Dom: f.St.Dom.Dominator}
				f.cur = &f.csaSDee
			}
		} else {
			cfg := pl.CSALarge
			cfg.Offset = f.St.Off
			if f.St.Dom.IsDominator {
				f.csaDom = &csa.DominatorFrag{Cfg: cfg, Dom: sc.ID()}
				f.cur = f.csaDom
			} else {
				f.csaDee = csa.DominateeFrag{Cfg: cfg, Dom: f.St.Dom.Dominator}
				f.cur = &f.csaDee
			}
		}
	case stElect:
		f.St.Fv = pl.fv(f.St.Est)
		elect := pl.Elect
		elect.Offset = f.St.Off
		f.St.Role = -1
		if f.St.Dom.IsDominator {
			f.enterIdle(elect.SlotBudget(p))
		} else {
			f.St.Channel = sc.Rand.Intn(f.St.Fv)
			f.elect = reporter.ElectFrag{Cfg: elect, Channel: f.St.Channel, Dom: f.St.Dom.Dominator}
			f.cur = &f.elect
		}
	case stFollower:
		f.fol = followerFrag{b: f}
		f.cur = &f.fol
	}
}

// leave consumes the finished stage's result.
func (f *BuildFrag) leave(sc *sim.StepCtx) {
	pl := f.Pl
	switch f.stage {
	case stDominate:
		f.St = Structure{Channel: -1}
		f.St.Dom = f.dom.Out
	case stColor:
		if f.St.Dom.IsDominator {
			f.ownColor = f.col.Out.Color
		} else {
			f.ownColor = -1
		}
		f.col = nil
	case stAnnounce:
		f.St.Color = f.ann.Color
		f.St.Off = f.St.Color % pl.Cfg.PhiMax
		if f.St.Off < 0 {
			f.St.Off = 0
		}
	case stCSA:
		switch {
		case pl.UseSmall && f.St.Dom.IsDominator:
			f.St.Est = f.csaSDom.Estimate
		case pl.UseSmall:
			f.St.Est = f.csaSDee.Estimate
		case f.St.Dom.IsDominator:
			f.St.Est = f.csaDom.Estimate + 1 // members + self
		default:
			est := f.csaDee.Estimate
			if est > 0 {
				est++
			}
			f.St.Est = est
		}
		f.csaDom, f.csaSDom = nil, nil
		f.csaSDee = csa.SmallDominateeFrag{} // drops its internal sub-fragments
	case stElect:
		if f.St.Dom.IsDominator {
			f.St.Role = 0
		} else if f.elect.Min == sc.ID() {
			f.St.Role = f.St.Channel + 1
		}
	}
	f.stage++
}

// Pipeline stages after the build, in slot order.
const (
	psBuild uint8 = iota
	psCast
	psTree
	psInform
	psDone
)

// pipelineStepper is one node's pipeline as a sim.Stepper: BuildFrag for
// stages 1–6, then the aggregation stages. The active fragment acts each
// slot; when it finalizes, the stage glue runs and the next fragment starts
// within the same Step call.
type pipelineStepper struct {
	build BuildFrag
	op    agg.Op

	stage uint8
	// watch marks a stage whose milestone the node has yet to emit: the
	// reporter-tree root's cluster aggregate, or a dominator's informed.
	watch bool
	cur   sim.Frag

	inf  informFrag
	idle sim.IdleFrag
	cast *reporter.CastUpFrag
	tree *backbone.TreeFrag

	clusterAgg int64
}

// Step implements sim.Stepper.
func (ps *pipelineStepper) Step(sc *sim.StepCtx) {
	for {
		if ps.cur != nil {
			done := ps.cur.Feed(sc)
			if ps.watch {
				ps.milestone(sc)
			}
			if !done {
				return
			}
			ps.cur = nil
			ps.leave()
		}
		if ps.stage == psDone {
			sc.Done()
			return
		}
		ps.enter(sc)
	}
}

// enterIdle points cur at the embedded idle fragment, reset for a k-slot
// idle stretch.
func (ps *pipelineStepper) enterIdle(k int) {
	ps.idle = sim.IdleFrag{K: k}
	ps.cur = &ps.idle
}

// enter builds the fragment for the current stage, including its
// pre-stage glue (the reporter's cast-value fold).
func (ps *pipelineStepper) enter(sc *sim.StepCtx) {
	pl := ps.build.Pl
	st := &ps.build.St
	switch ps.stage {
	case psBuild:
		ps.cur = &ps.build
	case psCast:
		cast := pl.CastConfig(st.Off)
		if st.Role >= 0 {
			castVal := ps.build.Value
			for _, v := range ps.build.Got {
				castVal = ps.op.Combine(castVal, v)
			}
			ps.cast = &reporter.CastUpFrag{
				Cfg: cast, Role: st.Role, Dom: st.Dom.Dominator,
				Value: castVal, Op: ps.op,
			}
			ps.cur = ps.cast
			ps.watch = st.Role == 0
		} else {
			ps.enterIdle(cast.SlotBudget())
		}
	case psTree:
		if st.IsDominator() {
			ps.tree = &backbone.TreeFrag{Cfg: pl.Tree, Color: st.Off, Value: ps.clusterAgg, Op: ps.op}
			ps.cur = ps.tree
			ps.watch = true
		} else {
			ps.enterIdle(pl.Tree.SlotBudget())
		}
	case psInform:
		ps.inf = informFrag{pl: pl, st: st, start: sc.Slot()}
		if st.IsDominator() && ps.tree != nil {
			ps.inf.Value, ps.inf.Have = ps.tree.Out.Result, ps.tree.Out.Done
		}
		ps.cur = &ps.inf
	}
}

// milestone emits the watched stage's milestone event in the step it
// happens: cluster-agg once the reporter-tree root has folded its last
// level, informed once the backbone hands a dominator the result. (A
// member's informed is emitted by informFrag as it decodes the result.)
func (ps *pipelineStepper) milestone(sc *sim.StepCtx) {
	switch {
	case ps.stage == psCast && ps.cast.Folded():
		sc.Emit(EventClusterAgg, 0)
	case ps.stage == psTree && ps.tree.Out.Done:
		sc.Emit(EventInformed, 0)
	default:
		return
	}
	ps.watch = false
}

// leave consumes the finished stage's result.
func (ps *pipelineStepper) leave() {
	switch ps.stage {
	case psCast:
		if ps.build.St.Role == 0 {
			ps.clusterAgg = ps.cast.St.Value
		}
		ps.build.Got = nil // drops the reporter's follower map
		ps.cast = nil
	case psInform:
		ps.tree = nil
	}
	ps.watch = false
	ps.stage++
}

// result fills r from the node's final state: the structure once stages
// 1–5 completed, the aggregate once stage 9 did. A node that crashed
// earlier reports what it had reached.
func (ps *pipelineStepper) result(r *Result) {
	if !ps.build.Built() {
		return
	}
	st := &ps.build.St
	r.IsDominator = st.IsDominator()
	r.Dominator = st.Dom.Dominator
	r.Color = st.Color
	r.SizeEst = st.Est
	r.Channel = st.Channel
	r.IsReporter = st.IsReporter()
	if ps.stage == psDone && ps.inf.Have {
		r.Value, r.Ok = ps.inf.Value, true
	}
}

// announceFrag is stage 3: dominators repeatedly announce their color on
// channel 0; members learn their cluster's color. Color is valid once Feed
// returns true: the dominator's own, the learned one, or 0 for a member
// that missed every announcement. It consumes exactly AnnounceSlots slots.
type announceFrag struct {
	pl       *Plan
	dom      dominate.Outcome
	ownColor int
	start    int
	Color    int

	color int
	await bool
}

// Feed implements sim.Frag. The dominator draws in every slot; a member
// listens until it learns the color, then sleeps to the end of the stage.
func (f *announceFrag) Feed(sc *sim.StepCtx) bool {
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(ColorMsg); ok && m.Dom == f.dom.Dominator &&
			f.pl.domReach.Within(rec) {
			f.color = m.Color
		}
	}
	rel := sc.Slot() - f.start
	if rel >= f.pl.AnnounceSlots {
		if f.dom.IsDominator {
			f.Color = f.ownColor
		} else {
			f.Color = f.color
			if f.Color < 0 {
				f.Color = 0 // degraded: TDMA misalignment possible, but keep going
			}
		}
		return true
	}
	switch {
	case f.dom.IsDominator:
		if sc.Rand.Float64() < 0.2 {
			sc.Transmit(0, ColorMsg{Dom: sc.ID(), Color: f.ownColor})
		} else {
			sc.Idle()
		}
	case f.color >= 0:
		sc.IdleFor(f.pl.AnnounceSlots - rel)
	default:
		sc.Listen(0)
		f.await = true
	}
	return false
}

// folAwait tags which listen, if any, the follower fragment's previous slot
// holds.
type folAwait uint8

const (
	folAwaitNone folAwait = iota
	folAwaitRep
	folAwaitDom
	folAwaitAck
	folAwaitBackoff
)

// followerFrag is stage 6 (Sec. 6, first procedure) for the enclosing
// BuildFrag b: followers deliver their values to reporters under
// backoff-controlled contention. It reads b's plan, structure and value,
// leaves its results in b.Got and b.AckedOn, and consumes exactly
// Offsets.Tree − Offsets.Followers slots.
//
// The stage is FollowerPhases phases of Γ value rounds and one backoff
// round, each round 2·PhiMax slots with the cluster's two sub-slots at
// 2·Off and 2·Off+1. In a value round unacked followers draw and transmit
// in sub-slot 1 while reporters and the dominator listen, and reporters ack
// in sub-slot 2 while transmitters listen; in the backoff round the
// dominator may signal and unacked followers listen. A node sleeps from
// each of its decisions straight to the next one.
type followerFrag struct {
	b *BuildFrag

	init                   bool
	isRep, isDom, follower bool
	acked, heardBackoff    bool
	await                  folAwait
	start, total, perPhase int
	rounds                 sim.Rounds
	repChan                int
	pu                     float64
	phase                  int
	count                  int
	sentOn, ackTo          int
}

// Feed implements sim.Frag.
func (f *followerFrag) Feed(sc *sim.StepCtx) bool {
	b := f.b
	pl := b.Pl
	st := &b.St
	if !f.init {
		f.init = true
		f.start = sc.Slot()
		f.total = pl.followerBudget()
		f.perPhase = pl.FollowerGamma + 1
		f.rounds = sim.Rounds{Stride: 2 * pl.Cfg.PhiMax, Offset: 2 * st.Off}
		f.isRep = st.IsReporter()
		f.repChan = st.Role - 1
		f.isDom = st.IsDominator()
		f.follower = !f.isRep && !f.isDom
		f.pu = lambda * float64(st.Fv) / float64(max2(st.Est, 1))
		if f.pu > 0.5 {
			f.pu = 0.5
		}
		b.AckedOn = -1
		f.sentOn, f.ackTo = -1, -1
		if f.isRep {
			b.Got = map[int]int64{}
		}
	}
	switch f.await {
	case folAwaitRep:
		rec := sc.Prev()
		if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == st.Dom.Dominator &&
			pl.memberReach.Within(rec) {
			b.Got[m.From] = m.Value
			f.ackTo = m.From
		}
	case folAwaitDom:
		rec := sc.Prev()
		if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == sc.ID() &&
			pl.memberReach.Within(rec) {
			f.count++
		}
	case folAwaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(FollowerAck); ok && a.To == sc.ID() &&
			a.Dom == st.Dom.Dominator {
			f.acked = true
			b.AckedOn = f.sentOn
			sc.Emit(EventAcked, f.phase)
		}
	case folAwaitBackoff:
		rec := sc.Prev()
		if b, ok := rec.Msg.(Backoff); ok && b.Dom == st.Dom.Dominator &&
			pl.memberReach.Within(rec) {
			f.heardBackoff = true
		}
	}
	f.await = folAwaitNone

	rel := sc.Slot() - f.start
	if rel >= f.total {
		return true
	}
	k := f.rounds.Next(rel)
	if k > 0 && rel == f.rounds.At(k-1)+1 && !f.isBackoff(k-1) && f.ack(sc) {
		return false
	}
	k = f.next(k)
	at := min(f.rounds.At(k), f.total)
	if at == rel {
		f.advance(k / f.perPhase)
		if f.act(sc, k) {
			return false
		}
		at = min(f.rounds.At(f.next(k+1)), f.total)
	}
	sc.IdleFor(at - rel)
	return false
}

// isBackoff reports whether round k is its phase's backoff round.
func (f *followerFrag) isBackoff(k int) bool { return k%f.perPhase == f.perPhase-1 }

// next returns the first round from k on in which the node has something
// to do in the round's first sub-slot: an unacked follower draws or listens
// in every round, the dominator listens or signals in every round, a
// reporter listens in value rounds only, and an acked follower is done.
func (f *followerFrag) next(k int) int {
	switch {
	case f.isDom, f.follower && !f.acked:
		return k
	case f.isRep:
		if f.isBackoff(k) {
			return k + 1
		}
		return k
	}
	return f.total // past every round
}

// advance closes the phases before phase: an unacked follower that heard
// no backoff signal doubles its send probability, and the dominator's
// count and the backoff flag restart.
func (f *followerFrag) advance(phase int) {
	for ; f.phase < phase; f.phase++ {
		if f.follower && !f.acked && !f.heardBackoff {
			f.pu *= 2
			if f.pu > 0.5 {
				f.pu = 0.5
			}
		}
		f.count = 0
		f.heardBackoff = false
	}
}

// act performs the node's first-sub-slot action in round k, reporting
// false if it has none (a follower whose draw failed included).
func (f *followerFrag) act(sc *sim.StepCtx, k int) bool {
	pl := f.b.Pl
	st := &f.b.St
	if f.isBackoff(k) {
		switch {
		case f.isDom && f.count >= pl.Omega && !pl.Cfg.DisableBackoff:
			sc.Transmit(0, Backoff{Dom: sc.ID()})
		case f.follower && !f.acked:
			sc.Listen(0)
			f.await = folAwaitBackoff
		default:
			return false
		}
		return true
	}
	f.sentOn, f.ackTo = -1, -1
	switch {
	case f.follower && !f.acked && sc.Rand.Float64() < f.pu:
		f.sentOn = sc.Rand.Intn(st.Fv)
		sc.Transmit(f.sentOn, FollowerMsg{From: sc.ID(), Dom: st.Dom.Dominator, Value: f.b.Value})
	case f.isRep:
		sc.Listen(f.repChan)
		f.await = folAwaitRep
	case f.isDom:
		sc.Listen(0)
		f.await = folAwaitDom
	default:
		return false
	}
	return true
}

// ack performs the node's value-round second-sub-slot action, reporting
// false if it has none: a reporter acknowledges the follower it just
// heard, a follower that just transmitted listens for that ack.
func (f *followerFrag) ack(sc *sim.StepCtx) bool {
	st := &f.b.St
	switch {
	case f.isRep && f.ackTo >= 0:
		sc.Transmit(f.repChan, FollowerAck{To: f.ackTo, Dom: st.Dom.Dominator})
	case f.follower && f.sentOn >= 0:
		sc.Listen(f.sentOn)
		f.await = folAwaitAck
	default:
		return false
	}
	return true
}

// informFrag is stage 9: dominators announce the final value within their
// clusters and members listen, in exactly PhiMax slots. Value and Have are
// the stage's in/out value pair.
type informFrag struct {
	pl    *Plan
	st    *Structure
	start int

	Value int64
	Have  bool

	await bool
}

// Feed implements sim.Frag. A dominator holding the value transmits in its
// cluster's sub-slot; a member listens until it has the value; every other
// slot is slept through.
func (f *informFrag) Feed(sc *sim.StepCtx) bool {
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(FinalMsg); ok && m.Dom == f.st.Dom.Dominator &&
			f.pl.domReach.Within(rec) {
			f.Value, f.Have = m.Value, true
			sc.Emit(EventInformed, 0)
		}
	}
	rel := sc.Slot() - f.start
	end := f.pl.Cfg.PhiMax
	if rel >= end {
		return true
	}
	switch {
	case !f.st.IsDominator() && !f.Have:
		sc.Listen(0)
		f.await = true
	case f.st.IsDominator() && f.Have && rel == f.st.Off:
		sc.Transmit(0, FinalMsg{Dom: sc.ID(), Value: f.Value})
	case f.st.IsDominator() && f.Have && rel < f.st.Off:
		sc.IdleFor(f.st.Off - rel)
	default:
		sc.IdleFor(end - rel)
	}
	return false
}
