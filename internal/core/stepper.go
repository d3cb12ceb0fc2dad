package core

import (
	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/phy"
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
		f.ann = announceFrag{pl: pl, dom: f.St.Dom, ownColor: f.ownColor}
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
			if !ps.cur.Feed(sc) {
				return
			}
			ps.cur = nil
			ps.leave(sc)
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
		} else {
			ps.enterIdle(cast.SlotBudget())
		}
	case psTree:
		if st.IsDominator() {
			ps.tree = &backbone.TreeFrag{Cfg: pl.Tree, Color: st.Off, Value: ps.clusterAgg, Op: ps.op}
			ps.cur = ps.tree
		} else {
			ps.enterIdle(pl.Tree.SlotBudget())
		}
	case psInform:
		ps.inf = informFrag{pl: pl, st: st}
		if st.IsDominator() && ps.tree != nil {
			ps.inf.Value, ps.inf.Have = ps.tree.Out.Result, ps.tree.Out.Done
		}
		ps.cur = &ps.inf
	}
}

// leave consumes the finished stage's result and emits its milestone
// events.
func (ps *pipelineStepper) leave(sc *sim.StepCtx) {
	switch ps.stage {
	case psCast:
		if ps.build.St.Role == 0 {
			ps.clusterAgg = ps.cast.St.Value
			sc.Emit(EventClusterAgg, 0)
		}
		ps.build.Got = nil // drops the reporter's follower map
		ps.cast = nil
	case psInform:
		if ps.inf.Have {
			sc.Emit(EventInformed, 0)
		}
		ps.tree = nil
	}
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
// that missed every announcement.
type announceFrag struct {
	pl       *Plan
	dom      dominate.Outcome
	ownColor int
	Color    int

	init  bool
	s     int
	color int
	await bool
}

// Feed implements sim.Frag.
func (f *announceFrag) Feed(sc *sim.StepCtx) bool {
	if !f.init {
		f.init = true
		f.color = -1
	}
	p := f.pl.Params
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(ColorMsg); ok && m.Dom == f.dom.Dominator &&
			phy.SenderWithin(rec, p, p.ClusterRadius()) {
			f.color = m.Color
		}
	}
	if f.s >= f.pl.AnnounceSlots {
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
	f.s++
	if f.dom.IsDominator {
		if sc.Rand.Float64() < 0.2 {
			sc.Transmit(0, ColorMsg{Dom: sc.ID(), Color: f.ownColor})
		} else {
			sc.Idle()
		}
		return false
	}
	if f.color >= 0 {
		sc.Idle()
		return false
	}
	sc.Listen(0)
	f.await = true
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
type followerFrag struct {
	b *BuildFrag

	init                   bool
	stride, off            int
	isRep, isDom, follower bool
	repChan                int
	acked                  bool
	pu                     float64
	memberR                float64
	phase, round           int
	pos                    uint8 // 0-3 value rounds, 4-7 backoff round
	count                  int
	heardBackoff           bool
	sentOn, ackTo          int
	await                  folAwait
}

// Feed implements sim.Frag.
func (f *followerFrag) Feed(sc *sim.StepCtx) bool {
	b := f.b
	pl := b.Pl
	p := pl.Params
	st := &b.St
	if !f.init {
		f.init = true
		f.stride = pl.Cfg.PhiMax
		f.isRep = st.IsReporter()
		f.repChan = st.Role - 1
		f.isDom = st.IsDominator()
		f.follower = !f.isRep && !f.isDom
		f.pu = lambda * float64(st.Fv) / float64(max2(st.Est, 1))
		if f.pu > 0.5 {
			f.pu = 0.5
		}
		f.memberR = pl.ClusterRadius()
		f.off = st.Off
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
			phy.SenderWithin(rec, p, f.memberR) {
			b.Got[m.From] = m.Value
			f.ackTo = m.From
		}
	case folAwaitDom:
		rec := sc.Prev()
		if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == sc.ID() &&
			phy.SenderWithin(rec, p, f.memberR) {
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
			phy.SenderWithin(rec, p, f.memberR) {
			f.heardBackoff = true
		}
	}
	f.await = folAwaitNone
	for {
		if f.phase >= pl.FollowerPhases {
			return true
		}
		switch f.pos {
		case 0: // value-round pre-idle
			if f.round >= pl.FollowerGamma {
				f.pos = 4
				continue
			}
			f.pos = 1
			if k := 2 * f.off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 1: // sub-slot 1: follower transmissions
			f.pos = 2
			f.sentOn, f.ackTo = -1, -1
			switch {
			case f.follower && !f.acked && sc.Rand.Float64() < f.pu:
				f.sentOn = sc.Rand.Intn(st.Fv)
				sc.Transmit(f.sentOn, FollowerMsg{From: sc.ID(), Dom: st.Dom.Dominator, Value: b.Value})
			case f.isRep:
				sc.Listen(f.repChan)
				f.await = folAwaitRep
			case f.isDom:
				sc.Listen(0)
				f.await = folAwaitDom
			default:
				sc.Idle()
			}
			return false
		case 2: // sub-slot 2: acknowledgements
			f.pos = 3
			switch {
			case f.isRep && f.ackTo >= 0:
				sc.Transmit(f.repChan, FollowerAck{To: f.ackTo, Dom: st.Dom.Dominator})
			case f.follower && f.sentOn >= 0:
				sc.Listen(f.sentOn)
				f.await = folAwaitAck
			default:
				sc.Idle()
			}
			return false
		case 3: // value-round post-idle
			f.pos = 0
			f.round++
			if k := 2 * (f.stride - 1 - f.off); k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 4: // backoff-round pre-idle
			f.pos = 5
			if k := 2 * f.off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 5: // backoff signal
			f.pos = 6
			switch {
			case f.isDom && f.count >= pl.Omega && !pl.Cfg.DisableBackoff:
				sc.Transmit(0, Backoff{Dom: sc.ID()})
			case f.follower && !f.acked:
				sc.Listen(0)
				f.await = folAwaitBackoff
			default:
				sc.Idle()
			}
			return false
		case 6: // stride parity
			f.pos = 7
			sc.Idle()
			return false
		default: // backoff-round post-idle + phase advance
			f.pos = 0
			f.round = 0
			if f.follower && !f.acked && !f.heardBackoff {
				f.pu *= 2
				if f.pu > 0.5 {
					f.pu = 0.5
				}
			}
			f.phase++
			f.count = 0
			f.heardBackoff = false
			if k := 2 * (f.stride - 1 - f.off); k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// informFrag is stage 9: dominators announce the final value within their
// clusters and members listen, in exactly PhiMax slots. Value and Have are
// the stage's in/out value pair.
type informFrag struct {
	pl *Plan
	st *Structure

	Value int64
	Have  bool

	sub   int
	await bool
}

// Feed implements sim.Frag.
func (f *informFrag) Feed(sc *sim.StepCtx) bool {
	p := f.pl.Params
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(FinalMsg); ok && m.Dom == f.st.Dom.Dominator &&
			phy.SenderWithin(rec, p, p.ClusterRadius()) {
			f.Value, f.Have = m.Value, true
		}
	}
	if f.sub >= f.pl.Cfg.PhiMax {
		return true
	}
	sub := f.sub
	f.sub++
	switch {
	case f.st.IsDominator() && sub == f.st.Off && f.Have:
		sc.Transmit(0, FinalMsg{Dom: sc.ID(), Value: f.Value})
	case !f.st.IsDominator() && !f.Have:
		sc.Listen(0)
		f.await = true
	default:
		sc.Idle()
	}
	return false
}
