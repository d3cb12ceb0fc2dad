package coloring

// This file holds the sec7 backend's node protocol (see internal/sim:
// Stepper, Frag). sec7Stepper chains core.BuildFrag (structure plus
// procedure 1), the reporter-tree cast fragments (procedures 2 and 3) and
// assignFrag (procedure 4), with the glue at the fragment boundaries.
// TestColorExecIdentity in the root package pins the transcripts.

import (
	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// Coloring stages, in slot order.
const (
	sBuild  uint8 = iota // structure construction + procedure 1
	sUp                  // procedure 2
	sDown                // procedure 3
	sAssign              // procedure 4
	sDone
)

// sec7Stepper is one node's sec7 coloring as a sim.Stepper.
type sec7Stepper struct {
	build  core.BuildFrag
	rounds int

	stage uint8
	cur   sim.Frag

	idle      sim.IdleFrag
	asg       assignFrag
	up        *reporter.CastUpFrag
	down      *reporter.CastDownFrag
	followers []int
}

// Step implements sim.Stepper.
func (s *sec7Stepper) Step(sc *sim.StepCtx) {
	for {
		if s.cur != nil {
			if !s.cur.Feed(sc) {
				return
			}
			s.cur = nil
			s.leave()
		}
		if s.stage == sDone {
			sc.Done()
			return
		}
		s.enter(sc)
	}
}

// enter builds the fragment for the current stage, including the
// dominator's and reporters' index assignment at the start of procedure 4.
func (s *sec7Stepper) enter(sc *sim.StepCtx) {
	st := &s.build.St
	switch s.stage {
	case sBuild:
		s.cur = &s.build
	case sUp, sDown:
		s.enterCast()
	case sAssign:
		s.asg = assignFrag{pl: s.build.Pl, st: st, rounds: s.rounds, start: sc.Slot(), followers: s.followers,
			ackedOn: s.build.AckedOn, Index: -1, Color: -1}
		switch {
		case st.Role == 0:
			// The dominator's index is one past the member total.
			s.asg.assign(sc, int(s.up.St.Value))
		case st.Role >= 1 && s.down.Ok:
			s.asg.block, s.asg.haveBlock = s.down.Self, true
			s.asg.assign(sc, int(s.down.Self[0]))
		}
		s.up, s.down = nil, nil
		s.cur = &s.asg
	}
}

// enterCast starts procedure 2 (subtree counts up the reporter tree) or 3
// (index ranges down it); followers idle through the pass instead.
func (s *sec7Stepper) enterCast() {
	st := &s.build.St
	cast := s.build.Pl.CastConfig(st.Off)
	if st.Role < 0 {
		s.idle = sim.IdleFrag{K: cast.SlotBudget()}
		s.cur = &s.idle
		return
	}
	subtree := int64(1 + len(s.followers))
	if s.stage == sUp {
		value := subtree
		if st.Role == 0 {
			value = 0
		}
		s.up = &reporter.CastUpFrag{Cfg: cast, Role: st.Role, Dom: st.Dom.Dominator, Value: value, Op: agg.Sum}
		s.cur = s.up
		return
	}
	s.down = &reporter.CastDownFrag{
		Cfg: cast, Role: st.Role, Dom: st.Dom.Dominator,
		St: s.up.St, Root: [2]int64{0, s.up.St.Value}, Split: indexSplit(subtree),
	}
	s.cur = s.down
}

// leave consumes the finished stage's result.
func (s *sec7Stepper) leave() {
	if s.stage == sBuild {
		s.followers = sortedFollowers(s.build.Got)
		s.build.Got = nil
	}
	s.stage++
}

// result fills r from the node's final state: the cluster color and
// dominator flag once the structure is built, the reporter flag once
// procedure 1 is over, the index and color once assigned. A node that
// crashed earlier reports what it had reached.
func (s *sec7Stepper) result(r *Result) {
	r.Color, r.Index = -1, -1
	st := &s.build.St
	if s.build.Built() {
		r.ClusterColor = st.Color
		r.IsDominator = st.IsDominator()
	}
	if s.stage > sBuild {
		r.IsReporter = st.IsReporter()
	}
	if s.stage > sDown {
		r.Color, r.Index = s.asg.Color, s.asg.Index
	}
}

// assignFrag is procedure 4: a reporter holding its block announces one
// index per follower on its channel, round-robin; an uncolored follower
// listens on the channel whose reporter acknowledged it. It runs rounds
// rounds of PhiMax slots, acting only in the cluster's sub-slot Off, and
// every other node sleeps through it.
// Index and Color are the node's outcome (-1 while uncolored).
type assignFrag struct {
	pl        *core.Plan
	st        *core.Structure
	rounds    int
	start     int
	followers []int
	block     [2]int64
	haveBlock bool
	ackedOn   int

	Index, Color int

	await bool
}

// assign records within-cluster index k and announces the resulting color.
func (f *assignFrag) assign(sc *sim.StepCtx, k int) {
	f.Index = k
	f.Color = paletteColor(f.pl, k, f.st.Color)
	sc.Emit(EventColored, f.Color)
}

// Feed implements sim.Frag.
func (f *assignFrag) Feed(sc *sim.StepCtx) bool {
	st := f.st
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Assign); ok && m.Dom == st.Dom.Dominator &&
			m.To == sc.ID() && f.pl.MemberReach().Within(rec) {
			f.assign(sc, m.Index)
		}
	}
	rel := sc.Slot() - f.start
	r := sim.Rounds{Stride: f.pl.Cfg.PhiMax, Offset: st.Off}
	end := f.rounds * r.Stride
	if rel >= end {
		return true
	}
	sends := st.Role >= 1 && f.haveBlock && len(f.followers) > 0
	listens := st.Role < 0 && f.Color < 0 && f.ackedOn >= 0
	k := r.Next(rel)
	switch at := min(r.At(k), end); {
	case !sends && !listens:
		sc.IdleFor(end - rel)
	case at > rel:
		sc.IdleFor(at - rel)
	case sends:
		i := k % len(f.followers)
		sc.Transmit(st.Role-1, Assign{
			Dom:   st.Dom.Dominator,
			To:    f.followers[i],
			Index: int(f.block[0]) + 1 + i,
		})
	default:
		sc.Listen(f.ackedOn)
		f.await = true
	}
	return false
}
