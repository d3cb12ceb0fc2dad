package reporter

// Stepper-form ports of RunElect, RunCastUp and RunCastDown (see
// internal/sim: Stepper, Frag). Each fragment mirrors its goroutine
// original's control flow — the order and conditions of ctx.Rand draws and
// the placement of post-Listen consumption code — so the two forms produce
// bit-identical transcripts.

import (
	"mcnet/internal/agg"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// ElectFrag is the sim.Frag form of RunElect on the given channel for a
// member of cluster Dom. Min is the node's current minimum; once Feed
// returns true it is the election result.
type ElectFrag struct {
	Cfg          ElectConfig
	Channel, Dom int
	Min          int

	init      bool
	rounds    int
	round     int
	pos       uint8 // 0 pre-idle, 1 act, 2 post-idle
	awaitCand bool
}

// Feed implements sim.Frag.
func (f *ElectFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.rounds = f.Cfg.Rounds(p)
		f.Min = sc.ID()
	}
	if f.awaitCand {
		f.awaitCand = false
		rec := sc.Prev()
		if c, ok := rec.Msg.(Cand); ok && c.Dom == f.Dom && c.From < f.Min &&
			phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.Min = c.From
		}
	}
	stride := f.Cfg.stride()
	for {
		if f.round >= f.rounds {
			return true
		}
		switch f.pos {
		case 0:
			f.pos = 1
			if f.Cfg.Offset > 0 {
				sc.IdleFor(f.Cfg.Offset)
				return false
			}
		case 1:
			f.pos = 2
			if f.Min == sc.ID() && sc.Rand.Float64() < f.Cfg.TxProb {
				sc.Transmit(f.Channel, Cand{From: sc.ID(), Dom: f.Dom})
			} else {
				sc.Listen(f.Channel)
				f.awaitCand = true
			}
			return false
		default:
			f.pos = 0
			f.round++
			if k := stride - 1 - f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// castAwait tags which sub-slot listen the fragment's previous slot holds.
type castAwait uint8

const (
	castAwaitNone castAwait = iota
	castAwaitSub0Parent
	castAwaitSub1Sender
	castAwaitSub2Parent
	castAwaitSub2StandIn
	castAwaitSub3Sender
)

// CastUpFrag is the sim.Frag form of RunCastUp for tree role Role in
// cluster Dom, folding Value with Op. St is valid once Feed returns true.
type CastUpFrag struct {
	Cfg       CastConfig
	Role, Dom int
	Value     int64
	Op        agg.Op
	St        CastState

	init   bool
	lvl    int
	pos    uint8 // 0 pre-idle, 1..4 sub-slots 0..3, 5 level end + post-idle
	acting int
	done   bool
	await  castAwait
	// Per-level locals of the goroutine form.
	isSender, isParent    bool
	sendsLeft, sendsRight bool
	parentRole            int
	sendCh, ownCh         int
	gotAck, standIn       bool
	sibValue              int64
	sibSeen               bool
}

func (f *CastUpFrag) recordChild(j, side int, v int64) {
	cv, cs := f.St.ChildVals[j], f.St.ChildSeen[j]
	cv[side], cs[side] = v, true
	f.St.ChildVals[j], f.St.ChildSeen[j] = cv, cs
}

// Feed implements sim.Frag.
func (f *CastUpFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.St = CastState{
			Value:       f.Value,
			DeliveredAs: -1,
			ChildVals:   map[int][2]int64{},
			ChildSeen:   map[int][2]bool{},
		}
		f.acting = f.Role
		if f.Role >= 0 {
			f.St.Chain = append(f.St.Chain, f.Role)
		}
		f.lvl = f.Cfg.Levels()
	}
	switch f.await {
	case castAwaitSub0Parent:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.acting && m.Dom == f.Dom &&
			m.From == 2*f.acting && phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.recordChild(f.acting, 0, m.Value)
		}
	case castAwaitSub1Sender:
		rec := sc.Prev()
		if a, ok := rec.Msg.(UpAck); ok && a.ToRole == f.acting && a.Dom == f.Dom {
			f.gotAck = true
		}
		f.standIn = !f.gotAck // parent absent: stand in for it
	case castAwaitSub2Parent:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.acting && m.Dom == f.Dom &&
			m.From == 2*f.acting+1 && phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.recordChild(f.acting, 1, m.Value)
		}
	case castAwaitSub2StandIn:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.parentRole && m.Dom == f.Dom &&
			m.From == f.acting+1 && phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.sibValue, f.sibSeen = m.Value, true
		}
	case castAwaitSub3Sender:
		rec := sc.Prev()
		if a, ok := rec.Msg.(UpAck); ok && a.ToRole == f.acting && a.Dom == f.Dom {
			f.gotAck = true
		}
	}
	f.await = castAwaitNone

	stride := f.Cfg.stride()
	for {
		if f.lvl < 1 {
			return true
		}
		switch f.pos {
		case 0:
			f.pos = 1
			if k := 4 * f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 1: // Sub-slot 0: left children transmit.
			f.isSender = !f.done && f.acting >= 1 && levelOf(f.acting) == f.lvl
			f.isParent = !f.done && f.acting >= 0 && levelOf(f.acting) == f.lvl-1
			f.sendsLeft = f.isSender && f.acting%2 == 0 && f.acting != 1
			f.sendsRight = f.isSender && (f.acting%2 == 1 || f.acting == 1)
			f.parentRole = f.acting / 2
			f.sendCh = chanOf(f.parentRole)
			f.ownCh = chanOf(f.acting)
			f.gotAck, f.standIn, f.sibSeen = false, false, false
			f.sibValue = 0
			f.pos = 2
			switch {
			case f.sendsLeft:
				sc.Transmit(f.sendCh, UpMsg{ToRole: f.parentRole, Dom: f.Dom, From: f.acting, Value: f.St.Value})
			case f.isParent:
				sc.Listen(f.ownCh)
				f.await = castAwaitSub0Parent
			default:
				sc.Idle()
			}
			return false
		case 2: // Sub-slot 1: parents ack their left child.
			f.pos = 3
			switch {
			case f.isParent && f.St.ChildSeen[f.acting][0]:
				sc.Transmit(f.ownCh, UpAck{ToRole: 2 * f.acting, Dom: f.Dom})
			case f.sendsLeft:
				sc.Listen(f.sendCh)
				f.await = castAwaitSub1Sender
			default:
				sc.Idle()
			}
			return false
		case 3: // Sub-slot 2: right children transmit; stand-ins absorb.
			f.pos = 4
			switch {
			case f.sendsRight:
				sc.Transmit(f.sendCh, UpMsg{ToRole: f.parentRole, Dom: f.Dom, From: f.acting, Value: f.St.Value})
			case f.isParent:
				sc.Listen(f.ownCh)
				f.await = castAwaitSub2Parent
			case f.standIn:
				sc.Listen(f.sendCh)
				f.await = castAwaitSub2StandIn
			default:
				sc.Idle()
			}
			return false
		case 4: // Sub-slot 3: parents (or stand-ins) ack the right child.
			f.pos = 5
			switch {
			case f.isParent && f.St.ChildSeen[f.acting][1]:
				sc.Transmit(f.ownCh, UpAck{ToRole: 2*f.acting + 1, Dom: f.Dom})
			case f.standIn && f.sibSeen:
				sc.Transmit(f.sendCh, UpAck{ToRole: f.acting + 1, Dom: f.Dom})
			case f.sendsRight:
				sc.Listen(f.sendCh)
				f.await = castAwaitSub3Sender
			default:
				sc.Idle()
			}
			return false
		default: // Fold, resolve takeovers, post-idle, next level.
			if f.isParent {
				if f.St.ChildSeen[f.acting][0] {
					f.St.Value = f.Op.Combine(f.St.Value, f.St.ChildVals[f.acting][0])
				}
				if f.St.ChildSeen[f.acting][1] {
					f.St.Value = f.Op.Combine(f.St.Value, f.St.ChildVals[f.acting][1])
				}
			}
			if f.isSender {
				switch {
				case f.gotAck:
					f.St.DeliveredAs = f.acting
					f.done = true
				default:
					f.St.Chain = append(f.St.Chain, f.parentRole)
					f.acting = f.parentRole
					if f.standIn {
						f.recordChild(f.parentRole, 0, f.St.Value)
						if f.sibSeen {
							f.St.Value = f.Op.Combine(f.St.Value, f.sibValue)
							f.recordChild(f.parentRole, 1, f.sibValue)
						}
					} else {
						f.recordChild(f.parentRole, 1, f.St.Value)
					}
				}
			}
			f.lvl--
			f.pos = 0
			if k := 4 * (stride - 1 - f.Cfg.Offset); k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// CastDownFrag is the sim.Frag form of RunCastDown for tree role Role in
// cluster Dom: it retraces the up pass St (a CastUpFrag's St, takeovers
// included), starting from Root at the dominator and dividing each acted
// role's payload with Split. Self and Ok are the node's own interval and
// whether it obtained one, valid once Feed returns true.
type CastDownFrag struct {
	Cfg       CastConfig
	Role, Dom int
	St        CastState
	Root      [2]int64
	Split     SplitFunc
	Self      [2]int64
	Ok        bool

	init     bool
	lvl      int
	pos      uint8            // 0 pre-idle, 1..4 sub-slots 0..3, 5 post-idle
	chain    []int            // the roles acted as: chainRoles(Role, St)
	payloads map[int][2]int64 // payload per chain role, once known
	have     bool
	topRole  int
	await    bool
	// Per-level locals of the goroutine form.
	parentRole        int
	isParent          bool
	leftPay, rightPay [2]int64
	expectsAt         bool
	recvCh            int
}

// inChain reports whether the node acted as role j during the up pass.
func (f *CastDownFrag) inChain(j int) bool {
	for _, c := range f.chain {
		if c == j {
			return true
		}
	}
	return false
}

// propagate walks the node's internal chain top-down from the top role,
// splitting payloads locally (no radio between a node's own roles).
func (f *CastDownFrag) propagate() {
	if !f.have {
		return
	}
	for j := f.topRole; j >= 0; {
		pl, ok := f.payloads[j]
		if !ok {
			return
		}
		self, left, right := f.Split(j, j == f.Role, pl, f.St.ChildVals[j], f.St.ChildSeen[j])
		if j == f.Role {
			f.Self, f.Ok = self, true
			return
		}
		switch {
		case f.inChain(2 * j):
			f.payloads[2*j] = left
			j = 2 * j
		case f.inChain(2*j + 1):
			f.payloads[2*j+1] = right
			j = 2*j + 1
		default:
			return
		}
	}
}

// Feed implements sim.Frag.
func (f *CastDownFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.chain = chainRoles(f.Role, f.St)
		f.payloads = map[int][2]int64{}
		f.topRole = -1
		if f.Role == 0 {
			f.payloads[0] = f.Root
			f.have = true
			f.topRole = 0
		} else if len(f.chain) > 0 {
			// The payload arrives addressed to the highest role in the
			// chain (the role under which the node delivered upward).
			f.topRole = f.chain[len(f.chain)-1]
		}
		f.propagate()
		f.lvl = 1
	}
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(DownMsg); ok && m.ToRole == f.topRole && m.Dom == f.Dom &&
			phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.payloads[f.topRole], f.have = m.Payload, true
			f.propagate()
		}
	}

	stride := f.Cfg.stride()
	for {
		if f.lvl > f.Cfg.Levels() {
			return true
		}
		switch f.pos {
		case 0:
			f.pos = 1
			if k := 4 * f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 1: // Sub-slot 0: payload to left child.
			// Does the node act as a parent of level-lvl roles?
			f.parentRole, f.isParent = -1, false
			for _, j := range f.chain {
				if levelOf(j) == f.lvl-1 {
					f.parentRole, f.isParent = j, true
				}
			}
			if f.isParent {
				if _, ok := f.payloads[f.parentRole]; !ok {
					f.isParent = false
				}
			}
			f.leftPay, f.rightPay = [2]int64{}, [2]int64{}
			if f.isParent {
				_, f.leftPay, f.rightPay = f.Split(f.parentRole, f.parentRole == f.Role,
					f.payloads[f.parentRole], f.St.ChildVals[f.parentRole], f.St.ChildSeen[f.parentRole])
			}
			// Does the node expect to receive at this level?
			f.expectsAt = !f.have && f.topRole >= 1 && levelOf(f.topRole) == f.lvl
			f.recvCh = chanOf(f.topRole / 2)
			f.pos = 2
			switch {
			case f.isParent && f.parentRole >= 1 && f.St.ChildSeen[f.parentRole][0] && !f.inChain(2*f.parentRole):
				sc.Transmit(chanOf(f.parentRole), DownMsg{ToRole: 2 * f.parentRole, Dom: f.Dom, Payload: f.leftPay})
			case f.expectsAt && f.topRole%2 == 0 && f.topRole != 1:
				sc.Listen(f.recvCh)
				f.await = true
			default:
				sc.Idle()
			}
			return false
		case 2: // Sub-slot 1: layout parity with the up pass.
			f.pos = 3
			sc.Idle()
			return false
		case 3: // Sub-slot 2: payload to right child (and from root to role 1).
			f.pos = 4
			switch {
			case f.isParent && f.parentRole == 0:
				sc.Transmit(0, DownMsg{ToRole: 1, Dom: f.Dom, Payload: f.rightPay})
			case f.isParent && f.St.ChildSeen[f.parentRole][1] && !f.inChain(2*f.parentRole+1):
				sc.Transmit(chanOf(f.parentRole), DownMsg{ToRole: 2*f.parentRole + 1, Dom: f.Dom, Payload: f.rightPay})
			case f.expectsAt && (f.topRole%2 == 1 || f.topRole == 1):
				sc.Listen(f.recvCh)
				f.await = true
			default:
				sc.Idle()
			}
			return false
		case 4: // Sub-slot 3: layout parity.
			f.pos = 5
			sc.Idle()
			return false
		default:
			f.lvl++
			f.pos = 0
			if k := 4 * (stride - 1 - f.Cfg.Offset); k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}
