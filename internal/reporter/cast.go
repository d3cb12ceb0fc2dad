package reporter

import (
	"mcnet/internal/agg"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// UpMsg carries a subtree aggregate from tree role From to role ToRole.
type UpMsg struct {
	ToRole int
	Dom    int
	From   int
	Value  int64
}

// PayloadValue exposes the subtree aggregate to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m UpMsg) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m UpMsg) WithPayloadValue(v int64) any { m.Value = v; return m }

// UpAck confirms receipt of an UpMsg.
type UpAck struct {
	ToRole int
	Dom    int
}

// DownMsg carries a payload interval from a parent to tree role ToRole.
type DownMsg struct {
	ToRole  int
	Dom     int
	Payload [2]int64
}

// CastConfig parameterizes reporter-tree convergecast and distribution.
type CastConfig struct {
	// F is the number of channel roles in the tree (the cluster's f_v).
	F int
	// ClusterRadius bounds the distance to co-members (2·r_c).
	ClusterRadius float64
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// DefaultCastConfig returns the pipeline configuration.
func DefaultCastConfig(f int, clusterRadius float64) CastConfig {
	return CastConfig{F: f, ClusterRadius: clusterRadius, Stride: 1}
}

func (c CastConfig) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// Levels returns the depth of the role heap: roles 1..F; the level of role
// k is the position of its most significant bit, so role 1 is level 1 and
// the deepest level is ⌊log₂ F⌋ + 1.
func (c CastConfig) Levels() int {
	return levelOf(c.F)
}

// SlotBudget returns the exact number of slots one directional pass (up or
// down) consumes: 4 sub-slots per level, stride-interleaved.
func (c CastConfig) SlotBudget() int {
	return 4 * c.Levels() * c.stride()
}

// rounds lays out a pass's levels: the k-th level passed spans 4·Stride
// slots with its four sub-slots starting at 4·Offset.
func (c CastConfig) rounds() sim.Rounds {
	return sim.Rounds{Stride: 4 * c.stride(), Offset: 4 * c.Offset}
}

// levelOf returns the heap level of role k: 0 for the root (role 0), and
// the MSB position for k ≥ 1 (role 1 → 1, roles 2-3 → 2, roles 4-7 → 3, …).
func levelOf(k int) int {
	l := 0
	for v := k; v > 0; v >>= 1 {
		l++
	}
	return l
}

// chanOf returns the physical channel of role k ≥ 1; the dominator (role 0)
// uses channel 0, which is also role 1's channel (the paper's "special
// first channel").
func chanOf(k int) int {
	if k <= 0 {
		return 0
	}
	return k - 1
}

// CastState records what a node did during an up pass, so a later down pass
// can retrace the tree through Appendix A takeovers.
type CastState struct {
	// Value is the accumulated aggregate after the pass.
	Value int64
	// Chain lists the roles the node acted as, in ascending tree order
	// (own role first, then any taken-over ancestors).
	Chain []int
	// DeliveredAs is the role under which the node's aggregate reached a
	// live parent (-1 if it never delivered; the dominator never delivers).
	DeliveredAs int
	// ChildVals / ChildSeen record, per acted role, the child contributions
	// (index 0 = left child 2j, 1 = right child 2j+1). For the root, the
	// single child (role 1) is recorded on index 1.
	ChildVals map[int][2]int64
	ChildSeen map[int][2]bool
}

// SplitFunc partitions acted role j's payload into the actor's own interval
// (only when base is true: a physical node consumes its own share exactly
// once, at its base role) and the two child subtree intervals, using the
// child contributions cv/cs recorded on the way up.
type SplitFunc func(j int, base bool, payload [2]int64, cv [2]int64, cs [2]bool) (self, left, right [2]int64)

// rootChain is the dominator's chain: it acts as the root only. Shared and
// read-only.
var rootChain = []int{0}

// chainRoles returns the roles the node acted as during the up pass.
func chainRoles(role int, st CastState) []int {
	if role == 0 {
		return rootChain
	}
	return st.Chain
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

// CastUpFrag executes one up pass of the reporter tree for tree role Role
// in cluster Dom, folding Value with Op. St is valid once Feed returns
// true.
//
// Role 0 is the dominator; roles 1..F are channel reporters (role k on
// physical channel k-1); bystanders idle through the pass with a
// sim.IdleFrag. Missing roles (empty channels) are healed by the Appendix
// A rules: an unacknowledged left child stands in for its missing parent,
// absorbing its sibling's transmission directly; an unacknowledged right
// child takes over only when the left sibling is absent too (a present
// left sibling would have acknowledged it).
//
// Sub-slots per level: 0 = left child transmits, 1 = ack to left child,
// 2 = right child transmits, 3 = ack to right child. Role 1 (the root's
// only child) uses the right-child sub-slots. Each level spans 4·Stride
// slots with its sub-slots at 4·Offset; a node steps through the
// sub-slots of the levels it sends or receives in and sleeps through the
// rest. The pass consumes exactly Cfg.SlotBudget slots.
type CastUpFrag struct {
	Cfg       CastConfig
	Role, Dom int
	Value     int64
	Op        agg.Op
	St        CastState

	start      int // the slot of the first Feed
	lvl        int // the level being passed, Levels() down to 1
	acting     int
	init, done bool
	reach      phy.Reach // Cfg.ClusterRadius
	await      castAwait
	// Per-level state.
	isSender, isParent       bool
	sendsLeft, sendsRight    bool
	gotAck, standIn, sibSeen bool
	parentRole               int
	sendCh, ownCh            int
	sibValue                 int64
}

func (f *CastUpFrag) recordChild(j, side int, v int64) {
	cv, cs := f.St.ChildVals[j], f.St.ChildSeen[j]
	cv[side], cs[side] = v, true
	f.St.ChildVals[j], f.St.ChildSeen[j] = cv, cs
}

// Feed implements sim.Frag.
func (f *CastUpFrag) Feed(sc *sim.StepCtx) bool {
	if !f.init {
		f.init = true
		f.reach = phy.NewReach(sc.Params(), f.Cfg.ClusterRadius)
		f.start = sc.Slot()
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
		f.begin()
	}
	switch f.await {
	case castAwaitSub0Parent:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.acting && m.Dom == f.Dom &&
			m.From == 2*f.acting && f.reach.Within(rec) {
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
			m.From == 2*f.acting+1 && f.reach.Within(rec) {
			f.recordChild(f.acting, 1, m.Value)
		}
	case castAwaitSub2StandIn:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.parentRole && m.Dom == f.Dom &&
			m.From == f.acting+1 && f.reach.Within(rec) {
			f.sibValue, f.sibSeen = m.Value, true
		}
	case castAwaitSub3Sender:
		rec := sc.Prev()
		if a, ok := rec.Msg.(UpAck); ok && a.ToRole == f.acting && a.Dom == f.Dom {
			f.gotAck = true
		}
	}
	f.await = castAwaitNone

	rel := sc.Slot() - f.start
	// Close every level whose sub-slots are over.
	for f.lvl >= 1 && rel >= f.subSlot(4) {
		f.fold()
	}
	total := f.Cfg.SlotBudget()
	if rel >= total {
		return true
	}
	at := total
	if f.lvl >= 1 {
		at = f.subSlot(0)
		if f.isSender || f.isParent {
			if sub := rel - at; sub >= 0 {
				if f.act(sc, sub) {
					return false
				}
				at = rel + 1 // the next sub-slot, or the level's close
			}
		} else {
			at = f.subSlot(4) // sleep through the level; the close is a no-op
		}
	}
	sc.IdleFor(min(at, total) - rel)
	return false
}

// Folded reports whether the pass has closed every level, so St.Value is
// final: for the root, its cluster's aggregate.
func (f *CastUpFrag) Folded() bool { return f.init && f.lvl < 1 }

// subSlot returns the fragment-relative slot of sub-slot k of the current
// level (k = 4 is the slot after the level's last sub-slot).
func (f *CastUpFrag) subSlot(k int) int {
	return f.Cfg.rounds().At(f.Cfg.Levels()-f.lvl) + k
}

// begin derives the node's part in the current level.
func (f *CastUpFrag) begin() {
	f.isSender = !f.done && f.acting >= 1 && levelOf(f.acting) == f.lvl
	f.isParent = !f.done && f.acting >= 0 && levelOf(f.acting) == f.lvl-1
	f.sendsLeft = f.isSender && f.acting%2 == 0 && f.acting != 1
	f.sendsRight = f.isSender && (f.acting%2 == 1 || f.acting == 1)
	f.parentRole = f.acting / 2
	f.sendCh = chanOf(f.parentRole)
	f.ownCh = chanOf(f.acting)
	f.gotAck, f.standIn, f.sibSeen = false, false, false
	f.sibValue = 0
}

// act performs the node's action in sub-slot sub of the current level,
// reporting false if it has none.
func (f *CastUpFrag) act(sc *sim.StepCtx, sub int) bool {
	switch sub {
	case 0: // left children transmit
		switch {
		case f.sendsLeft:
			sc.Transmit(f.sendCh, UpMsg{ToRole: f.parentRole, Dom: f.Dom, From: f.acting, Value: f.St.Value})
		case f.isParent:
			sc.Listen(f.ownCh)
			f.await = castAwaitSub0Parent
		default:
			return false
		}
	case 1: // parents ack their left child
		switch {
		case f.isParent && f.St.ChildSeen[f.acting][0]:
			sc.Transmit(f.ownCh, UpAck{ToRole: 2 * f.acting, Dom: f.Dom})
		case f.sendsLeft:
			sc.Listen(f.sendCh)
			f.await = castAwaitSub1Sender
		default:
			return false
		}
	case 2: // right children transmit; stand-ins absorb
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
			return false
		}
	default: // parents (or stand-ins) ack the right child
		switch {
		case f.isParent && f.St.ChildSeen[f.acting][1]:
			sc.Transmit(f.ownCh, UpAck{ToRole: 2*f.acting + 1, Dom: f.Dom})
		case f.standIn && f.sibSeen:
			sc.Transmit(f.sendCh, UpAck{ToRole: f.acting + 1, Dom: f.Dom})
		case f.sendsRight:
			sc.Listen(f.sendCh)
			f.await = castAwaitSub3Sender
		default:
			return false
		}
	}
	return true
}

// fold closes the current level — a parent folds its children in, a sender
// either delivered or takes over its missing parent's role — and begins
// the next one.
func (f *CastUpFrag) fold() {
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
	f.begin()
}

// CastDownFrag executes one down pass for tree role Role in cluster Dom,
// distributing payload intervals from the root to the reporters: it
// retraces the up pass St (a CastUpFrag's St, takeovers included), starting
// from Root at the dominator and dividing each acted role's payload with
// Split. Self and Ok are the node's own interval and whether it obtained
// one, valid once Feed returns true. It uses the up pass's level layout
// with the levels in reverse order; only sub-slots 0 and 2 carry payloads
// (1 and 3 keep the layout), and a node wakes at each level's sub-slot 0
// and, when it sends or expects a payload there, at sub-slot 2. The pass
// consumes exactly Cfg.SlotBudget slots.
type CastDownFrag struct {
	Cfg       CastConfig
	Role, Dom int
	St        CastState
	Root      [2]int64
	Split     SplitFunc
	Self      [2]int64
	Ok        bool

	init, have, await bool
	reach             phy.Reach        // Cfg.ClusterRadius
	start             int              // the slot of the first Feed
	lvl               int              // the level being passed, 1 up to Levels()
	chain             []int            // the roles acted as: chainRoles(Role, St)
	payloads          map[int][2]int64 // payload per chain role, once known
	topRole           int
	// Per-level state.
	isParent, expectsAt bool
	parentRole          int
	leftPay, rightPay   [2]int64
	recvCh              int
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
	if !f.init {
		f.init = true
		f.reach = phy.NewReach(sc.Params(), f.Cfg.ClusterRadius)
		f.start = sc.Slot()
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
	}
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(DownMsg); ok && m.ToRole == f.topRole && m.Dom == f.Dom &&
			f.reach.Within(rec) {
			f.payloads[f.topRole], f.have = m.Payload, true
			f.propagate()
		}
	}

	rel := sc.Slot() - f.start
	total := f.Cfg.SlotBudget()
	if rel >= total {
		return true
	}
	r := f.Cfg.rounds()
	k := rel / r.Stride
	base, next := r.At(k), r.At(k+1) // this and the next level's sub-slot 0
	at := next
	switch {
	case rel < base:
		at = base
	case rel == base:
		f.begin(k + 1)
		if f.send(sc, 0) {
			return false
		}
		if f.isParent || f.expectsAt {
			at = base + 2
		}
	case rel <= base+2 && (f.isParent || f.expectsAt):
		at = base + 2
		if rel == at && f.send(sc, 2) {
			return false
		}
		if rel == at {
			at = next
		}
	}
	sc.IdleFor(min(at, total) - rel)
	return false
}

// begin derives the node's part in level lvl: whether it passes a payload
// down to level-lvl roles, and whether it expects its own.
func (f *CastDownFrag) begin(lvl int) {
	f.lvl = lvl
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
	f.expectsAt = !f.have && f.topRole >= 1 && levelOf(f.topRole) == f.lvl
	f.recvCh = chanOf(f.topRole / 2)
}

// send performs the node's action in sub-slot sub (0: payload to the left
// child; 2: payload to the right child, and from the root to role 1) of
// the current level, reporting false if it has none.
func (f *CastDownFrag) send(sc *sim.StepCtx, sub int) bool {
	if sub == 0 {
		switch {
		case f.isParent && f.parentRole >= 1 && f.St.ChildSeen[f.parentRole][0] && !f.inChain(2*f.parentRole):
			sc.Transmit(chanOf(f.parentRole), DownMsg{ToRole: 2 * f.parentRole, Dom: f.Dom, Payload: f.leftPay})
		case f.expectsAt && f.topRole%2 == 0 && f.topRole != 1:
			sc.Listen(f.recvCh)
			f.await = true
		default:
			return false
		}
		return true
	}
	switch {
	case f.isParent && f.parentRole == 0:
		sc.Transmit(0, DownMsg{ToRole: 1, Dom: f.Dom, Payload: f.rightPay})
	case f.isParent && f.St.ChildSeen[f.parentRole][1] && !f.inChain(2*f.parentRole+1):
		sc.Transmit(chanOf(f.parentRole), DownMsg{ToRole: 2*f.parentRole + 1, Dom: f.Dom, Payload: f.rightPay})
	case f.expectsAt && (f.topRole%2 == 1 || f.topRole == 1):
		sc.Listen(f.recvCh)
		f.await = true
	default:
		return false
	}
	return true
}
