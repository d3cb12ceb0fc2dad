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

// IdleCast consumes one directional pass without participating.
func IdleCast(ctx *sim.Ctx, cfg CastConfig) {
	ctx.IdleFor(cfg.SlotBudget())
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

// RunCastUp executes one up pass of the reporter tree for cluster dom.
//
// Role 0 is the dominator; roles 1..F are channel reporters (role k on
// physical channel k-1); bystanders use IdleCast. Child values are folded
// with op. Missing roles (empty channels) are healed by the Appendix A
// rules: an unacknowledged left child stands in for its missing parent,
// absorbing its sibling's transmission directly; an unacknowledged right
// child takes over only when the left sibling is absent too (a present left
// sibling would have acknowledged it).
//
// Sub-slots per level: 0 = left child transmits, 1 = ack to left child,
// 2 = right child transmits, 3 = ack to right child. Role 1 (the root's
// only child) uses the right-child sub-slots. The pass consumes exactly
// cfg.SlotBudget slots.
func RunCastUp(ctx *sim.Ctx, cfg CastConfig, role, dom int, value int64, op agg.Op) CastState {
	var (
		p      = ctx.Params()
		stride = cfg.stride()
		st     = CastState{
			Value:       value,
			DeliveredAs: -1,
			ChildVals:   map[int][2]int64{},
			ChildSeen:   map[int][2]bool{},
		}
		acting = role
		done   = false
	)
	if role >= 0 {
		st.Chain = append(st.Chain, role)
	}
	recordChild := func(j, side int, v int64) {
		cv, cs := st.ChildVals[j], st.ChildSeen[j]
		cv[side], cs[side] = v, true
		st.ChildVals[j], st.ChildSeen[j] = cv, cs
	}

	for lvl := cfg.Levels(); lvl >= 1; lvl-- {
		ctx.IdleFor(4 * cfg.Offset)
		var (
			isSender = !done && acting >= 1 && levelOf(acting) == lvl
			isParent = !done && acting >= 0 && levelOf(acting) == lvl-1
			// Role 1 transmits in the right-child sub-slots.
			sendsLeft  = isSender && acting%2 == 0 && acting != 1
			sendsRight = isSender && (acting%2 == 1 || acting == 1)
			parentRole = acting / 2
			sendCh     = chanOf(parentRole) // channel the parent owns
			ownCh      = chanOf(acting)
			gotAck     = false
			standIn    = false
			sibValue   int64
			sibSeen    = false
		)

		// Sub-slot 0: left children transmit.
		switch {
		case sendsLeft:
			ctx.Transmit(sendCh, UpMsg{ToRole: parentRole, Dom: dom, From: acting, Value: st.Value})
		case isParent:
			rec := ctx.Listen(ownCh)
			if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == acting && m.Dom == dom &&
				m.From == 2*acting && phy.SenderWithin(rec, p, cfg.ClusterRadius) {
				recordChild(acting, 0, m.Value)
			}
		default:
			ctx.Idle()
		}

		// Sub-slot 1: parents ack their left child.
		switch {
		case isParent && st.ChildSeen[acting][0]:
			ctx.Transmit(ownCh, UpAck{ToRole: 2 * acting, Dom: dom})
		case sendsLeft:
			rec := ctx.Listen(sendCh)
			if a, ok := rec.Msg.(UpAck); ok && a.ToRole == acting && a.Dom == dom {
				gotAck = true
			}
			standIn = !gotAck // parent absent: stand in for it
		default:
			ctx.Idle()
		}

		// Sub-slot 2: right children transmit; stand-ins absorb their
		// sibling's transmission off the shared parent channel.
		switch {
		case sendsRight:
			ctx.Transmit(sendCh, UpMsg{ToRole: parentRole, Dom: dom, From: acting, Value: st.Value})
		case isParent:
			rec := ctx.Listen(ownCh)
			if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == acting && m.Dom == dom &&
				m.From == 2*acting+1 && phy.SenderWithin(rec, p, cfg.ClusterRadius) {
				recordChild(acting, 1, m.Value)
			}
		case standIn:
			rec := ctx.Listen(sendCh)
			if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == parentRole && m.Dom == dom &&
				m.From == acting+1 && phy.SenderWithin(rec, p, cfg.ClusterRadius) {
				sibValue, sibSeen = m.Value, true
			}
		default:
			ctx.Idle()
		}

		// Sub-slot 3: parents (or stand-ins) ack the right child.
		switch {
		case isParent && st.ChildSeen[acting][1]:
			ctx.Transmit(ownCh, UpAck{ToRole: 2*acting + 1, Dom: dom})
		case standIn && sibSeen:
			ctx.Transmit(sendCh, UpAck{ToRole: acting + 1, Dom: dom})
		case sendsRight:
			rec := ctx.Listen(sendCh)
			if a, ok := rec.Msg.(UpAck); ok && a.ToRole == acting && a.Dom == dom {
				gotAck = true
			}
		default:
			ctx.Idle()
		}

		// Fold absorbed values and resolve takeovers for the next level.
		if isParent {
			if st.ChildSeen[acting][0] {
				st.Value = op.Combine(st.Value, st.ChildVals[acting][0])
			}
			if st.ChildSeen[acting][1] {
				st.Value = op.Combine(st.Value, st.ChildVals[acting][1])
			}
		}
		if isSender {
			switch {
			case gotAck:
				st.DeliveredAs = acting
				done = true
			default:
				// Parent absent. Left children (and role 1, whose parent —
				// the dominator — is always present, so this is defensive)
				// take over; right children take over only when the left
				// sibling is absent (no stand-in ack arrived).
				st.Chain = append(st.Chain, parentRole)
				acting = parentRole
				if standIn {
					// Record the stand-in's view: left = own subtree,
					// right = absorbed sibling.
					recordChild(parentRole, 0, st.Value)
					if sibSeen {
						st.Value = op.Combine(st.Value, sibValue)
						recordChild(parentRole, 1, sibValue)
					}
				} else {
					// Right child taking over: its subtree is the right
					// record.
					recordChild(parentRole, 1, st.Value)
				}
			}
		}

		ctx.IdleFor(4 * (stride - 1 - cfg.Offset))
	}
	return st
}

// SplitFunc partitions acted role j's payload into the actor's own interval
// (only when base is true: a physical node consumes its own share exactly
// once, at its base role) and the two child subtree intervals, using the
// child contributions cv/cs recorded on the way up.
type SplitFunc func(j int, base bool, payload [2]int64, cv [2]int64, cs [2]bool) (self, left, right [2]int64)

// RunCastDown executes one down pass, distributing payload intervals from
// the root to the reporters, retracing the up pass recorded in st
// (including takeovers); split divides each acted role's payload.
//
// The returned value is this node's own interval (with ok=false if the node
// never obtained a payload). The pass consumes exactly cfg.SlotBudget
// slots.
func RunCastDown(
	ctx *sim.Ctx,
	cfg CastConfig,
	role, dom int,
	st CastState,
	rootPayload [2]int64,
	split SplitFunc,
) ([2]int64, bool) {
	var (
		p        = ctx.Params()
		stride   = cfg.stride()
		payloads = map[int][2]int64{} // payload per chain role, once known
		have     = false
		topRole  = -1
		selfPay  [2]int64
		haveSelf = false
	)
	if role == 0 {
		payloads[0] = rootPayload
		have = true
		topRole = 0
	} else if len(st.Chain) > 0 {
		// The payload arrives addressed to the highest role in the chain
		// (the role under which the node delivered upward).
		topRole = st.Chain[len(st.Chain)-1]
	}
	inChain := func(j int) bool {
		if role == 0 {
			return j == 0
		}
		for _, c := range st.Chain {
			if c == j {
				return true
			}
		}
		return false
	}
	// propagate walks the node's internal chain top-down from the top role,
	// splitting payloads locally (no radio between a node's own roles).
	propagate := func() {
		if !have {
			return
		}
		for j := topRole; j >= 0; {
			pl, ok := payloads[j]
			if !ok {
				return
			}
			self, left, right := split(j, j == role, pl, st.ChildVals[j], st.ChildSeen[j])
			if j == role {
				selfPay, haveSelf = self, true
				return
			}
			switch {
			case inChain(2 * j):
				payloads[2*j] = left
				j = 2 * j
			case inChain(2*j + 1):
				payloads[2*j+1] = right
				j = 2*j + 1
			default:
				return
			}
		}
	}
	propagate()

	for lvl := 1; lvl <= cfg.Levels(); lvl++ {
		ctx.IdleFor(4 * cfg.Offset)
		// Does the node act as a parent of level-lvl roles?
		parentRole, isParent := -1, false
		for _, j := range chainRoles(role, st) {
			if levelOf(j) == lvl-1 {
				parentRole, isParent = j, true
			}
		}
		if isParent {
			if _, ok := payloads[parentRole]; !ok {
				isParent = false
			}
		}
		var leftPay, rightPay [2]int64
		if isParent {
			_, leftPay, rightPay = split(parentRole, parentRole == role,
				payloads[parentRole], st.ChildVals[parentRole], st.ChildSeen[parentRole])
		}
		// Does the node expect to receive at this level?
		expectsAt := !have && topRole >= 1 && levelOf(topRole) == lvl
		recvCh := chanOf(topRole / 2)

		// Sub-slot 0: payload to left child.
		switch {
		case isParent && parentRole >= 1 && st.ChildSeen[parentRole][0] && !inChain(2*parentRole):
			ctx.Transmit(chanOf(parentRole), DownMsg{ToRole: 2 * parentRole, Dom: dom, Payload: leftPay})
		case expectsAt && topRole%2 == 0 && topRole != 1:
			rec := ctx.Listen(recvCh)
			if m, ok := rec.Msg.(DownMsg); ok && m.ToRole == topRole && m.Dom == dom &&
				phy.SenderWithin(rec, p, cfg.ClusterRadius) {
				payloads[topRole], have = m.Payload, true
				propagate()
			}
		default:
			ctx.Idle()
		}
		// Sub-slot 1: layout parity with the up pass.
		ctx.Idle()

		// Sub-slot 2: payload to right child (and from root to role 1).
		switch {
		case isParent && parentRole == 0:
			ctx.Transmit(0, DownMsg{ToRole: 1, Dom: dom, Payload: rightPay})
		case isParent && st.ChildSeen[parentRole][1] && !inChain(2*parentRole+1):
			ctx.Transmit(chanOf(parentRole), DownMsg{ToRole: 2*parentRole + 1, Dom: dom, Payload: rightPay})
		case expectsAt && (topRole%2 == 1 || topRole == 1):
			rec := ctx.Listen(recvCh)
			if m, ok := rec.Msg.(DownMsg); ok && m.ToRole == topRole && m.Dom == dom &&
				phy.SenderWithin(rec, p, cfg.ClusterRadius) {
				payloads[topRole], have = m.Payload, true
				propagate()
			}
		default:
			ctx.Idle()
		}
		// Sub-slot 3: layout parity.
		ctx.Idle()

		ctx.IdleFor(4 * (stride - 1 - cfg.Offset))
	}
	return selfPay, haveSelf
}

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
