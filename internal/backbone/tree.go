package backbone

import (
	"mcnet/internal/agg"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Event names emitted by the backbone stage.
const (
	// EventAgg fires when the backbone root completes the network-wide
	// aggregate.
	EventAgg = "backbone-agg"
	// EventAggUpdate fires when the root's aggregate is refined by a late
	// child contribution.
	EventAggUpdate = "backbone-agg-update"
	// EventResult fires when a dominator learns the final result over the
	// backbone.
	EventResult = "backbone-result"
)

// State is the tree-building flood message: the sender's current root and
// hop count.
type State struct {
	Root, Hops, From int
}

// Child announces "From is a tree child of Parent".
type Child struct {
	Parent, From int
}

// ChildAck confirms a Child announcement.
type ChildAck struct {
	To int
}

// Up carries a subtree aggregate from a child to its parent.
type Up struct {
	Parent, From int
	Value        int64
}

// PayloadValue exposes the subtree aggregate to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m Up) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m Up) WithPayloadValue(v int64) any { m.Value = v; return m }

// UpAck confirms receipt of a child's aggregate.
type UpAck struct {
	To int
}

// Result floods the final aggregate down the backbone.
type Result struct {
	Value int64
	From  int
}

// PayloadValue exposes the flooded aggregate to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m Result) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m Result) WithPayloadValue(v int64) any { m.Value = v; return m }

// TreeConfig parameterizes the inter-cluster stage (substrate for [2],
// Theorem 3; deviation D3 in the mcnet package documentation).
//
// All communication happens in TDMA blocks of PhiMax sub-slots: a dominator
// with cluster color c may transmit only in sub-slot c of each block and
// listens in the others (in the result flood, only until it holds the
// result), which keeps simultaneously transmitting dominators
// R_{ε/2}-separated (Lemma 2's regime) and makes backbone links decodable
// under concurrency.
type TreeConfig struct {
	// Channel used by the stage.
	Channel int
	// Radius is the maximum accepted link length (the pipeline passes
	// R_{ε/2}; adjacent clusters' dominators are within it).
	Radius float64
	// PhiMax is the TDMA period (must match the coloring stage).
	PhiMax int
	// FloodProb is the per-own-sub-slot transmission probability.
	FloodProb float64
	// AckProb is the probability of prioritizing a pending acknowledgement
	// over the node's own announcements.
	AckProb float64
	// BuildBlocks, ChildBlocks, CastBlocks and ResultBlocks are the phase
	// lengths in TDMA blocks.
	BuildBlocks, ChildBlocks, CastBlocks, ResultBlocks int
}

// DefaultTreeConfig sizes the phases for a backbone whose hop diameter is at
// most hopBound.
func DefaultTreeConfig(p model.Params, phiMax, hopBound int) TreeConfig {
	logn := int(p.LogN()) + 1
	return TreeConfig{
		Channel:      0,
		Radius:       p.REpsHalf(),
		PhiMax:       phiMax,
		FloodProb:    0.4,
		AckProb:      0.7,
		BuildBlocks:  6*hopBound + 10*logn,
		ChildBlocks:  12 * logn,
		CastBlocks:   6*hopBound + 12*logn,
		ResultBlocks: 6*hopBound + 10*logn,
	}
}

// SlotBudget returns the exact number of slots the inter-cluster stage
// consumes.
func (c TreeConfig) SlotBudget() int {
	return c.PhiMax * (c.BuildBlocks + c.ChildBlocks + c.CastBlocks + c.ResultBlocks)
}

// TreeOutcome is the per-dominator result of the inter-cluster stage.
type TreeOutcome struct {
	// Root is the elected backbone root (max dominator ID, w.h.p.).
	Root int
	// Parent is the tree parent, or -1 for the root.
	Parent int
	// Depth is the node's hop distance from the root along the tree.
	Depth int
	// Children are the tree children discovered during the child phase.
	Children []int
	// Result is the final aggregate (valid when Done).
	Result int64
	// Done reports whether the node learned the final aggregate.
	Done bool
}

// treeAwait tags which phase's listen the fragment's previous slot holds.
type treeAwait uint8

const (
	treeAwaitNone treeAwait = iota
	treeAwaitA
	treeAwaitB
	treeAwaitC
	treeAwaitD
)

// TreeFrag executes the dominator side of the inter-cluster stage: it
// elects a root, builds a BFS-ish tree, convergecasts the cluster values
// under Op, and floods the result back. Color is the cluster color that
// picks the node's TDMA sub-slot and Value this cluster's aggregate from
// the intra-cluster phase. It consumes exactly Cfg.SlotBudget slots
// (non-dominators idle through it with a sim.IdleFrag); Out is valid once
// Feed returns true.
type TreeFrag struct {
	Cfg   TreeConfig
	Color int
	Value int64
	Op    agg.Op
	Out   TreeOutcome

	init   bool
	reach  phy.Reach // Cfg.Radius
	phase  uint8     // 0 build, 1 children, 2 cast, 3 result, 4 done
	b, sub int
	await  treeAwait
	// Phase A
	parentPow float64
	// Phase B
	isRoot     bool
	childSet   map[int]bool
	ackQueue   []int
	childAcked bool
	// Phase C
	childVal map[int]int64
	upAcks   []int
	upAcked  bool
	sentVal  int64
	sentAny  bool
	emitted  bool
}

func (f *TreeFrag) ownSlot(sub int) bool { return sub == f.Color%f.Cfg.PhiMax }

func (f *TreeFrag) recompute() int64 {
	v := f.Value
	for _, cv := range f.childVal {
		v = f.Op.Combine(v, cv)
	}
	return v
}

func (f *TreeFrag) ready() bool {
	for c := range f.childSet {
		if _, ok := f.childVal[c]; !ok {
			return false
		}
	}
	return true
}

// advance moves to the next (block, sub-slot) pair of the current phase.
func (f *TreeFrag) advance() {
	f.sub++
	if f.sub == f.Cfg.PhiMax {
		f.sub = 0
		f.b++
	}
}

// Feed implements sim.Frag.
func (f *TreeFrag) Feed(sc *sim.StepCtx) bool {
	if !f.init {
		f.init = true
		f.reach = phy.NewReach(sc.Params(), f.Cfg.Radius)
		f.Out = TreeOutcome{Root: sc.ID(), Parent: -1}
	}
	switch f.await {
	case treeAwaitA:
		rec := sc.Prev()
		if st, ok := rec.Msg.(State); ok && f.reach.Within(rec) {
			switch {
			case st.Root > f.Out.Root,
				st.Root == f.Out.Root && st.Hops+1 < f.Out.Depth,
				st.Root == f.Out.Root && f.Out.Parent >= 0 && st.Hops+1 == f.Out.Depth &&
					rec.SignalPower > f.parentPow:
				f.Out.Root = st.Root
				f.Out.Depth = st.Hops + 1
				f.Out.Parent = st.From
				f.parentPow = rec.SignalPower
			}
		}
	case treeAwaitB:
		rec := sc.Prev()
		switch m := rec.Msg.(type) {
		case Child:
			if m.Parent == sc.ID() {
				if !f.childSet[m.From] {
					f.childSet[m.From] = true
					f.Out.Children = append(f.Out.Children, m.From)
				}
				f.ackQueue = append(f.ackQueue, m.From)
			}
		case ChildAck:
			if m.To == sc.ID() {
				f.childAcked = true
			}
		}
	case treeAwaitC:
		rec := sc.Prev()
		switch m := rec.Msg.(type) {
		case Up:
			if m.Parent == sc.ID() {
				if old, ok := f.childVal[m.From]; !ok || old != m.Value {
					f.childVal[m.From] = m.Value
					if f.sentAny && f.recompute() != f.sentVal {
						f.upAcked = false // value grew: resend upward
					}
					if f.isRoot {
						sc.Emit(EventAggUpdate, int(f.recompute()))
					}
				}
				f.upAcks = append(f.upAcks, m.From)
			}
		case UpAck:
			if m.To == sc.ID() {
				f.upAcked = true
			}
		}
	case treeAwaitD:
		rec := sc.Prev()
		if m, ok := rec.Msg.(Result); ok {
			f.Out.Result = m.Value
			f.Out.Done = true
			sc.Emit(EventResult, int(m.Value))
		}
	}
	f.await = treeAwaitNone
	for {
		switch f.phase {
		case 0: // Phase A: root election + BFS tree.
			if f.b >= f.Cfg.BuildBlocks {
				f.isRoot = f.Out.Root == sc.ID()
				f.childSet = map[int]bool{}
				f.childAcked = f.isRoot
				f.phase, f.b, f.sub = 1, 0, 0
				continue
			}
			if f.ownSlot(f.sub) && sc.Rand.Float64() < f.Cfg.FloodProb {
				sc.Transmit(f.Cfg.Channel, State{Root: f.Out.Root, Hops: f.Out.Depth, From: sc.ID()})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.await = treeAwaitA
			}
			f.advance()
			return false
		case 1: // Phase B: children discovery.
			if f.b >= f.Cfg.ChildBlocks {
				f.childVal = map[int]int64{}
				f.phase, f.b, f.sub = 2, 0, 0
				continue
			}
			if f.ownSlot(f.sub) {
				if len(f.ackQueue) > 0 && sc.Rand.Float64() < f.Cfg.AckProb {
					sc.Transmit(f.Cfg.Channel, ChildAck{To: f.ackQueue[0]})
					f.ackQueue = f.ackQueue[1:]
					f.advance()
					return false
				}
				if !f.childAcked && sc.Rand.Float64() < f.Cfg.FloodProb {
					sc.Transmit(f.Cfg.Channel, Child{Parent: f.Out.Parent, From: sc.ID()})
					f.advance()
					return false
				}
			}
			sc.Listen(f.Cfg.Channel)
			f.await = treeAwaitB
			f.advance()
			return false
		case 2: // Phase C: convergecast.
			if f.b >= f.Cfg.CastBlocks {
				if f.isRoot {
					f.Out.Result = f.recompute()
					f.Out.Done = true
				}
				f.phase, f.b, f.sub = 3, 0, 0
				continue
			}
			if f.isRoot && !f.emitted && f.ready() {
				f.emitted = true
				sc.Emit(EventAgg, int(f.recompute()))
			}
			if f.ownSlot(f.sub) {
				if len(f.upAcks) > 0 && sc.Rand.Float64() < f.Cfg.AckProb {
					sc.Transmit(f.Cfg.Channel, UpAck{To: f.upAcks[0]})
					f.upAcks = f.upAcks[1:]
					f.advance()
					return false
				}
				if !f.isRoot && !f.upAcked && f.ready() && sc.Rand.Float64() < f.Cfg.FloodProb {
					f.sentVal = f.recompute()
					f.sentAny = true
					sc.Transmit(f.Cfg.Channel, Up{Parent: f.Out.Parent, From: sc.ID(), Value: f.sentVal})
					f.advance()
					return false
				}
			}
			sc.Listen(f.Cfg.Channel)
			f.await = treeAwaitC
			f.advance()
			return false
		case 3: // Phase D: result flood.
			if f.b >= f.Cfg.ResultBlocks {
				f.phase = 4
				continue
			}
			if !f.Out.Done {
				sc.Listen(f.Cfg.Channel)
				f.await = treeAwaitD
				f.advance()
				return false
			}
			// An informed node discards every Result it hears, so it never
			// listens again: it floods in its own sub-slots and sleeps from
			// one to the next, or to the end of the phase.
			if !f.ownSlot(f.sub) {
				pos := f.b*f.Cfg.PhiMax + f.sub
				next := f.b*f.Cfg.PhiMax + f.Color%f.Cfg.PhiMax
				if next < pos {
					next += f.Cfg.PhiMax
				}
				next = min(next, f.Cfg.ResultBlocks*f.Cfg.PhiMax)
				sc.IdleFor(next - pos)
				f.b, f.sub = next/f.Cfg.PhiMax, next%f.Cfg.PhiMax
				return false
			}
			if sc.Rand.Float64() < f.Cfg.FloodProb {
				sc.Transmit(f.Cfg.Channel, Result{Value: f.Out.Result, From: sc.ID()})
			} else {
				sc.Idle()
			}
			f.advance()
			return false
		default:
			return true
		}
	}
}
