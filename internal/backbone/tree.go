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
	// PhiMax is the TDMA period (must match the coloring stage).
	PhiMax int
	// FloodProb is the per-own-sub-slot transmission probability.
	FloodProb float64
	// BuildBlocks, ChildBlocks, CastBlocks and ResultBlocks are the phase
	// lengths in TDMA blocks.
	BuildBlocks, ChildBlocks, CastBlocks, ResultBlocks int
}

// ackProb is the probability of prioritizing a pending acknowledgement over
// the node's own announcements (deviation D1 in the mcnet package
// documentation).
const ackProb float64 = 0.7

// DefaultTreeConfig sizes the phases for a backbone whose hop diameter is at
// most hopBound.
func DefaultTreeConfig(p model.Params, phiMax, hopBound int) TreeConfig {
	logn := int(p.LogN()) + 1
	return TreeConfig{
		PhiMax:       phiMax,
		FloodProb:    0.4,
		BuildBlocks:  6*hopBound + 10*logn,
		ChildBlocks:  12 * logn,
		CastBlocks:   6*hopBound + 12*logn,
		ResultBlocks: 6*hopBound + 10*logn,
	}
}

// TreeStage is the inter-cluster stage compiled for one run.
type TreeStage struct {
	sim.Window
	TreeConfig
	reach phy.Reach // within the maximum link length
	ends  [4]int    // window-relative end of each phase
}

// NewTreeStage compiles c under p starting at slot start: the four phases
// back to back, PhiMax slots per block. reach filters receptions at the
// maximum accepted link length (the pipeline's is R_{ε/2}: adjacent
// clusters' dominators are within it).
func NewTreeStage(p model.Params, reach phy.Reach, c TreeConfig, start int) TreeStage {
	st := TreeStage{TreeConfig: c, reach: reach}
	end := 0
	for i, blocks := range [4]int{c.BuildBlocks, c.ChildBlocks, c.CastBlocks, c.ResultBlocks} {
		end += blocks * c.PhiMax
		st.ends[i] = end
	}
	st.Window = sim.Window{Start: start, Len: end}
	return st
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
// the intra-cluster phase. It consumes exactly its Stage's window
// (non-dominators sleep through it); Out is valid once Feed returns true.
// Build it with NewTreeFrag.
type TreeFrag struct {
	Stage *TreeStage
	Color int
	Value int64
	Op    agg.Op
	Out   TreeOutcome

	phase uint8 // 0 build, 1 children, 2 cast, 3 result, 4 done
	await treeAwait
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

// NewTreeFrag returns dominator id's fragment for st, its own root.
func NewTreeFrag(st *TreeStage, id, color int, value int64, op agg.Op) *TreeFrag {
	return &TreeFrag{Stage: st, Color: color, Value: value, Op: op, Out: TreeOutcome{Root: id, Parent: -1}}
}

func (f *TreeFrag) ownSlot(sub int) bool { return sub == f.Color%f.Stage.PhiMax }

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

// endPhase closes the current phase: the root learns it is the root and
// children discovery begins, the convergecast begins, the root fixes the
// result, or the flood ends.
func (f *TreeFrag) endPhase(id int) {
	switch f.phase {
	case 0:
		f.isRoot = f.Out.Root == id
		f.childSet = map[int]bool{}
		f.childAcked = f.isRoot
	case 1:
		f.childVal = map[int]int64{}
	case 2:
		if f.isRoot {
			f.Out.Result = f.recompute()
			f.Out.Done = true
		}
	}
	f.phase++
}

// untilOwn returns the slots from rel to the node's next own sub-slot
// after it, or to the end of the current phase if that comes first.
func (f *TreeFrag) untilOwn(rel, sub int) int {
	next := rel - sub + f.Color%f.Stage.PhiMax
	if next <= rel {
		next += f.Stage.PhiMax
	}
	return min(next, f.Stage.ends[f.phase]) - rel
}

// listen listens from rel under the sim batch rule. Every phase ignores a
// reception that does not decode, and the node's state changes only on a
// decode, so one ListenFor runs to the node's next own sub-slot if it may
// draw there (draws), else to the end of the phase.
func (f *TreeFrag) listen(sc *sim.StepCtx, rel, sub int, await treeAwait, draws bool) {
	k := f.Stage.ends[f.phase] - rel
	if draws {
		k = f.untilOwn(rel, sub)
	}
	sc.ListenFor(channel, k)
	f.await = await
}

// Feed implements sim.Frag.
func (f *TreeFrag) Feed(sc *sim.StepCtx) bool {
	c := &f.Stage.TreeConfig
	switch f.await {
	case treeAwaitA:
		rec := sc.Prev()
		if st, ok := rec.Msg.(State); ok && f.Stage.reach.Within(rec) {
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
	// Phases are whole blocks, so the window-relative slot's remainder is
	// the sub-slot.
	rel := f.Stage.Rel(sc)
	sub := rel % c.PhiMax
	for {
		if f.phase < 4 && rel >= f.Stage.ends[f.phase] {
			f.endPhase(sc.ID())
			continue
		}
		switch f.phase {
		case 0: // Phase A: root election + BFS tree.
			if f.ownSlot(sub) && sc.Rand.Float64() < c.FloodProb {
				sc.Transmit(channel, State{Root: f.Out.Root, Hops: f.Out.Depth, From: sc.ID()})
				return false
			}
			f.listen(sc, rel, sub, treeAwaitA, true)
			return false
		case 1: // Phase B: children discovery.
			if f.ownSlot(sub) {
				if len(f.ackQueue) > 0 && sc.Rand.Float64() < ackProb {
					sc.Transmit(channel, ChildAck{To: f.ackQueue[0]})
					f.ackQueue = f.ackQueue[1:]
					return false
				}
				if !f.childAcked && sc.Rand.Float64() < c.FloodProb {
					sc.Transmit(channel, Child{Parent: f.Out.Parent, From: sc.ID()})
					return false
				}
			}
			f.listen(sc, rel, sub, treeAwaitB, len(f.ackQueue) > 0 || !f.childAcked)
			return false
		case 2: // Phase C: convergecast.
			if f.isRoot && !f.emitted && f.ready() {
				f.emitted = true
				sc.Emit(EventAgg, int(f.recompute()))
			}
			sends := !f.isRoot && !f.upAcked && f.ready()
			if f.ownSlot(sub) {
				if len(f.upAcks) > 0 && sc.Rand.Float64() < ackProb {
					sc.Transmit(channel, UpAck{To: f.upAcks[0]})
					f.upAcks = f.upAcks[1:]
					return false
				}
				if sends && sc.Rand.Float64() < c.FloodProb {
					f.sentVal = f.recompute()
					f.sentAny = true
					sc.Transmit(channel, Up{Parent: f.Out.Parent, From: sc.ID(), Value: f.sentVal})
					return false
				}
			}
			f.listen(sc, rel, sub, treeAwaitC, len(f.upAcks) > 0 || sends)
			return false
		case 3: // Phase D: result flood.
			if !f.Out.Done {
				f.listen(sc, rel, sub, treeAwaitD, false)
				return false
			}
			// An informed node discards every Result it hears, so it never
			// listens again: it floods in its own sub-slots and sleeps from
			// one to the next, or to the end of the phase.
			if f.ownSlot(sub) && sc.Rand.Float64() < c.FloodProb {
				sc.Transmit(channel, Result{Value: f.Out.Result, From: sc.ID()})
				return false
			}
			sc.IdleFor(f.untilOwn(rel, sub))
			return false
		default:
			return true
		}
	}
}
