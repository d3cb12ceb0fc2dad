package backbone

// Stepper-form ports of RunColor and RunTree (see internal/sim: Stepper,
// Frag). Each fragment mirrors its goroutine original's control flow — the
// order and conditions of ctx.Rand draws and the placement of post-Listen
// consumption code — so the two forms produce bit-identical transcripts.

import (
	"slices"

	"mcnet/internal/agg"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// ColorFrag is the sim.Frag form of RunColor. Out is valid once Feed
// returns true.
//
// RunColor's three sets are maps that mostly live on its goroutine stack;
// here they would be heap maps per dominator, so the fragment keeps them as
// small slices instead, with the same set semantics: the neighbor set
// (sorted once discovery ends, becoming Out.Neighbors), a not-yet-heard flag
// per smaller-ID neighbor, and the list of announced colors.
type ColorFrag struct {
	Cfg ColorConfig
	Out ColorOutcome

	init                    bool
	stage                   uint8 // 0 discover, 1 resolve
	s                       int
	discoverLen, resolveLen int
	neighbors               []int
	unheard                 []bool // per Out.Neighbors entry: smaller ID, not yet heard
	smaller                 int    // count of unheard entries
	taken                   []int
	awaitBeacon, awaitFinal bool
}

// Feed implements sim.Frag.
func (f *ColorFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.Out = ColorOutcome{Color: -1}
		f.discoverLen = f.Cfg.discoverSlots(p)
		f.resolveLen = f.Cfg.resolveSlots(p)
	}
	if f.awaitBeacon {
		f.awaitBeacon = false
		rec := sc.Prev()
		if b, ok := rec.Msg.(Beacon); ok && phy.SenderWithin(rec, p, f.Cfg.Radius) &&
			!slices.Contains(f.neighbors, b.From) {
			f.neighbors = append(f.neighbors, b.From)
		}
	}
	if f.awaitFinal {
		f.awaitFinal = false
		rec := sc.Prev()
		if fin, ok := rec.Msg.(Final); ok {
			if i, nb := slices.BinarySearch(f.Out.Neighbors, fin.From); nb &&
				phy.SenderWithin(rec, p, f.Cfg.Radius) {
				if !slices.Contains(f.taken, fin.Color) {
					f.taken = append(f.taken, fin.Color)
				}
				if f.unheard[i] {
					f.unheard[i] = false
					f.smaller--
				}
			}
		}
	}
	for {
		switch {
		case f.stage == 0 && f.s < f.discoverLen:
			f.s++
			if sc.Rand.Float64() < f.Cfg.BeaconProb {
				sc.Transmit(f.Cfg.Channel, Beacon{From: sc.ID()})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.awaitBeacon = true
			}
			return false
		case f.stage == 0:
			// Discovery over: freeze the neighbor list, set up resolution.
			f.stage, f.s = 1, 0
			slices.Sort(f.neighbors)
			f.Out.Neighbors = slices.Clip(f.neighbors)
			if f.Out.Neighbors == nil {
				f.Out.Neighbors = []int{}
			}
			f.neighbors = nil
			f.unheard = make([]bool, len(f.Out.Neighbors))
			for i, id := range f.Out.Neighbors {
				if id < sc.ID() {
					f.unheard[i] = true
					f.smaller++
				}
			}
		case f.s < f.resolveLen:
			f.s++
			if f.Out.Color < 0 && f.smaller == 0 {
				f.pickColor()
			}
			if f.Out.Color >= 0 && sc.Rand.Float64() < f.Cfg.AnnounceProb {
				sc.Transmit(f.Cfg.Channel, Final{From: sc.ID(), Color: f.Out.Color})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.awaitFinal = true
			}
			return false
		default:
			if f.Out.Color < 0 {
				f.Out.Forced = true
				f.pickColor()
			}
			return true
		}
	}
}

func (f *ColorFrag) pickColor() {
	c := 0
	for slices.Contains(f.taken, c) {
		c++
	}
	if c >= f.Cfg.PhiMax {
		f.Out.Overflowed = true
		c %= f.Cfg.PhiMax
	}
	f.Out.Color = c
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

// TreeFrag is the sim.Frag form of RunTree. Out is valid once Feed returns
// true. Color, Value and Op are the RunTree arguments.
type TreeFrag struct {
	Cfg   TreeConfig
	Color int
	Value int64
	Op    agg.Op
	Out   TreeOutcome

	init   bool
	phase  uint8 // 0 build, 1 children, 2 cast, 3 result, 4 done
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
	// Phase D
	informed bool
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
	p := sc.Params()
	if !f.init {
		f.init = true
		f.Out = TreeOutcome{Root: sc.ID(), Parent: -1}
	}
	switch f.await {
	case treeAwaitA:
		rec := sc.Prev()
		if st, ok := rec.Msg.(State); ok && phy.SenderWithin(rec, p, f.Cfg.Radius) {
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
		if m, ok := rec.Msg.(Result); ok && !f.informed {
			f.Out.Result = m.Value
			f.Out.Done = true
			f.informed = true
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
				have := f.recompute()
				f.informed = f.isRoot
				if f.isRoot {
					f.Out.Result = have
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
			if f.ownSlot(f.sub) && f.informed && sc.Rand.Float64() < f.Cfg.FloodProb {
				sc.Transmit(f.Cfg.Channel, Result{Value: f.Out.Result, From: sc.ID()})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.await = treeAwaitD
			}
			f.advance()
			return false
		default:
			return true
		}
	}
}
