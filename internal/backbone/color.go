// Package backbone implements the global half of the aggregation structure:
// the coloring of dominators that spatially separates clusters (Sec. 5.1.2),
// the TDMA scheme derived from it (Lemma 9), and the inter-cluster
// aggregation tree over dominators (the substrate the paper imports from
// [2], Theorem 3).
package backbone

import (
	"math"
	"slices"

	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Beacon is the neighbor-discovery probe carrying the sender's ID.
type Beacon struct {
	From int
}

// Final announces a dominator's final color.
type Final struct {
	From  int
	Color int
}

// Coloring-stage constants (deviation D1 in the mcnet package
// documentation).
//
// The probabilities are deliberately small: conflict edges run up to
// R_{ε/2} ≈ 0.85·R_T where the SINR headroom over β is only ~60%, so a
// beacon is decodable across such a link only when almost nothing else
// transmits network-wide. Low per-slot probability with a long (one-time)
// stage is the reliable operating point.
const (
	// channel is the one channel both backbone stages run on.
	channel int = 0
	// beaconProb is the discovery transmission probability.
	beaconProb float64 = 0.02
	// announceProb is the per-slot probability that a colored dominator
	// re-announces its color.
	announceProb float64 = 0.02
	// discoverFactor and resolveFactor scale the two sub-stage lengths:
	// slots = ⌈factor·ln n̂⌉.
	discoverFactor float64 = 150
	resolveFactor  float64 = 250
)

// ColorStage is the coloring stage compiled for one run: discovery takes
// the window's first ⌈discoverFactor·ln n̂⌉ slots, resolution the
// remaining ⌈resolveFactor·ln n̂⌉.
type ColorStage struct {
	sim.Window
	reach       phy.Reach // within the conflict radius
	discoverLen int
	phiMax      int
}

// NewColorStage compiles the cluster coloring stage under p starting at
// slot start.
//
// The pipeline variant (deviation D4 in the mcnet package documentation)
// colors the constant-density dominator set in two sub-stages:
// RSSI-filtered neighbor discovery, then ID-ordered greedy color
// resolution — each dominator waits for all smaller-ID neighbors within
// the conflict radius to announce, then takes the smallest free color and
// announces it for the rest of the stage.
//
// reach filters receptions at the conflict radius: dominators within it
// must receive distinct colors (the pipeline's is R_{ε/2}). phiMax is the
// agreed TDMA period: colors are drawn from {0, …, phiMax-1}; the stage
// records an overflow if greedy needs more (it then wraps, and Validate
// will report conflicts).
func NewColorStage(p model.Params, reach phy.Reach, phiMax, start int) ColorStage {
	discover := int(math.Ceil(discoverFactor * p.LogN()))
	resolve := int(math.Ceil(resolveFactor * p.LogN()))
	return ColorStage{
		Window:      sim.Window{Start: start, Len: discover + resolve},
		reach:       reach,
		discoverLen: discover,
		phiMax:      phiMax,
	}
}

// ColorOutcome is the per-dominator result of the coloring stage.
type ColorOutcome struct {
	// Color in {0, …, PhiMax-1}; -1 for non-participants.
	Color int
	// Neighbors lists the dominator IDs discovered within the conflict
	// radius.
	Neighbors []int
	// Forced reports that the node colored itself greedily at the stage end
	// without having heard all smaller-ID neighbors (possible conflict).
	Forced bool
	// Overflowed reports that greedy needed a color ≥ PhiMax and wrapped.
	Overflowed bool
}

// ColorFrag executes the dominator side of the coloring stage, acting in
// every slot of its Stage's window; non-dominators sleep through the
// window. Out is valid once Feed returns true. Build it with
// NewColorFrag.
//
// The fragment keeps its three sets as small slices rather than maps: the
// neighbor set (sorted once discovery ends, becoming Out.Neighbors), a
// not-yet-heard flag per smaller-ID neighbor, and the list of announced
// colors.
type ColorFrag struct {
	Stage *ColorStage
	Out   ColorOutcome

	neighbors               []int
	unheard                 []bool // per Out.Neighbors entry: smaller ID, not yet heard
	smaller                 int    // count of unheard entries
	taken                   []int
	awaitBeacon, awaitFinal bool
}

// NewColorFrag returns a dominator's fragment for st, not yet colored.
func NewColorFrag(st *ColorStage) *ColorFrag {
	return &ColorFrag{Stage: st, Out: ColorOutcome{Color: -1}}
}

// Feed implements sim.Frag.
func (f *ColorFrag) Feed(sc *sim.StepCtx) bool {
	st := f.Stage
	if f.awaitBeacon {
		f.awaitBeacon = false
		rec := sc.Prev()
		if b, ok := rec.Msg.(Beacon); ok && st.reach.Within(rec) &&
			!slices.Contains(f.neighbors, b.From) {
			f.neighbors = append(f.neighbors, b.From)
		}
	}
	if f.awaitFinal {
		f.awaitFinal = false
		rec := sc.Prev()
		if fin, ok := rec.Msg.(Final); ok {
			if i, nb := slices.BinarySearch(f.Out.Neighbors, fin.From); nb && st.reach.Within(rec) {
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
	rel := st.Rel(sc)
	if rel < st.discoverLen {
		if sc.Rand.Float64() < beaconProb {
			sim.Send(sc, channel, Beacon{From: sc.ID()})
		} else {
			sc.Listen(channel)
			f.awaitBeacon = true
		}
		return false
	}
	if f.Out.Neighbors == nil {
		f.freeze(sc.ID())
	}
	if rel >= st.Len {
		if f.Out.Color < 0 {
			f.Out.Forced = true
			f.pickColor()
		}
		return true
	}
	if f.Out.Color < 0 && f.smaller == 0 {
		f.pickColor()
	}
	switch {
	case f.Out.Color < 0:
		// Only a decoded Final changes an uncolored node, so it listens
		// in one batch to the next one or to the window's end.
		sc.ListenFor(channel, st.Len-rel)
		f.awaitFinal = true
	case sc.Rand.Float64() < announceProb:
		sim.Send(sc, channel, Final{From: sc.ID(), Color: f.Out.Color})
	default:
		// Colored: taken, unheard and smaller are never read again, so a
		// Final heard now would be discarded.
		sc.Idle()
	}
	return false
}

// freeze ends discovery: it fixes the sorted neighbor list and marks the
// smaller-ID neighbors as unheard.
func (f *ColorFrag) freeze(id int) {
	slices.Sort(f.neighbors)
	f.Out.Neighbors = slices.Clip(f.neighbors)
	if f.Out.Neighbors == nil {
		f.Out.Neighbors = []int{}
	}
	f.neighbors = nil
	f.unheard = make([]bool, len(f.Out.Neighbors))
	for i, nb := range f.Out.Neighbors {
		if nb < id {
			f.unheard[i] = true
			f.smaller++
		}
	}
}

func (f *ColorFrag) pickColor() {
	c := 0
	for slices.Contains(f.taken, c) {
		c++
	}
	if c >= f.Stage.phiMax {
		f.Out.Overflowed = true
		c %= f.Stage.phiMax
	}
	f.Out.Color = c
}
