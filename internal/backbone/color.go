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

// ColorConfig parameterizes the cluster coloring stage.
//
// The pipeline variant (deviation D4 in the mcnet package documentation)
// colors the constant-density dominator set in two sub-stages:
// RSSI-filtered neighbor discovery, then ID-ordered greedy color
// resolution — each dominator waits for all smaller-ID neighbors within
// Radius to announce, then takes the smallest free color and announces it
// for the rest of the stage.
type ColorConfig struct {
	// Channel used by the stage.
	Channel int
	// Radius is the conflict radius: dominators within it must receive
	// distinct colors. The pipeline passes R_{ε/2}.
	Radius float64
	// PhiMax is the agreed TDMA period: colors are drawn from
	// {0, …, PhiMax-1}; the stage records an overflow if greedy needs more
	// (it then wraps, and Validate will report conflicts).
	PhiMax int
	// BeaconProb is the discovery transmission probability.
	BeaconProb float64
	// AnnounceProb is the per-slot probability that a colored dominator
	// re-announces its color.
	AnnounceProb float64
	// DiscoverFactor and ResolveFactor scale the two sub-stage lengths:
	// slots = ceil(factor · ln n̂).
	DiscoverFactor, ResolveFactor float64
}

// DefaultColorConfig returns the pipeline configuration.
//
// The probabilities are deliberately small: conflict edges run up to
// R_{ε/2} ≈ 0.85·R_T where the SINR headroom over β is only ~60%, so a
// beacon is decodable across such a link only when almost nothing else
// transmits network-wide. Low per-slot probability with a long (one-time)
// stage is the reliable operating point.
func DefaultColorConfig(p model.Params, phiMax int) ColorConfig {
	return ColorConfig{
		Channel:        0,
		Radius:         p.REpsHalf(),
		PhiMax:         phiMax,
		BeaconProb:     0.02,
		AnnounceProb:   0.02,
		DiscoverFactor: 150,
		ResolveFactor:  250,
	}
}

func (c ColorConfig) discoverSlots(p model.Params) int {
	return int(math.Ceil(c.DiscoverFactor * p.LogN()))
}

func (c ColorConfig) resolveSlots(p model.Params) int {
	return int(math.Ceil(c.ResolveFactor * p.LogN()))
}

// SlotBudget returns the exact number of slots the coloring stage
// consumes.
func (c ColorConfig) SlotBudget(p model.Params) int {
	return c.discoverSlots(p) + c.resolveSlots(p)
}

// ColorOutcome is the per-dominator result of the coloring stage.
type ColorOutcome struct {
	// Color in {0, …, PhiMax-1}; -1 for non-participants.
	Color int
	// Neighbors lists the dominator IDs discovered within Radius.
	Neighbors []int
	// Forced reports that the node colored itself greedily at the stage end
	// without having heard all smaller-ID neighbors (possible conflict).
	Forced bool
	// Overflowed reports that greedy needed a color ≥ PhiMax and wrapped.
	Overflowed bool
}

// ColorFrag executes the dominator side of the coloring stage, consuming
// exactly Cfg.SlotBudget slots; non-dominators idle through the budget with
// a sim.IdleFrag. Out is valid once Feed returns true.
//
// The fragment keeps its three sets as small slices rather than maps: the
// neighbor set (sorted once discovery ends, becoming Out.Neighbors), a
// not-yet-heard flag per smaller-ID neighbor, and the list of announced
// colors.
type ColorFrag struct {
	Cfg ColorConfig
	Out ColorOutcome

	init                    bool
	reach                   phy.Reach // Cfg.Radius
	stage                   uint8     // 0 discover, 1 resolve
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
	if !f.init {
		p := sc.Params()
		f.init = true
		f.reach = phy.NewReach(p, f.Cfg.Radius)
		f.Out = ColorOutcome{Color: -1}
		f.discoverLen = f.Cfg.discoverSlots(p)
		f.resolveLen = f.Cfg.resolveSlots(p)
	}
	if f.awaitBeacon {
		f.awaitBeacon = false
		rec := sc.Prev()
		if b, ok := rec.Msg.(Beacon); ok && f.reach.Within(rec) &&
			!slices.Contains(f.neighbors, b.From) {
			f.neighbors = append(f.neighbors, b.From)
		}
	}
	if f.awaitFinal {
		f.awaitFinal = false
		rec := sc.Prev()
		if fin, ok := rec.Msg.(Final); ok {
			if i, nb := slices.BinarySearch(f.Out.Neighbors, fin.From); nb && f.reach.Within(rec) {
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
			switch {
			case f.Out.Color < 0:
				sc.Listen(f.Cfg.Channel)
				f.awaitFinal = true
			case sc.Rand.Float64() < f.Cfg.AnnounceProb:
				sc.Transmit(f.Cfg.Channel, Final{From: sc.ID(), Color: f.Out.Color})
			default:
				// Colored: taken, unheard and smaller are never read again,
				// so a Final heard now would be discarded.
				sc.Idle()
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
