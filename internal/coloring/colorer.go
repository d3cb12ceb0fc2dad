package coloring

import (
	"context"
	"fmt"

	"mcnet/internal/core"
	"mcnet/internal/sim"
)

// Stats summarizes one coloring run in backend-comparable terms. Palette and
// Cycle share units across backends; Rounds is backend-native (see each
// backend's documentation) — cross-backend latency comparisons should use
// the engine's total slot count instead.
type Stats struct {
	// Palette is the number of distinct colors assigned.
	Palette int
	// Rounds is the backend's rounds-to-stabilize measure: sec7 reports
	// slots from the end of structure construction to the last colored
	// node (the Theorem 24 quantity); dplus1 and hsb report TDMA sweep
	// epochs including the discovery sweep.
	Rounds int
	// Cycle is the length of the TDMA cycle the coloring induces: max
	// color + 1 for single-channel schedules (sec7, dplus1), max slot + 1
	// for the multi-channel assignment of hsb, where F colors share each
	// slot on distinct channels.
	Cycle int
	// ColorSlots is when the last node learned its color, in slots past
	// the backend's setup phase (structure construction for sec7, the
	// discovery sweep for dplus1/hsb); 0 if no node was colored.
	ColorSlots int
}

// Colorer is a pluggable coloring backend: it runs node Steppers on the
// engine's slot machinery and returns per-node colors. Every backend
// inherits determinism (per-node StepCtx.Rand streams) and fault injection
// (engine-attached injectors) from the simulator, exactly like the
// aggregation pipeline.
type Colorer interface {
	// Name is the backend's registry name (spec field, CLI flag).
	Name() string
	// Color executes the backend on the engine. The plan carries the
	// derived sizing (Δ̂, φ, stage offsets); backends that do not build the
	// paper's structure may ignore it.
	Color(ctx context.Context, e *sim.Engine, pl *core.Plan) ([]Result, Stats, error)
}

// Names lists the registered backend names, default first.
func Names() []string { return []string{"sec7", "dplus1", "hsb"} }

// ByName resolves a backend name; the empty string means the default sec7.
func ByName(name string) (Colorer, error) {
	switch name {
	case "", "sec7":
		return Sec7{}, nil
	case "dplus1":
		return DPlus1{}, nil
	case "hsb":
		return HSB{}, nil
	default:
		return nil, fmt.Errorf("unknown coloring backend %q (valid: sec7, dplus1, hsb)", name)
	}
}

// Sec7 is the paper's Sec. 7 algorithm as a backend: structure construction
// followed by the four index-distribution procedures, colors k·φ + i. It is
// the default and reproduces the pre-interface transcripts bit-identically.
type Sec7 struct{}

// Name implements Colorer.
func (Sec7) Name() string { return "sec7" }

// Color implements Colorer by running the original procedures unchanged.
func (Sec7) Color(ctx context.Context, e *sim.Engine, pl *core.Plan) ([]Result, Stats, error) {
	res, err := RunContext(ctx, e, pl)
	if err != nil {
		return nil, Stats{}, err
	}
	st := summarize(res, 1)
	st.ColorSlots = lastColoredPast(e, pl.Offsets.Followers)
	st.Rounds = st.ColorSlots
	return res, st, nil
}

// summarize computes the palette and cycle of a finished coloring:
// slotsPerColor = 1 treats colors as TDMA slots directly; F > 1 packs F
// consecutive colors into one slot on distinct channels (the hsb layout).
func summarize(res []Result, colorsPerSlot int) Stats {
	var st Stats
	seen := make(map[int]struct{})
	maxColor := -1
	for _, r := range res {
		if r.Color < 0 {
			continue
		}
		seen[r.Color] = struct{}{}
		if r.Color > maxColor {
			maxColor = r.Color
		}
	}
	st.Palette = len(seen)
	if maxColor >= 0 {
		st.Cycle = maxColor/colorsPerSlot + 1
	}
	return st
}

// lastColoredPast returns the slot of the last EventColored emission
// measured from base, or 0 if none fired.
func lastColoredPast(e *sim.Engine, base int) int {
	last := 0
	for _, ev := range e.Events() {
		if ev.Name == EventColored && ev.Slot > last {
			last = ev.Slot
		}
	}
	if last == 0 {
		return 0
	}
	return last - base
}
