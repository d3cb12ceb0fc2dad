package coloring

import (
	"context"
	"math/bits"

	"mcnet/internal/core"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// HSB is a hypergraph-symmetry-breaking backend after Kutten–Nanongkai–
// Pandurangan–Robinson (arXiv:1405.1649): it first breaks symmetry by
// electing a maximal independent set with per-epoch random ranks (Luby
// style), then hands out multi-channel TDMA pairs. MIS leaders — pairwise
// non-adjacent by construction — all commit color 0 simultaneously; covered
// nodes fill the remaining palette with the same rank-based trials dplus1
// uses. Color j is read as the pair (slot j/F, channel j mod F), so F colors
// share every TDMA slot on distinct channels and the induced cycle is about
// (Δ+1)/F — the backend that actually spends the F channels the paper's
// model provides, where sec7 and dplus1 schedule one color per slot.
//
// Result fields are overloaded to the pair view: Index is the slot j/F,
// ClusterColor the channel j mod F, and IsDominator marks MIS leaders.
type HSB struct {
	// MaxEpochs caps the member trial loop; 0 derives the bound from n̂ and
	// the node degree (see trialEpochCap).
	MaxEpochs int
}

// Name implements Colorer.
func (HSB) Name() string { return "hsb" }

// Color implements Colorer. The plan is unused: symmetry is broken by the
// MIS, not by the paper's structure.
func (b HSB) Color(goctx context.Context, e *sim.Engine, _ *core.Plan) ([]Result, Stats, error) {
	res, epochs, err := backendRun(goctx, e, func(r *Result, ep *int) sim.Stepper {
		return &hsbStepper{b: b, r: r, epochs: ep}
	})
	if err != nil {
		return nil, Stats{}, err
	}
	p := e.Field().Params()
	st := summarize(res, p.Channels)
	st.Rounds = 1 + maxOf(epochs) // discovery plus MIS plus trials at the slowest node
	st.ColorSlots = lastColoredPast(e, sweepLen(p))
	return res, st, nil
}

// misEpochCap bounds the MIS phase: rank-based elimination halves the
// undecided edge count per epoch in expectation, so logarithmic in n̂ with
// generous constants. Undecided survivors fall back to covered and color as
// ordinary members.
func misEpochCap(p model.Params) int {
	return 16 + 6*bits.Len(uint(sweepLen(p)))
}

// hsbStepper is one node of the hsb backend: the discovery sweep, the MIS
// epochs, then the trial epochs.
type hsbStepper struct {
	b      HSB
	r      *Result
	epochs *int

	disc   *discovery
	mis    *misFrag
	trials *trialFrag
}

// Step implements sim.Stepper.
func (s *hsbStepper) Step(sc *sim.StepCtx) {
	p := sc.Params()
	cycle := sweepLen(p)
	if s.disc == nil {
		s.disc = newDiscovery(sc.ID(), cycle)
	}
	if s.mis == nil {
		if !s.disc.Feed(sc) {
			return
		}
		nbs := s.disc.sorted()
		s.mis = &misFrag{epochLoop: epochLoop{cycle: cycle, cap: misEpochCap(p)}, id: sc.ID(), nbs: nbs,
			decided: make(map[int]bool, len(nbs))}
	}
	if s.trials == nil {
		if !s.mis.Feed(sc) {
			return
		}
		// Leaders commit color 0 — pairwise non-adjacent, so no conflict —
		// and everyone runs the trial protocol, leaders only to advertise
		// their commitment until the neighborhood settles.
		if s.mis.state == misLeader {
			s.r.Color = 0
			s.r.IsDominator = true
			sc.Emit(EventColored, 0)
		}
		maxEpochs := s.b.MaxEpochs
		if maxEpochs <= 0 {
			maxEpochs = trialEpochCap(p, len(s.mis.nbs))
		}
		s.trials = newTrialFrag(sc.ID(), cycle, maxEpochs, s.mis.nbs, s.r)
	}
	if !s.trials.Feed(sc) {
		return
	}
	*s.epochs = 1 + s.mis.epoch + s.trials.epoch
	// Read the color as its multi-channel TDMA pair.
	if s.r.Color >= 0 {
		s.r.Index = s.r.Color / p.Channels
		s.r.ClusterColor = s.r.Color % p.Channels
	}
	sc.Done()
}

// misFrag elects a maximal independent set. Per epoch every undecided node
// draws a rank and joins if it holds the neighborhood minimum; hearing a
// leader covers a node. Announcements carry the state as of the epoch
// start, so a node leaves only after a full sweep has advertised its
// decision and every neighbor's decision has been heard. Nodes still
// undecided at the epoch cap end covered.
type misFrag struct {
	epochLoop
	id      int
	nbs     []int
	decided map[int]bool

	state, announced    uint8
	rank                uint64
	localMin, sawLeader bool
}

// Feed implements sim.Frag.
func (f *misFrag) Feed(sc *sim.StepCtx) bool {
	if !f.feed(sc, f) {
		return false
	}
	if f.state == misUndecided {
		f.state = misCovered // cap fallback: color as an ordinary member
	}
	return true
}

func (f *misFrag) begin(sc *sim.StepCtx) any {
	f.announced = f.state
	f.rank = 0
	if f.state == misUndecided {
		f.rank = sc.Rand.Uint64()
	}
	f.localMin, f.sawLeader = true, false
	return misMsg{From: f.id, Rank: f.rank, State: f.announced}
}

func (f *misFrag) end(*sim.StepCtx) bool {
	if f.state == misUndecided {
		switch {
		case f.sawLeader:
			f.state = misCovered
		case f.localMin:
			f.state = misLeader
		}
	}
	return f.announced != misUndecided && allMarked(f.nbs, f.decided)
}

func (f *misFrag) hear(rec phy.Reception) {
	m, ok := rec.Msg.(misMsg)
	if !ok {
		return
	}
	switch m.State {
	case misLeader:
		f.decided[m.From] = true
		f.sawLeader = true
	case misCovered:
		f.decided[m.From] = true
	default:
		if m.Rank < f.rank || (m.Rank == f.rank && m.From < f.id) {
			f.localMin = false
		}
	}
}
