package coloring

import (
	"context"

	"mcnet/internal/core"
	"mcnet/internal/sim"
)

// DPlus1 is a degree+1 list-coloring backend in the style of
// Flin–Halldórsson–Nolin (arXiv:2408.11041): every node colors itself from
// its private palette {0..deg(v)} via randomized palette trials, entirely
// without the paper's aggregation structure. One discovery sweep learns the
// exact neighborhood; then, per epoch, every uncolored node draws a fresh
// random rank and a uniformly random free color, announces the trial over
// the TDMA substrate, and commits unless a neighbor with a smaller rank
// trialed the same color or a neighbor had already committed it. Commits
// are announced as Final in later epochs, shrinking the neighbors' lists.
//
// Two adjacent nodes trialing one color always hear each other on the
// collision-free substrate and the smaller (rank, ID) pair wins, so the
// produced coloring is proper by construction; random ranks give the usual
// O(log n) expected epochs. The palette never exceeds Δ+1 — compared to the
// sec7 palette of index·φ + clusterColor values this cuts the induced TDMA
// cycle roughly by the factor φ.
//
// The trial loop runs at most trialEpochCap epochs per node.
type DPlus1 struct{}

// Name implements Colorer.
func (DPlus1) Name() string { return "dplus1" }

// Color implements Colorer. The plan is unused: this backend needs no
// structure construction.
func (DPlus1) Color(goctx context.Context, e *sim.Engine, _ *core.Plan) ([]Result, Stats, error) {
	res, epochs, err := backendRun(goctx, e, func(id int, sw *sweep, r *Result, ep *int) sim.Stepper {
		return &dplus1Stepper{sw: sw, r: r, epochs: ep, disc: newDiscovery(id, sw)}
	})
	if err != nil {
		return nil, Stats{}, err
	}
	st := summarize(res, 1)
	st.Rounds = 1 + maxOf(epochs) // the discovery sweep plus the slowest node's trials
	st.ColorSlots = lastColoredPast(e, sweepLen(e.Field().Params()))
	return res, st, nil
}

// dplus1Stepper is one node of the dplus1 backend: the discovery sweep,
// then the trial epochs.
type dplus1Stepper struct {
	sw     *sweep
	r      *Result
	epochs *int

	disc   *discovery
	trials *trialFrag
}

// Step implements sim.Stepper.
func (s *dplus1Stepper) Step(sc *sim.StepCtx) {
	if s.trials == nil {
		if !s.disc.Feed(sc) {
			return
		}
		s.trials = newTrialFrag(sc.ID(), s.sw, s.disc.sorted(), s.r)
	}
	if !s.trials.Feed(sc) {
		return
	}
	*s.epochs = s.trials.epoch
	s.r.Index = s.r.Color
	sc.Done()
}

// maxOf returns the slice maximum (0 for an empty slice).
func maxOf(v []int) int {
	m := 0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
