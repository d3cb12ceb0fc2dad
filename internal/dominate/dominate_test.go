package dominate

import (
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// radius is the dominating radius the tests build with.
const radius = 0.06

func runDominate(t *testing.T, pos []geo.Point, seed uint64) []Outcome {
	t.Helper()
	nEst := len(pos)
	if nEst < 64 {
		nEst = 64
	}
	p := model.Default(1, nEst)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	st := NewStage(p, phy.NewReach(p, radius), 0)
	out := make([]Outcome, len(pos))
	steppers := make([]sim.Stepper, len(pos))
	for i := range steppers {
		f := NewRunFrag(&st)
		steppers[i] = &sim.FragStepper{Frag: &f, Finish: func(*sim.StepCtx) { out[i] = f.Out }}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSingletonSelfAppoints(t *testing.T) {
	out := runDominate(t, []geo.Point{{X: 0}}, 1)
	if !out[0].IsDominator || out[0].Dominator != 0 {
		t.Errorf("singleton outcome = %+v", out[0])
	}
}

func TestCoverageOnSparseField(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		pos := topology.Uniform(rnd, 150, 2, 2)
		out := runDominate(t, pos, seed)
		s := Analyze(pos, out, radius)
		if s.Uncovered != 0 {
			t.Errorf("seed %d: %d uncovered nodes", seed, s.Uncovered)
		}
	}
}

func TestDensePatchFormsFewClusters(t *testing.T) {
	// 120 nodes inside one r-ball: a handful of dominators must absorb
	// everyone; density must stay small.
	for seed := uint64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed * 7)))
		pos := make([]geo.Point, 120)
		for i := range pos {
			pos[i] = geo.Point{X: rnd.Float64() * 0.04, Y: rnd.Float64() * 0.04}
		}
		out := runDominate(t, pos, seed)
		s := Analyze(pos, out, radius)
		if s.Uncovered != 0 {
			t.Errorf("seed %d: %d uncovered", seed, s.Uncovered)
		}
		// All nodes fit in one ball of radius r: a single dominator suffices;
		// allow a little slack for simultaneous joins.
		if s.Dominators > 4 {
			t.Errorf("seed %d: %d dominators in one ball", seed, s.Dominators)
		}
	}
}

func TestDensityBoundedOnMixedField(t *testing.T) {
	// Hotspots plus background: density of dominators per r-ball must be a
	// small constant.
	for seed := uint64(1); seed <= 3; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed * 13)))
		pos := topology.Hotspot(rnd, 5, 30, 1.5, 0.03)
		pos = append(pos, topology.Uniform(rnd, 60, 1.5, 1.5)...)
		out := runDominate(t, pos, seed)
		s := Analyze(pos, out, radius)
		if s.Uncovered != 0 {
			t.Errorf("seed %d: %d uncovered", seed, s.Uncovered)
		}
		if s.MaxDensity > 6 {
			t.Errorf("seed %d: dominator density %d too high", seed, s.MaxDensity)
		}
	}
}

func TestDominatorAssignmentsConsistent(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	pos := topology.Uniform(rnd, 100, 1, 1)
	out := runDominate(t, pos, 9)
	for i, o := range out {
		if o.Dominator < 0 {
			t.Fatalf("node %d has no dominator", i)
		}
		if o.IsDominator && o.Dominator != i {
			t.Errorf("dominator %d assigned to %d", i, o.Dominator)
		}
		if !o.IsDominator && !out[o.Dominator].IsDominator {
			t.Errorf("node %d assigned to non-dominator %d", i, o.Dominator)
		}
	}
}

func TestSlotBudgetExact(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.02}, {X: 5}}
	p := model.Default(1, 64)
	st := NewStage(p, phy.NewReach(p, radius), 0)
	want := st.Len
	e := sim.NewEngine(phy.NewField(p, pos), 3)
	after := make([]int, len(pos))
	steppers := make([]sim.Stepper, len(pos))
	for i := range steppers {
		f := NewRunFrag(&st)
		steppers[i] = &sim.FragStepper{Frag: &f, Finish: func(sc *sim.StepCtx) { after[i] = sc.Slot() }}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	for i, s := range after {
		if s != want {
			t.Errorf("node %d consumed %d slots, want %d", i, s, want)
		}
	}
}

func TestAnalyzeUncovered(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 5}}
	out := []Outcome{
		{IsDominator: true, Dominator: 0},
		{Dominator: 0}, // assigned to a dominator 5 units away: uncovered
	}
	s := Analyze(pos, out, 0.06)
	if s.Uncovered != 1 {
		t.Errorf("uncovered = %d, want 1", s.Uncovered)
	}
	if s.Dominators != 1 {
		t.Errorf("dominators = %d, want 1", s.Dominators)
	}
}

// TestIdleConsumesBudget: a node sleeping through the stage window
// finishes in the same slot as a participant next to it.
func TestIdleConsumesBudget(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.02}}
	p := model.Default(1, 64)
	st := NewStage(p, phy.NewReach(p, radius), 0)
	f := NewRunFrag(&st)
	e := sim.NewEngine(phy.NewField(p, pos), 1)
	after := make([]int, 2)
	if _, err := e.Run([]sim.Stepper{
		&sim.FragStepper{Frag: &f, Finish: func(sc *sim.StepCtx) { after[0] = sc.Slot() }},
		&sim.FragStepper{Frag: &st.Window, Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() }},
	}); err != nil {
		t.Fatal(err)
	}
	if after[0] != st.Len || after[1] != after[0] {
		t.Errorf("participant finished at %d, idler at %d, want both %d", after[0], after[1], st.Len)
	}
}
