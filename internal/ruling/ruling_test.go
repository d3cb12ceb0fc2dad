package ruling

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// stages lists both constructors, for the tests that hold for either.
var stages = []struct {
	name  string
	build func(model.Params, phy.Reach, int) Stage
}{{"ruling", NewStage}, {"dominating", NewDominatingStage}}

// radius is the dominating radius the dominating-set tests build with.
const radius = 0.06

// runStage executes st over pos with every node participating and returns
// the outcomes.
func runStage(t *testing.T, p model.Params, pos []geo.Point, st Stage, seed uint64) []Outcome {
	t.Helper()
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	out := make([]Outcome, len(pos))
	if _, err := e.Run(rulingSteppers(st, out, nil)); err != nil {
		t.Fatal(err)
	}
	return out
}

// runRuling executes the ruling set at radius r and density bound mu over
// pos. The network-size estimate is kept ≥ 64 so that tiny test topologies
// still get enough rounds.
func runRuling(t *testing.T, pos []geo.Point, r, mu float64, seed uint64) []Outcome {
	t.Helper()
	p := model.Default(1, max(len(pos)+2, 64))
	st := NewStage(p, phy.NewReach(p, r), 0)
	st.probs = []float64{1 / (2 * mu)}
	return runStage(t, p, pos, st, seed)
}

// runDominate executes the dominating set at radius over pos.
func runDominate(t *testing.T, pos []geo.Point, seed uint64) []Outcome {
	t.Helper()
	p := model.Default(1, max(len(pos), 64))
	return runStage(t, p, pos, NewDominatingStage(p, phy.NewReach(p, radius), 0), seed)
}

// rulingSteppers runs every node through st, storing node i's outcome in
// out[i] and, if after is non-nil, the slot it finished at in after[i].
func rulingSteppers(st Stage, out []Outcome, after []int) []sim.Stepper {
	steppers := make([]sim.Stepper, len(out))
	for i := range steppers {
		f := NewRunFrag(&st)
		steppers[i] = &sim.FragStepper{Frag: &f, Finish: func(sc *sim.StepCtx) {
			out[i] = f.Out
			if after != nil {
				after[i] = sc.Slot()
			}
		}}
	}
	return steppers
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func inSetOf(out []Outcome) []bool {
	b := make([]bool, len(out))
	for i, o := range out {
		b[i] = o.IsDominator
	}
	return b
}

// patch sprinkles k points uniformly in a square of the given side anchored
// at (ox, oy).
func patch(rnd *rand.Rand, k int, ox, oy, side float64) []geo.Point {
	pts := make([]geo.Point, k)
	for i := range pts {
		pts[i] = geo.Point{X: ox + rnd.Float64()*side, Y: oy + rnd.Float64()*side}
	}
	return pts
}

func TestSingletonJoins(t *testing.T) {
	out := runRuling(t, []geo.Point{{X: 0, Y: 0}}, 0.05, rulingMu, 1)
	if !out[0].IsDominator {
		t.Error("lone node must end up in the ruling set")
	}
}

func TestIsolatedNodesAllJoin(t *testing.T) {
	// Nodes far apart (no r-neighbors): all must join S.
	pos := []geo.Point{{X: 0}, {X: 10}, {X: 20}, {X: 35}}
	out := runRuling(t, pos, 0.05, rulingMu, 2)
	for i, o := range out {
		if !o.IsDominator {
			t.Errorf("isolated node %d not in set", i)
		}
	}
}

func TestClosePairExactlyOneJoins(t *testing.T) {
	// Two nodes well within r of each other: exactly one should join, for
	// many seeds.
	for seed := uint64(0); seed < 20; seed++ {
		pos := []geo.Point{{X: 0}, {X: 0.02}}
		out := runRuling(t, pos, 0.05, rulingMu, seed)
		joined := 0
		for _, o := range out {
			if o.IsDominator {
				joined++
			}
		}
		if joined != 1 {
			t.Errorf("seed %d: %d nodes joined, want 1", seed, joined)
		}
	}
}

func TestDensePatchElectsOne(t *testing.T) {
	// A single dense patch whose diameter is below r: the patch is one
	// mutual r-neighborhood, so exactly one member may end in S.
	const r = 0.04
	const mu = 8 // patch has ~16 members per r-ball; keep contention modest
	for seed := uint64(0); seed < 10; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed + 100)))
		pos := patch(rnd, 16, 0, 0, r/2)
		out := runRuling(t, pos, r, mu, seed)
		joined := 0
		for _, o := range out {
			if o.IsDominator {
				joined++
			}
		}
		if joined != 1 {
			t.Errorf("seed %d: %d joined, want exactly 1", seed, joined)
		}
	}
}

func TestSparseFieldPostcondition(t *testing.T) {
	// Sparse global field: node density well below one per r-ball, the
	// regime in which the pipeline invokes ruling sets over dominators.
	const r = 0.06
	for seed := uint64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		pos := patch(rnd, 80, 0, 0, 2.0)
		out := runRuling(t, pos, r, rulingMu, seed)
		viol, undom := Validate(pos, allTrue(len(pos)), inSetOf(out), r)
		if viol != 0 {
			t.Errorf("seed %d: %d independence violations", seed, viol)
		}
		if undom != 0 {
			t.Errorf("seed %d: %d undominated nodes", seed, undom)
		}
	}
}

func TestSeparatedPatchesPostcondition(t *testing.T) {
	// Several dense patches far apart: each patch resolves to one member,
	// far-field interference from other patches notwithstanding.
	const r = 0.04
	const mu = 6
	for seed := uint64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed * 3)))
		var pos []geo.Point
		for px := 0; px < 3; px++ {
			for py := 0; py < 2; py++ {
				pos = append(pos, patch(rnd, 12, float64(px)*1.5, float64(py)*1.5, r/2)...)
			}
		}
		out := runRuling(t, pos, r, mu, seed)
		viol, undom := Validate(pos, allTrue(len(pos)), inSetOf(out), r)
		if viol != 0 || undom != 0 {
			t.Errorf("seed %d: %d violations, %d undominated", seed, viol, undom)
		}
	}
}

func TestDominatedByIsARealMember(t *testing.T) {
	const r = 0.04
	const mu = 6
	rnd := rand.New(rand.NewSource(11))
	pos := patch(rnd, 14, 0, 0, r/2)
	out := runRuling(t, pos, r, mu, 5)
	for i, o := range out {
		if o.IsDominator || o.Dominator < 0 {
			continue
		}
		if !out[o.Dominator].IsDominator {
			t.Errorf("node %d dominated by %d which is not in S", i, o.Dominator)
		}
		if pos[i].Dist(pos[o.Dominator]) > r {
			t.Errorf("node %d dominated from beyond r", i)
		}
	}
}

func TestSlotBudgetExact(t *testing.T) {
	// Each stage must consume exactly its slot budget regardless of when
	// nodes halt, so pipelines stay aligned.
	pos := []geo.Point{{X: 0}, {X: 0.02}, {X: 10}}
	p := model.Default(1, 64)
	for _, s := range stages {
		t.Run(s.name, func(t *testing.T) {
			st := s.build(p, phy.NewReach(p, 0.05), 0)
			e := sim.NewEngine(phy.NewField(p, pos), 3)
			after := make([]int, len(pos))
			if _, err := e.Run(rulingSteppers(st, make([]Outcome, len(pos)), after)); err != nil {
				t.Fatal(err)
			}
			for i, slot := range after {
				if slot != st.Len {
					t.Errorf("node %d consumed %d slots, want %d", i, slot, st.Len)
				}
			}
		})
	}
}

// TestIdleConsumesBudget: a node sleeping through either stage's window
// finishes in the same slot as a participant next to it.
func TestIdleConsumesBudget(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.02}}
	p := model.Default(1, 64)
	for _, s := range stages {
		t.Run(s.name, func(t *testing.T) {
			st := s.build(p, phy.NewReach(p, 0.05), 0)
			e := sim.NewEngine(phy.NewField(p, pos), 1)
			after := make([]int, 2)
			steppers := append(rulingSteppers(st, make([]Outcome, 1), after), &sim.FragStepper{
				Frag:   &st.Window,
				Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() },
			})
			if _, err := e.Run(steppers); err != nil {
				t.Fatal(err)
			}
			if after[0] != st.Len || after[1] != after[0] {
				t.Errorf("participant finished at %d, idler at %d, want both %d", after[0], after[1], st.Len)
			}
		})
	}
}

func TestRoundsScaleLogarithmically(t *testing.T) {
	rounds := func(nEst int) int {
		p := model.Default(1, nEst)
		return NewStage(p, phy.NewReach(p, 0.05), 0).rounds
	}
	r64, r4096 := rounds(64), rounds(4096)
	ratio := float64(r4096) / float64(r64)
	want := math.Log(4096) / math.Log(64)
	if math.Abs(ratio-want) > 0.1 {
		t.Errorf("round ratio = %v, want ≈ %v", ratio, want)
	}
}

func TestValidate(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.01}, {X: 1}}
	part := []bool{true, true, true}
	// Both close nodes in S: one violation; far node not in S and not
	// dominated.
	viol, undom := Validate(pos, part, []bool{true, true, false}, 0.05)
	if viol != 1 || undom != 1 {
		t.Errorf("viol=%d undom=%d, want 1, 1", viol, undom)
	}
	// Proper: node 0 in S dominates node 1; node 2 in S.
	viol, undom = Validate(pos, part, []bool{true, false, true}, 0.05)
	if viol != 0 || undom != 0 {
		t.Errorf("viol=%d undom=%d, want 0, 0", viol, undom)
	}
}

func TestNonParticipantsExcludedFromValidate(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.01}}
	// Node 1 not participating: no violation even though both "in set".
	viol, undom := Validate(pos, []bool{true, false}, []bool{true, true}, 0.05)
	if viol != 0 || undom != 0 {
		t.Errorf("viol=%d undom=%d, want 0, 0", viol, undom)
	}
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
