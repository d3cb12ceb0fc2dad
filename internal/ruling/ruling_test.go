package ruling

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// runRuling executes the protocol at radius r over the given positions with
// every node participating and returns the outcomes. The network-size estimate is kept
// ≥ 64 so that tiny test topologies still get enough rounds.
func runRuling(t *testing.T, pos []geo.Point, r float64, cfg Config, seed uint64, channels int) []Outcome {
	t.Helper()
	nEst := len(pos) + 2
	if nEst < 64 {
		nEst = 64
	}
	p := model.Default(channels, nEst)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	out := make([]Outcome, len(pos))
	if _, err := e.Run(rulingSteppers(NewStage(p, phy.NewReach(p, r), cfg, 0), make([]int, len(pos)), out, nil)); err != nil {
		t.Fatal(err)
	}
	return out
}

// rulingSteppers runs node i as a participant of st at TDMA offset
// offs[i], storing its outcome in out[i] and, if after is non-nil, the slot
// it finished at in after[i].
func rulingSteppers(st Stage, offs []int, out []Outcome, after []int) []sim.Stepper {
	steppers := make([]sim.Stepper, len(offs))
	for i := range steppers {
		f := NewRunFrag(&st, offs[i])
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
		b[i] = o.InSet
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
	out := runRuling(t, []geo.Point{{X: 0, Y: 0}}, 0.05, DefaultConfig(0), 1, 1)
	if !out[0].InSet {
		t.Error("lone node must end up in the ruling set")
	}
}

func TestIsolatedNodesAllJoin(t *testing.T) {
	// Nodes far apart (no r-neighbors): all must join S.
	pos := []geo.Point{{X: 0}, {X: 10}, {X: 20}, {X: 35}}
	out := runRuling(t, pos, 0.05, DefaultConfig(0), 2, 1)
	for i, o := range out {
		if !o.InSet {
			t.Errorf("isolated node %d not in set", i)
		}
	}
}

func TestClosePairExactlyOneJoins(t *testing.T) {
	// Two nodes well within r of each other: exactly one should join, for
	// many seeds.
	for seed := uint64(0); seed < 20; seed++ {
		pos := []geo.Point{{X: 0}, {X: 0.02}}
		out := runRuling(t, pos, 0.05, DefaultConfig(0), seed, 1)
		joined := 0
		for _, o := range out {
			if o.InSet {
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
	cfg := DefaultConfig(0)
	cfg.Mu = 8 // patch has ~16 members per r-ball; keep contention modest
	for seed := uint64(0); seed < 10; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed + 100)))
		pos := patch(rnd, 16, 0, 0, r/2)
		out := runRuling(t, pos, r, cfg, seed, 1)
		joined := 0
		for _, o := range out {
			if o.InSet {
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
	cfg := DefaultConfig(0)
	for seed := uint64(1); seed <= 6; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		pos := patch(rnd, 80, 0, 0, 2.0)
		out := runRuling(t, pos, r, cfg, seed, 1)
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
	cfg := DefaultConfig(0)
	cfg.Mu = 6
	for seed := uint64(1); seed <= 5; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed * 3)))
		var pos []geo.Point
		for px := 0; px < 3; px++ {
			for py := 0; py < 2; py++ {
				pos = append(pos, patch(rnd, 12, float64(px)*1.5, float64(py)*1.5, r/2)...)
			}
		}
		out := runRuling(t, pos, r, cfg, seed, 1)
		viol, undom := Validate(pos, allTrue(len(pos)), inSetOf(out), r)
		if viol != 0 || undom != 0 {
			t.Errorf("seed %d: %d violations, %d undominated", seed, viol, undom)
		}
	}
}

func TestDominatedByIsARealMember(t *testing.T) {
	const r = 0.04
	cfg := DefaultConfig(0)
	cfg.Mu = 6
	rnd := rand.New(rand.NewSource(11))
	pos := patch(rnd, 14, 0, 0, r/2)
	out := runRuling(t, pos, r, cfg, 5, 1)
	for i, o := range out {
		if o.InSet || o.DominatedBy < 0 {
			continue
		}
		if !out[o.DominatedBy].InSet {
			t.Errorf("node %d dominated by %d which is not in S", i, o.DominatedBy)
		}
		if pos[i].Dist(pos[o.DominatedBy]) > r {
			t.Errorf("node %d dominated from beyond r", i)
		}
	}
}

func TestSlotBudgetExact(t *testing.T) {
	// The stage must consume exactly its slot budget regardless of when
	// nodes halt, so pipelines stay aligned.
	pos := []geo.Point{{X: 0}, {X: 0.02}, {X: 10}}
	p := model.Default(1, 64)
	st := NewStage(p, phy.NewReach(p, 0.05), DefaultConfig(0), 0)
	want := st.Len
	e := sim.NewEngine(phy.NewField(p, pos), 3)
	after := make([]int, len(pos))
	if _, err := e.Run(rulingSteppers(st, make([]int, len(pos)), make([]Outcome, len(pos)), after)); err != nil {
		t.Fatal(err)
	}
	for i, s := range after {
		if s != want {
			t.Errorf("node %d consumed %d slots, want %d", i, s, want)
		}
	}
}

// TestIdleConsumesBudget: a non-participant sleeping through the stage
// window finishes in the same slot as the participants next to it.
func TestIdleConsumesBudget(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.02}}
	p := model.Default(1, 64)
	st := NewStage(p, phy.NewReach(p, 0.05), DefaultConfig(0), 0)
	e := sim.NewEngine(phy.NewField(p, pos), 1)
	after := make([]int, 2)
	steppers := rulingSteppers(st, []int{0}, make([]Outcome, 1), after)
	steppers = append(steppers, &sim.FragStepper{
		Frag:   &st.Window,
		Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() },
	})
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	if after[0] != st.Len || after[1] != after[0] {
		t.Errorf("participant finished at %d, idler at %d, want both %d", after[0], after[1], st.Len)
	}
}

func TestStrideInterleavingIsolation(t *testing.T) {
	// Two co-located dense groups run with stride 2 at offsets 0 and 1:
	// time-division must isolate them completely, so each group elects
	// exactly one member despite sharing the same patch of plane.
	const r = 0.04
	rnd := rand.New(rand.NewSource(21))
	pos := patch(rnd, 24, 0, 0, r/2)
	group := make([]int, len(pos))
	for i := range group {
		group[i] = i % 2
	}
	p := model.Default(1, 64)
	e := sim.NewEngine(phy.NewField(p, pos), 9)
	out := make([]Outcome, len(pos))
	cfg := DefaultConfig(0)
	cfg.Mu, cfg.Stride = 6, 2
	if _, err := e.Run(rulingSteppers(NewStage(p, phy.NewReach(p, r), cfg, 0), group, out, nil)); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		joined := 0
		for i, o := range out {
			if group[i] == g && o.InSet {
				joined++
			}
		}
		if joined != 1 {
			t.Errorf("group %d: %d joined, want exactly 1", g, joined)
		}
	}
}

func TestRoundsScaleLogarithmically(t *testing.T) {
	rounds := func(nEst int) int {
		p := model.Default(1, nEst)
		return NewStage(p, phy.NewReach(p, 0.05), DefaultConfig(0), 0).Rounds
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
