package csa

import (
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// clusterPos places size-1 members around a dominator at the origin, all
// within radius.
func clusterPos(size int, radius float64, seed int64) []geo.Point {
	rnd := rand.New(rand.NewSource(seed))
	pos := make([]geo.Point, size)
	for i := 1; i < size; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * radius / 1.5,
			Y: (rnd.Float64()*2 - 1) * radius / 1.5,
		}
	}
	return pos
}

// finishSlots runs node i as frags[i] and records in after[i] the slot at
// which that fragment finished.
func finishSlots(after []int, frags ...sim.Frag) []sim.Stepper {
	steppers := make([]sim.Stepper, len(frags))
	for i, f := range frags {
		steppers[i] = &sim.FragStepper{Frag: f, Finish: func(sc *sim.StepCtx) { after[i] = sc.Slot() }}
	}
	return steppers
}

// runLarge executes the large-Δ̂ estimator on a single cluster with node 0
// as dominator; returns the dominator's estimate and the members' learned
// estimates.
func runLarge(t *testing.T, size int, cfg Config, channels int, seed uint64) (int, []int) {
	t.Helper()
	pos := clusterPos(size, 0.05, int64(seed))
	p := model.Default(channels, 256)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	var domEst int
	memberEst := make([]int, size)
	steppers := make([]sim.Stepper, size)
	dom := &DominatorFrag{Cfg: cfg}
	steppers[0] = &sim.FragStepper{Frag: dom, Finish: func(*sim.StepCtx) { domEst = dom.Estimate }}
	for i := 1; i < size; i++ {
		f := &DominateeFrag{Cfg: cfg}
		steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { memberEst[i] = f.Estimate }}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	return domEst, memberEst
}

func TestLargeEstimateAccuracy(t *testing.T) {
	// Cluster sizes across two orders of magnitude with Δ̂ = 512: estimates
	// must land within a constant band of the truth.
	for _, size := range []int{16, 64, 200} {
		cfg := DefaultConfig(512, 0.14)
		domEst, memberEst := runLarge(t, size, cfg, 1, uint64(size))
		truth := size - 1 // probing members
		if domEst < truth/8 || domEst > truth*8 {
			t.Errorf("size %d: estimate %d outside [%d, %d]", size, domEst, truth/8, truth*8)
		}
		for i := 1; i < size; i++ {
			if memberEst[i] != domEst {
				t.Errorf("size %d: member %d learned %d, dominator has %d",
					size, i, memberEst[i], domEst)
			}
		}
	}
}

func TestLargeEmptyClusterNoTermination(t *testing.T) {
	// A dominator with no members must report 0 (no probes ever arrive).
	cfg := DefaultConfig(64, 0.14)
	domEst, _ := runLarge(t, 1, cfg, 1, 3)
	if domEst != 0 {
		t.Errorf("empty cluster estimate = %d, want 0", domEst)
	}
}

func TestLargeSlotBudget(t *testing.T) {
	p := model.Default(1, 256)
	cfg := DefaultConfig(128, 0.14)
	pos := clusterPos(3, 0.05, 1)
	e := sim.NewEngine(phy.NewField(p, pos), 1)
	after := make([]int, 3)
	if _, err := e.Run(finishSlots(after,
		&DominatorFrag{Cfg: cfg},
		&DominateeFrag{Cfg: cfg},
		&sim.IdleFrag{K: cfg.SlotBudget(p)},
	)); err != nil {
		t.Fatal(err)
	}
	want := cfg.SlotBudget(p)
	for i, s := range after {
		if s != want {
			t.Errorf("node %d consumed %d, want %d", i, s, want)
		}
	}
}

func TestLargePhases(t *testing.T) {
	if got := DefaultConfig(1, 0.14).Phases(); got != 1 {
		t.Errorf("Phases(Δ̂=1) = %d", got)
	}
	if got := DefaultConfig(128, 0.14).Phases(); got != 7 {
		t.Errorf("Phases(Δ̂=128) = %d, want 7", got)
	}
	if got := DefaultConfig(100, 0.14).Phases(); got != 7 {
		t.Errorf("Phases(Δ̂=100) = %d, want 7", got)
	}
}

func TestSmallEstimateAccuracy(t *testing.T) {
	for _, size := range []int{12, 40, 90} {
		pos := clusterPos(size, 0.05, int64(size))
		p := model.Default(8, 256)
		cfg := DefaultSmallConfig(p, 0.14)
		e := sim.NewEngine(phy.NewField(p, pos), uint64(size)*7)
		var domEst int
		memberEst := make([]int, size)
		steppers := make([]sim.Stepper, size)
		dom := &SmallDominatorFrag{Cfg: cfg}
		steppers[0] = &sim.FragStepper{Frag: dom, Finish: func(*sim.StepCtx) { domEst = dom.Estimate }}
		for i := 1; i < size; i++ {
			f := &SmallDominateeFrag{Cfg: cfg}
			steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { memberEst[i] = f.Estimate }}
		}
		if _, err := e.Run(steppers); err != nil {
			t.Fatal(err)
		}
		if domEst < size/8 || domEst > size*8 {
			t.Errorf("size %d: dominator estimate %d outside [%d, %d]",
				size, domEst, size/8, size*8)
		}
		missed := 0
		for i := 1; i < size; i++ {
			if memberEst[i] == 0 {
				missed++
			} else if memberEst[i] != domEst {
				t.Errorf("size %d: member %d learned %d ≠ %d", size, i, memberEst[i], domEst)
			}
		}
		if missed > 0 {
			t.Errorf("size %d: %d members missed the broadcast", size, missed)
		}
	}
}

func TestSmallSlotBudget(t *testing.T) {
	p := model.Default(4, 256)
	cfg := DefaultSmallConfig(p, 0.14)
	pos := clusterPos(4, 0.05, 2)
	e := sim.NewEngine(phy.NewField(p, pos), 5)
	after := make([]int, 4)
	if _, err := e.Run(finishSlots(after,
		&SmallDominatorFrag{Cfg: cfg},
		&SmallDominateeFrag{Cfg: cfg},
		&SmallDominateeFrag{Cfg: cfg},
		&sim.IdleFrag{K: cfg.SlotBudget(p)},
	)); err != nil {
		t.Fatal(err)
	}
	want := cfg.SlotBudget(p)
	for i, s := range after {
		if s != want {
			t.Errorf("node %d consumed %d, want %d", i, s, want)
		}
	}
}

func TestUseSmallChooser(t *testing.T) {
	p := model.Default(8, 256) // ln 256 ≈ 5.55, log² ≈ 30.8
	if !UseSmall(p, 100) {     // 100/8 = 12.5 ≤ 30.8
		t.Error("small variant should apply for Δ̂ = 100, F = 8")
	}
	if UseSmall(p, 4000) { // 500 > 30.8
		t.Error("large variant should apply for Δ̂ = 4000, F = 8")
	}
}

func TestTwoClustersInterleaved(t *testing.T) {
	// Two clusters, same color stride pattern offset: TDMA keeps their CSA
	// runs independent even though both use channel 0.
	const size = 20
	posA := clusterPos(size, 0.05, 5)
	var pos []geo.Point
	pos = append(pos, posA...)
	for _, q := range clusterPos(size, 0.05, 6) {
		pos = append(pos, geo.Point{X: q.X + 1.2, Y: q.Y})
	}
	p := model.Default(1, 256)
	e := sim.NewEngine(phy.NewField(p, pos), 9)
	ests := make([]int, 2)
	steppers := make([]sim.Stepper, 2*size)
	for c := 0; c < 2; c++ {
		cfg := DefaultConfig(256, 0.14)
		cfg.Stride, cfg.Offset = 2, c
		dom := c * size
		f := &DominatorFrag{Cfg: cfg, Dom: dom}
		steppers[dom] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { ests[c] = f.Estimate }}
		for i := 1; i < size; i++ {
			steppers[dom+i] = &sim.FragStepper{Frag: &DominateeFrag{Cfg: cfg, Dom: dom}}
		}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	truth := size - 1
	for c, est := range ests {
		if est < truth/8 || est > truth*8 {
			t.Errorf("cluster %d estimate %d outside band around %d", c, est, truth)
		}
	}
}
