package core

import (
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// buildStructures runs the build stages over a crowd and returns the
// per-node structures.
func buildStructures(t *testing.T, n int, channels int, seed uint64) ([]Structure, *Plan, []geo.Point) {
	t.Helper()
	p := model.Default(channels, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(int64(seed)))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	sts := make([]Structure, n)
	steppers := make([]sim.Stepper, n)
	for i := range steppers {
		f := &BuildFrag{Pl: pl}
		steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { sts[i] = f.St }}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	return sts, pl, pos
}

// builtAt runs a BuildFrag and records the slot in which stages 1–5
// completed and the slot in which the whole fragment finished.
type builtAt struct {
	f           BuildFrag
	built, done int
}

func (b *builtAt) Step(sc *sim.StepCtx) {
	fin := b.f.Feed(sc)
	if b.f.Built() && b.built < 0 {
		b.built = sc.Slot()
	}
	if fin {
		b.done = sc.Slot()
		sc.Done()
	}
}

func TestBuildStageStructureInvariants(t *testing.T) {
	const n = 32
	sts, pl, pos := buildStructures(t, n, 4, 5)
	rc := pl.Params.ClusterRadius()
	reportersPerChannel := map[[2]int]int{} // (dominator, channel) → count
	for i, st := range sts {
		// Every node is assigned a dominator within r_c.
		if st.Dom.Dominator < 0 {
			t.Fatalf("node %d has no dominator", i)
		}
		if !sts[st.Dom.Dominator].IsDominator() {
			t.Errorf("node %d assigned to non-dominator %d", i, st.Dom.Dominator)
		}
		if pos[i].Dist(pos[st.Dom.Dominator]) > rc {
			t.Errorf("node %d dominator beyond r_c", i)
		}
		// Dominators are role 0; members got a channel below their f_v.
		if st.IsDominator() {
			if st.Role != 0 || st.Channel != -1 {
				t.Errorf("dominator %d: role=%d channel=%d", i, st.Role, st.Channel)
			}
			continue
		}
		if st.Channel < 0 || st.Channel >= st.Fv {
			t.Errorf("node %d channel %d outside [0, %d)", i, st.Channel, st.Fv)
		}
		if st.IsReporter() {
			if st.Role != st.Channel+1 {
				t.Errorf("node %d: reporter role %d mismatches channel %d", i, st.Role, st.Channel)
			}
			reportersPerChannel[[2]int{st.Dom.Dominator, st.Channel}]++
		}
		// Size estimate within a constant band of the true cluster size.
		if st.Est < 1 || st.Est > 8*n {
			t.Errorf("node %d size estimate %d implausible", i, st.Est)
		}
	}
	// At most one reporter per (cluster, channel) — Lemma 15's postcondition.
	for key, count := range reportersPerChannel {
		if count != 1 {
			t.Errorf("cluster %d channel %d has %d reporters", key[0], key[1], count)
		}
	}
}

func TestBuildStageColorsAgreeWithinCluster(t *testing.T) {
	const n = 28
	sts, _, _ := buildStructures(t, n, 2, 9)
	for i, st := range sts {
		if st.Color != sts[st.Dom.Dominator].Color {
			t.Errorf("node %d color %d ≠ its dominator's %d", i, st.Color, sts[st.Dom.Dominator].Color)
		}
	}
}

func TestBuildStageBudget(t *testing.T) {
	const n = 8
	p := model.Default(2, 64)
	pos := make([]geo.Point, n)
	rnd := rand.New(rand.NewSource(3))
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{X: rnd.Float64() * 0.05, Y: rnd.Float64() * 0.05}
	}
	cfg := DefaultConfig(p)
	cfg.PhiMax = 4
	pl := NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewField(p, pos), 3)
	nodes := make([]builtAt, n)
	steppers := make([]sim.Stepper, n)
	for i := range steppers {
		nodes[i] = builtAt{f: BuildFrag{Pl: pl}, built: -1}
		steppers[i] = &nodes[i]
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if nd.built != pl.Offsets.Followers {
			t.Errorf("node %d consumed %d slots for build, plan says %d", i, nd.built, pl.Offsets.Followers)
		}
		if nd.done != pl.Offsets.Tree {
			t.Errorf("node %d finished the follower stage at %d, plan says %d", i, nd.done, pl.Offsets.Tree)
		}
	}
}

func TestInformStageDelivers(t *testing.T) {
	// Directly exercise the inform stage: a dominator with a value,
	// members without; after one TDMA block all members have it.
	const n = 10
	p := model.Default(1, 64)
	pos := make([]geo.Point, n)
	rnd := rand.New(rand.NewSource(7))
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{X: rnd.Float64() * 0.05, Y: rnd.Float64() * 0.05}
	}
	cfg := DefaultConfig(p)
	cfg.PhiMax = 4
	pl := NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewField(p, pos), 7)
	got := make([]int64, n)
	oks := make([]bool, n)
	steppers := make([]sim.Stepper, n)
	for i := range steppers {
		st := &Structure{Channel: -1, Role: -1}
		if i == 0 {
			st.Dom.IsDominator = true
			st.Role = 0
		}
		f := &informFrag{pl: pl, st: st, Value: 777, Have: i == 0}
		steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { got[i], oks[i] = f.Value, f.Have }}
	}
	slots, err := e.Run(steppers)
	if err != nil {
		t.Fatal(err)
	}
	if slots != pl.Cfg.PhiMax {
		t.Errorf("inform stage took %d slots, want PhiMax = %d", slots, pl.Cfg.PhiMax)
	}
	for i := range got {
		if !oks[i] || got[i] != 777 {
			t.Errorf("node %d: ok=%v value=%d", i, oks[i], got[i])
		}
	}
}
