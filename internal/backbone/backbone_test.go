package backbone

import (
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// greedyColors computes a proper coloring of the given points centrally
// (test fixture for the tree stage, which needs any proper coloring).
func greedyColors(pos []geo.Point, radius float64) []int {
	colors := make([]int, len(pos))
	for i := range pos {
		used := map[int]bool{}
		for j := 0; j < i; j++ {
			if pos[i].Dist(pos[j]) <= radius {
				used[colors[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[i] = c
	}
	return colors
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestRunColorProper(t *testing.T) {
	// Dominator-like sets: sparse points over a few R_{ε/2} diameters.
	for seed := uint64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		pos := topology.Uniform(rnd, 40, 3, 3)
		p := model.Default(1, 64)
		const phiMax = 24
		st := NewColorStage(p, phy.NewReach(p, p.REpsHalf()), phiMax, 0)
		e := sim.NewEngine(phy.NewField(p, pos), seed)
		out := make([]ColorOutcome, len(pos))
		steppers := make([]sim.Stepper, len(pos))
		for i := range steppers {
			f := NewColorFrag(&st)
			steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { out[i] = f.Out }}
		}
		if _, err := e.Run(steppers); err != nil {
			t.Fatal(err)
		}
		conflicts := 0
		for i := range pos {
			for j := i + 1; j < len(pos); j++ {
				if pos[i].Dist(pos[j]) <= p.REpsHalf() && out[i].Color == out[j].Color {
					conflicts++
				}
			}
		}
		if conflicts != 0 {
			t.Errorf("seed %d: %d color conflicts", seed, conflicts)
		}
		for i, o := range out {
			if o.Color < 0 || o.Color >= phiMax {
				t.Errorf("seed %d: node %d color %d out of range", seed, i, o.Color)
			}
			if o.Overflowed {
				t.Errorf("seed %d: node %d overflowed PhiMax", seed, i)
			}
		}
	}
}

func TestRunColorSingleton(t *testing.T) {
	p := model.Default(1, 64)
	e := sim.NewEngine(phy.NewField(p, []geo.Point{{X: 0}}), 1)
	st := NewColorStage(p, phy.NewReach(p, p.REpsHalf()), 8, 0)
	f := NewColorFrag(&st)
	if _, err := e.Run([]sim.Stepper{&sim.FragStepper{Frag: f}}); err != nil {
		t.Fatal(err)
	}
	out := f.Out
	if out.Color != 0 || len(out.Neighbors) != 0 || out.Forced {
		t.Errorf("singleton outcome = %+v", out)
	}
}

func TestColorSlotBudget(t *testing.T) {
	p := model.Default(1, 64)
	st := NewColorStage(p, phy.NewReach(p, p.REpsHalf()), 8, 0)
	pos := []geo.Point{{X: 0}, {X: 0.5}}
	e := sim.NewEngine(phy.NewField(p, pos), 2)
	after := make([]int, 2)
	if _, err := e.Run([]sim.Stepper{
		&sim.FragStepper{Frag: NewColorFrag(&st), Finish: func(sc *sim.StepCtx) { after[0] = sc.Slot() }},
		&sim.FragStepper{Frag: &st.Window, Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() }},
	}); err != nil {
		t.Fatal(err)
	}
	want := st.Len
	if after[0] != want || after[1] != want {
		t.Errorf("budgets %v, want %d", after, want)
	}
}

// runTree executes the inter-cluster stage over the given dominator
// positions with a centrally computed proper coloring and per-node values.
func runTree(t *testing.T, pos []geo.Point, values []int64, op agg.Op, seed uint64, hopBound int) []TreeOutcome {
	t.Helper()
	p := model.Default(1, 64)
	colors := greedyColors(pos, p.REpsHalf())
	phiMax := maxOf(colors) + 1
	st := NewTreeStage(p, phy.NewReach(p, p.REpsHalf()), DefaultTreeConfig(p, phiMax, hopBound), 0)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	out := make([]TreeOutcome, len(pos))
	steppers := make([]sim.Stepper, len(pos))
	for i := range steppers {
		f := NewTreeFrag(&st, i, colors[i], values[i], op)
		steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { out[i] = f.Out }}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTreeSingleton(t *testing.T) {
	out := runTree(t, []geo.Point{{X: 0}}, []int64{42}, agg.Sum, 1, 1)
	if !out[0].Done || out[0].Result != 42 || out[0].Root != 0 {
		t.Errorf("singleton tree outcome = %+v", out[0])
	}
}

func TestTreeLineSum(t *testing.T) {
	// Dominator line with 0.5 spacing (links well within R_{ε/2} = 0.85).
	for seed := uint64(1); seed <= 3; seed++ {
		n := 8
		pos := topology.Line(n, 0.5)
		values := make([]int64, n)
		var want int64
		for i := range values {
			values[i] = int64(i*i + 1)
			want += values[i]
		}
		out := runTree(t, pos, values, agg.Sum, seed, n)
		for i, o := range out {
			if !o.Done {
				t.Errorf("seed %d: node %d missing result", seed, i)
				continue
			}
			if o.Result != want {
				t.Errorf("seed %d: node %d result %d, want %d", seed, i, o.Result, want)
			}
			if o.Root != n-1 {
				t.Errorf("seed %d: node %d root %d, want max ID %d", seed, i, o.Root, n-1)
			}
		}
	}
}

func TestTreeGridMax(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed * 5)))
		pos := topology.PerturbedGrid(rnd, 16, 0.5, 0.05)
		values := make([]int64, 16)
		var want int64 = -1 << 40
		for i := range values {
			values[i] = int64(rnd.Intn(1000)) - 500
			if values[i] > want {
				want = values[i]
			}
		}
		out := runTree(t, pos, values, agg.Max, seed, 8)
		for i, o := range out {
			if !o.Done || o.Result != want {
				t.Errorf("seed %d node %d: %+v, want max %d", seed, i, o, want)
			}
		}
	}
}

func TestTreeParentsFormForest(t *testing.T) {
	pos := topology.Line(6, 0.5)
	values := make([]int64, 6)
	out := runTree(t, pos, values, agg.Sum, 7, 6)
	root := out[0].Root
	for i, o := range out {
		if o.Root != root {
			t.Errorf("node %d disagrees on root", i)
		}
		if i == root {
			if o.Parent != -1 || o.Depth != 0 {
				t.Errorf("root has parent %d depth %d", o.Parent, o.Depth)
			}
			continue
		}
		if o.Parent < 0 || o.Parent >= len(pos) {
			t.Errorf("node %d parent %d invalid", i, o.Parent)
			continue
		}
		if out[o.Parent].Depth != o.Depth-1 {
			t.Errorf("node %d depth %d but parent depth %d", i, o.Depth, out[o.Parent].Depth)
		}
	}
}

func TestTreeChildSetsMatchParents(t *testing.T) {
	pos := topology.Line(6, 0.5)
	values := make([]int64, 6)
	out := runTree(t, pos, values, agg.Sum, 11, 6)
	for i, o := range out {
		for _, c := range o.Children {
			if out[c].Parent != i {
				t.Errorf("node %d lists child %d whose parent is %d", i, c, out[c].Parent)
			}
		}
	}
	// Every non-root should appear in its parent's child set (needed for
	// exact sums).
	for i, o := range out {
		if i == o.Root {
			continue
		}
		found := false
		for _, c := range out[o.Parent].Children {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d missing from parent %d's children", i, o.Parent)
		}
	}
}

func TestTreeSlotBudget(t *testing.T) {
	p := model.Default(1, 64)
	st := NewTreeStage(p, phy.NewReach(p, p.REpsHalf()), DefaultTreeConfig(p, 4, 3), 0)
	pos := []geo.Point{{X: 0}, {X: 0.5}}
	e := sim.NewEngine(phy.NewField(p, pos), 2)
	after := make([]int, 2)
	if _, err := e.Run([]sim.Stepper{
		&sim.FragStepper{Frag: NewTreeFrag(&st, 0, 0, 1, agg.Sum), Finish: func(sc *sim.StepCtx) { after[0] = sc.Slot() }},
		&sim.FragStepper{Frag: &st.Window, Finish: func(sc *sim.StepCtx) { after[1] = sc.Slot() }},
	}); err != nil {
		t.Fatal(err)
	}
	if after[0] != st.Len || after[1] != st.Len {
		t.Errorf("budgets %v, want %d", after, st.Len)
	}
}

func TestTreeEmitsEvents(t *testing.T) {
	p := model.Default(1, 64)
	pos := topology.Line(4, 0.5)
	colors := greedyColors(pos, p.REpsHalf())
	st := NewTreeStage(p, phy.NewReach(p, p.REpsHalf()), DefaultTreeConfig(p, maxOf(colors)+1, 4), 0)
	e := sim.NewEngine(phy.NewField(p, pos), 3)
	steppers := make([]sim.Stepper, len(pos))
	for i := range steppers {
		steppers[i] = &sim.FragStepper{Frag: NewTreeFrag(&st, i, colors[i], 1, agg.Sum)}
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	var aggEvents, resultEvents int
	for _, ev := range e.Events() {
		switch ev.Name {
		case "backbone-agg":
			aggEvents++
		case "backbone-result":
			resultEvents++
		}
	}
	if aggEvents != 1 {
		t.Errorf("backbone-agg events = %d, want 1", aggEvents)
	}
	if resultEvents != len(pos)-1 {
		t.Errorf("backbone-result events = %d, want %d", resultEvents, len(pos)-1)
	}
}
