package coloring

import (
	"context"
	"math/rand"
	"testing"

	"mcnet/internal/core"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

func runColoring(t *testing.T, pos []geo.Point, p model.Params, ccfg core.Config, seed uint64) ([]Result, *core.Plan) {
	t.Helper()
	pl := core.NewPlan(p, ccfg)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	res, err := RunContext(context.Background(), e, pl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res, pl
}

func TestSingleClusterProperColoring(t *testing.T) {
	// Dense single cluster: all nodes mutually adjacent in G, so all colors
	// must be distinct.
	const n = 36
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = n
	res, _ := runColoring(t, pos, p, cfg, 5)
	conflicts, uncolored, palette := Validate(pos, p.REps(), res)
	if conflicts != 0 {
		t.Errorf("%d color conflicts", conflicts)
	}
	if uncolored != 0 {
		t.Errorf("%d uncolored nodes", uncolored)
	}
	if palette > 0 && palette != n {
		// All-mutually-adjacent: palette must equal n when everyone is
		// colored.
		t.Errorf("palette = %d, want %d", palette, n)
	}
}

func TestPaletteLinearInDelta(t *testing.T) {
	// The paper claims O(Δ) colors: the largest color index should be
	// O(cluster size · φ).
	const n = 30
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(3))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = n
	res, pl := runColoring(t, pos, p, cfg, 7)
	maxColor := 0
	for _, r := range res {
		if r.Color > maxColor {
			maxColor = r.Color
		}
	}
	bound := (n + 2) * pl.Cfg.PhiMax
	if maxColor > bound {
		t.Errorf("max color %d exceeds O(Δ·φ) bound %d", maxColor, bound)
	}
}

func TestSparseFieldColoring(t *testing.T) {
	if testing.Short() {
		t.Skip("sparse coloring integration is slow")
	}
	const n = 70
	p := model.Default(4, 128)
	rnd := rand.New(rand.NewSource(9))
	pos := topology.UniformDegree(rnd, n, p.REps(), 12)
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = 32
	cfg.PhiMax = 24
	cfg.HopBound = 12
	res, _ := runColoring(t, pos, p, cfg, 11)
	conflicts, uncolored, _ := Validate(pos, p.REps(), res)
	if conflicts != 0 {
		t.Errorf("%d conflicts on sparse field", conflicts)
	}
	if uncolored > n/20 {
		t.Errorf("%d/%d uncolored", uncolored, n)
	}
}

func TestValidateCounts(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.1}, {X: 5}}
	res := []Result{{Color: 3}, {Color: 3}, {Color: -1}}
	conflicts, uncolored, palette := Validate(pos, 1, res)
	if conflicts != 1 || uncolored != 1 || palette != 1 {
		t.Errorf("got (%d, %d, %d), want (1, 1, 1)", conflicts, uncolored, palette)
	}
}

func TestValidateAllUncolored(t *testing.T) {
	// Every node uncolored: no conflicts can exist and the palette is empty.
	pos := []geo.Point{{X: 0}, {X: 0.1}, {X: 0.2}}
	res := []Result{{Color: -1}, {Color: -1}, {Color: -1}}
	conflicts, uncolored, palette := Validate(pos, 1, res)
	if conflicts != 0 || uncolored != 3 || palette != 0 {
		t.Errorf("got (%d, %d, %d), want (0, 3, 0)", conflicts, uncolored, palette)
	}
}

func TestValidateBoundaryRadius(t *testing.T) {
	// A shared color counts as a conflict exactly when the pair is within
	// the radius: at distance 1.0 it conflicts (edges are ≤ radius), just
	// past it does not.
	res := []Result{{Color: 2}, {Color: 2}}
	at := func(d float64) int {
		conflicts, _, _ := Validate([]geo.Point{{X: 0}, {X: d}}, 1, res)
		return conflicts
	}
	if got := at(1.0); got != 1 {
		t.Errorf("distance 1.0: %d conflicts, want 1", got)
	}
	if got := at(1.0 + 1e-9); got != 0 {
		t.Errorf("distance just past radius: %d conflicts, want 0", got)
	}
}

func TestValidatePaletteWithGaps(t *testing.T) {
	// Palette counts distinct colors in use, not max+1: gaps and repeats
	// must not inflate it.
	pos := []geo.Point{{X: 0}, {X: 3}, {X: 6}, {X: 9}}
	res := []Result{{Color: 0}, {Color: 7}, {Color: 100}, {Color: 7}}
	conflicts, uncolored, palette := Validate(pos, 1, res)
	if conflicts != 0 || uncolored != 0 || palette != 3 {
		t.Errorf("got (%d, %d, %d), want (0, 0, 3)", conflicts, uncolored, palette)
	}
}

func TestColorOfClampsNegativeClusterColor(t *testing.T) {
	// A node that never learned its cluster color (ClusterColor -1, e.g.
	// structure construction failed for it) must still map to a valid
	// non-negative color rather than an off-palette negative one.
	p := model.Default(2, 16)
	cfg := core.DefaultConfig(p)
	cfg.PhiMax = 5
	pl := core.NewPlan(p, cfg)
	r := Result{Index: 3, ClusterColor: -1}
	colorOf(&r, pl)
	if r.Color != 3*5 {
		t.Errorf("Color = %d, want Index·φ = %d", r.Color, 3*5)
	}
	r = Result{Index: 2, ClusterColor: 7} // wraps mod φ
	colorOf(&r, pl)
	if r.Color != 2*5+2 {
		t.Errorf("Color = %d, want %d", r.Color, 2*5+2)
	}
}

func TestDominatorIndexPastTotal(t *testing.T) {
	// In any cluster, the dominator's index must not collide with member
	// indices (it takes one past the total).
	const n = 20
	p := model.Default(2, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(13))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{X: rnd.Float64() * rc / 2, Y: rnd.Float64() * rc / 2}
	}
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = n
	res, _ := runColoring(t, pos, p, cfg, 17)
	for i, r := range res {
		if !r.IsDominator || r.Index < 0 {
			continue
		}
		for j, q := range res {
			if j != i && q.Index == r.Index && q.ClusterColor == r.ClusterColor && q.Color >= 0 {
				t.Errorf("dominator %d shares index %d with node %d", i, r.Index, j)
			}
		}
	}
}
