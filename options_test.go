package mcnet

import (
	"math"
	"testing"
)

func testGeometry(t *testing.T) Geometry {
	t.Helper()
	nw, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	return nw.Geometry()
}

// TestTopologyDefaults pins the per-topology sizing derivations the facade
// replaces hand-tuned example constants with.
func TestTopologyDefaults(t *testing.T) {
	g := testGeometry(t)

	if d := Crowd.Defaults(48, g); d != (Defaults{DeltaHat: 48, PhiMax: 4, HopBound: 2}) {
		t.Errorf("Crowd defaults = %+v", d)
	}
	if d := Corridor(6).Defaults(48, g); d != (Defaults{DeltaHat: 24, PhiMax: 24, HopBound: 24}) {
		t.Errorf("Corridor(6) defaults = %+v", d)
	}
	if d := Uniform(12).Defaults(128, g); d.DeltaHat != 48 || d.HopBound < 6 {
		t.Errorf("Uniform(12) defaults = %+v, want DeltaHat 48 and a diameter-scaled HopBound", d)
	}
	// DeltaHat may never exceed n.
	if d := Uniform(12).Defaults(16, g); d.DeltaHat > 16 {
		t.Errorf("Uniform defaults DeltaHat = %d > n = 16", d.DeltaHat)
	}
	// Line and Ring scale HopBound with length.
	short := Line(0.5).Defaults(16, g)
	long := Line(0.5).Defaults(256, g)
	if long.HopBound <= short.HopBound {
		t.Errorf("Line HopBound did not grow with n: %d vs %d", short.HopBound, long.HopBound)
	}

	// Custom positions measure the induced graph: a 4-node line with steps
	// of 0.6·R_ε links only adjacent nodes — max degree 2, diameter 3.
	step := 0.6 * g.CommRadius
	pts := []Point{{0, 0}, {step, 0}, {2 * step, 0}, {3 * step, 0}}
	d := Positions(pts).Defaults(len(pts), g)
	if d.DeltaHat != 3 {
		t.Errorf("Positions DeltaHat = %d, want 3 (max degree 2 + 1)", d.DeltaHat)
	}
	if d.HopBound < 3 {
		t.Errorf("Positions HopBound = %d, want ≥ diameter 3", d.HopBound)
	}
}

// TestNewDerivesDefaults: the plan reflects topology-derived sizing.
func TestNewDerivesDefaults(t *testing.T) {
	nw, err := New(48, WithTopology(Crowd))
	if err != nil {
		t.Fatal(err)
	}
	pi := nw.Plan()
	if pi.DeltaHat != 48 || pi.PhiMax != 4 || pi.HopBound != 2 {
		t.Errorf("Crowd plan = %+v, want DeltaHat 48, PhiMax 4, HopBound 2", pi)
	}
	if pi.BuildSlots <= 0 || pi.BudgetSlots <= pi.BuildSlots {
		t.Errorf("plan budgets = %+v, want 0 < build < total", pi)
	}
}

// TestLayoutDeterminism: equal options yield identical layouts; different
// seeds yield different ones.
func TestLayoutDeterminism(t *testing.T) {
	a, err := New(32, Seed(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(32, Seed(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(32, Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, pc := a.Positions(), b.Positions(), c.Positions()
	same, diff := true, false
	for i := range pa {
		if pa[i] != pb[i] {
			same = false
		}
		if pa[i] != pc[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different layouts")
	}
	if !diff {
		t.Error("different seeds produced identical layouts")
	}
}

// TestTopologyLayouts: every built-in produces a usable layout; shaped
// topologies may adjust n.
func TestTopologyLayouts(t *testing.T) {
	g := testGeometry(t)
	cases := []struct {
		topo Topology
		n    int
		want int
	}{
		{Crowd, 32, 32},
		{Uniform(12), 32, 32},
		{Grid, 32, 32},
		{Line(0.5), 32, 32},
		{Chain, 16, 16},
		{Corridor(4), 32, 32},
		{Ring(0.5), 32, 32},
		{Hotspot(3, 8, 4, 0.05), 32, 24},
	}
	for _, tc := range cases {
		pts := tc.topo.Layout(tc.n, 1, g)
		if len(pts) != tc.want {
			t.Errorf("%s: %d points, want %d", tc.topo.Name(), len(pts), tc.want)
		}
		for _, p := range pts {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				t.Errorf("%s: non-finite point %+v", tc.topo.Name(), p)
				break
			}
		}
		d := tc.topo.Defaults(tc.want, g)
		if tc.topo.Name() != "positions" {
			if d.DeltaHat < 1 || d.PhiMax < 1 || d.HopBound < 1 {
				t.Errorf("%s: degenerate defaults %+v", tc.topo.Name(), d)
			}
		}
	}
}

// TestHotspotAdjustsN: New adopts the topology's intrinsic node count.
func TestHotspotAdjustsN(t *testing.T) {
	nw, err := New(100, WithTopology(Hotspot(2, 8, 4, 0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 16 {
		t.Errorf("N = %d, want 16 (2 clusters × 8)", nw.N())
	}
}

// TestStats: the crowd layout induces a connected clique-like graph.
func TestStats(t *testing.T) {
	nw, err := New(24, WithTopology(Crowd), Seed(6))
	if err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if !st.Connected {
		t.Error("crowd graph disconnected")
	}
	if st.MaxDegree != 23 {
		t.Errorf("MaxDegree = %d, want 23 (crowd is a clique)", st.MaxDegree)
	}
	if st.Diameter != 1 {
		t.Errorf("Diameter = %d, want 1", st.Diameter)
	}
}
