package mcnet

import "testing"

// zeroSizing is a custom topology that derives no sizing, so New falls
// back to the pipeline defaults for Δ̂, φ and the hop bound.
type zeroSizing struct{}

func (zeroSizing) Name() string { return "zero-sizing" }
func (zeroSizing) Layout(n int, seed uint64, g Geometry) []Point {
	return Crowd.Layout(n, seed, g)
}
func (zeroSizing) Defaults(int, Geometry) Defaults { return Defaults{} }

// TestPlanBenchSizes pins the plans of the bench deployments (n = 1024,
// F = 8, and the fault sweep's n = 128, F = 4 field, which takes the
// small-Δ̂ CSA path): the resolved sizing and the end of every stage
// window. Each window starts where the previous one ends. A changed
// protocol constant or sizing fallback shows here before it shows in the
// bench's slot count.
func TestPlanBenchSizes(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		topo                       Topology
		n, channels                int
		deltaHat, phiMax, hopBound int
		ends                       [9]int
	}{
		{"crowd", Crowd, 1024, 8, 1024, 4, 2, [9]int{840, 3613, 3669, 8149, 8429, 17933, 17997, 19373, 19377}},
		{"uniform", Uniform(12), 1024, 8, 48, 10, 28, [9]int{840, 3613, 3669, 11259, 11959, 19879, 20039, 28159, 28169}},
		{"zero-sizing", zeroSizing{}, 1024, 8, 1024, 10, 8, [9]int{840, 3613, 3669, 14869, 15569, 39329, 39489, 44009, 44019}},
		{"fault-sweep", Uniform(12), 128, 4, 48, 10, 13, [9]int{420, 2362, 2401, 7761, 8251, 15011, 15131, 19671, 19681}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(tc.n, Channels(tc.channels), WithTopology(tc.topo))
			if err != nil {
				t.Fatal(err)
			}
			pl := nw.Plan()
			if pl.DeltaHat != tc.deltaHat || pl.PhiMax != tc.phiMax || pl.HopBound != tc.hopBound {
				t.Errorf("sizing Δ̂/φ/H = %d/%d/%d, want %d/%d/%d",
					pl.DeltaHat, pl.PhiMax, pl.HopBound, tc.deltaHat, tc.phiMax, tc.hopBound)
			}
			if len(pl.Stages) != len(tc.ends) {
				t.Fatalf("%d stages, want %d", len(pl.Stages), len(tc.ends))
			}
			start := 0
			for i, s := range pl.Stages {
				if s.Start != start || s.End != tc.ends[i] {
					t.Errorf("%s window [%d, %d), want [%d, %d)", s.Name, s.Start, s.End, start, tc.ends[i])
				}
				start = tc.ends[i]
			}
			if pl.BudgetSlots != tc.ends[8] {
				t.Errorf("BudgetSlots = %d, want %d", pl.BudgetSlots, tc.ends[8])
			}
		})
	}
}
