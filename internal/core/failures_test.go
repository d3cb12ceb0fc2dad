package core

import (
	"context"
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// runWithCrashes runs the Sum pipeline with node i crashing at slot
// crashAt[i], through the fault layer's churn hook.
func runWithCrashes(t *testing.T, pl *Plan, pos []geo.Point, values []int64, crashAt map[int]int, seed uint64) []Result {
	t.Helper()
	e := sim.NewEngine(phy.NewField(pl.Params, pos), seed)
	spec := fault.Spec{CrashAt: crashAt}
	if err := spec.Validate(len(pos), pl.Params.Channels); err != nil {
		t.Fatal(err)
	}
	e.Faults = fault.NewInjector(spec, seed, len(pos), pl.Params.Channels, pl.Offsets.End)
	res, err := RunContext(context.Background(), e, pl, values, agg.Sum, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFailuresBeforeBuild(t *testing.T) {
	// A fifth of the nodes crash at slot 0; the rest must still build a
	// structure and aggregate their own values without deadlock.
	const n = 30
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(11))
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
	values := make([]int64, n)
	var aliveSum int64
	dead := map[int]int{}
	for i := 0; i < n; i++ {
		values[i] = int64(i + 1)
		if i%5 == 0 {
			dead[i] = pl.Offsets.Dominate
		} else {
			aliveSum += values[i]
		}
	}
	res := runWithCrashes(t, pl, pos, values, dead, 13)
	informed, exact := 0, 0
	for i, r := range res {
		if _, isDead := dead[i]; isDead {
			if r.Ok {
				t.Errorf("dead node %d reported a result", i)
			}
			continue
		}
		if r.Ok {
			informed++
			if r.Value == aliveSum {
				exact++
			}
		}
	}
	alive := n - len(dead)
	if informed < alive*9/10 {
		t.Errorf("informed %d/%d alive nodes", informed, alive)
	}
	if exact < informed {
		t.Errorf("%d/%d informed nodes missed the alive-sum %d", informed-exact, informed, aliveSum)
	}
}

func TestFailuresMidPipeline(t *testing.T) {
	// Followers dying after delivering their value must not corrupt the
	// total; a reporter dying before the tree pass loses only its channel's
	// values (the takeover rules keep the tree connected).
	const n = 24
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(17))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(p, cfg)
	// Node 3 crashes as the reporter-tree pass starts, node 9 as the
	// backbone stage starts.
	dead := map[int]int{3: pl.Offsets.Tree, 9: pl.Offsets.Backbone}
	res := runWithCrashes(t, pl, pos, values, dead, 19)
	informed := 0
	for i, r := range res {
		if _, isDead := dead[i]; isDead {
			continue
		}
		if r.Ok {
			informed++
			// The total may be short by the dead nodes' subtree values but
			// never inflated.
			if r.Value > want || r.Value < want-int64(3+1+9+1+n) {
				t.Errorf("node %d value %d implausible (want ≤ %d)", i, r.Value, want)
			}
		}
	}
	if informed < (n-2)*8/10 {
		t.Errorf("informed %d/%d survivors", informed, n-2)
	}
}
