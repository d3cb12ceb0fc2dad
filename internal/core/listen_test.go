package core

import (
	"context"
	"math"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// uniformPlan sizes the pipeline for a Uniform(deg) field of n nodes as
// the facade's Uniform topology does.
func uniformPlan(p model.Params, n int, deg float64) *Plan {
	side, _ := topology.UniformSide(n, p.REps(), deg)
	cfg := DefaultConfig(p)
	cfg.DeltaHat = int(math.Ceil(4 * deg))
	cfg.HopBound = int(math.Ceil(side*math.Sqrt2/p.REps())) + 4
	return NewPlan(p, cfg)
}

// TestListeningRule checks the sim listening rule on the two dominator
// fragments that apply it, over a multi-cluster field (the facade's
// Uniform(12) at n = 256, F = 8) and three seeds: a dominator that has
// announced its cluster color never listens again in the color stage, and
// one that has the backbone result never listens again in the backbone
// window. Either would be a listen whose reception the fragment discards.
func TestListeningRule(t *testing.T) {
	const n, deg = 256, 12.0
	p := model.Default(8, n)
	pl := uniformPlan(p, n, deg)
	o := pl.Offsets
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}

	for _, seed := range []uint64{1, 2, 3} {
		pos := topology.UniformDegree(topology.LayoutRand(seed), n, p.REps(), deg)
		e := sim.NewEngine(phy.NewField(p, pos), seed)
		// announced[i] is the slot of node i's first Final and informed[i]
		// that of its backbone-result event, math.MaxInt until they happen.
		announced, informed := make([]int, n), make([]int, n)
		for i := range announced {
			announced[i], informed[i] = math.MaxInt, math.MaxInt
		}
		// An event is emitted while its slot is stepped, before the slot is
		// resolved and traced.
		e.EventSink = func(ev sim.Event) {
			if ev.Name == backbone.EventResult {
				informed[ev.Node] = ev.Slot
			}
		}
		var finals, results, bad int
		e.Trace = func(slot int, txs []phy.Tx, rxs []phy.Rx, _ []phy.Reception) {
			var since []int
			var what string
			switch {
			case slot >= o.Color && slot < o.Announce:
				for _, tx := range txs {
					if _, ok := tx.Msg.(backbone.Final); ok && announced[tx.Node] == math.MaxInt {
						announced[tx.Node] = slot
						finals++
					}
				}
				since, what = announced, "announcing its color"
			case slot >= o.Backbone && slot < o.Inform:
				since, what = informed, "its backbone-result"
			default:
				return
			}
			for _, rx := range rxs {
				if slot >= since[rx.Node] {
					if bad++; bad <= 5 {
						t.Errorf("seed %d: dominator %d listens at slot %d, after %s (slot %d)",
							seed, rx.Node, slot, what, since[rx.Node])
					}
				}
			}
		}
		if _, err := RunContext(context.Background(), e, pl, values, agg.Sum, seed); err != nil {
			t.Fatal(err)
		}
		for _, s := range informed {
			if s != math.MaxInt {
				results++
			}
		}
		if finals == 0 || results == 0 {
			t.Fatalf("seed %d: vacuous run: %d announcing dominators, %d backbone-result events", seed, finals, results)
		}
		if bad > 5 {
			t.Errorf("seed %d: %d such listens in all", seed, bad)
		}
	}
}
