package core

import (
	"context"
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// countingStepper wraps one node's pipeline and counts its Step calls,
// including any that land inside the followers window after the node's
// value was acknowledged.
type countingStepper struct {
	ps           *pipelineStepper
	followersEnd int

	steps    int
	ackedAt  int // slot of the Step that consumed the ack, or -1
	afterAck int // Steps in (ackedAt, followersEnd)
}

func (c *countingStepper) Step(sc *sim.StepCtx) {
	slot := sc.Slot()
	c.steps++
	if c.ackedAt >= 0 && slot < c.followersEnd {
		c.afterAck++
	}
	c.ps.Step(sc)
	if c.ackedAt < 0 && c.ps.build.fol.acked {
		c.ackedAt = slot
	}
}

// TestStepCountCrowd pins the cost of stepping, which the transcript
// goldens cannot see: on one dense cluster (Crowd, n = 1024, F = 8) a node
// is stepped only around its own radio actions and draws, so the run makes
// at most two Step calls per transmission or listen, and an acknowledged
// follower sleeps through the rest of the followers window.
func TestStepCountCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-node pipeline")
	}
	const n = 1024
	p := model.Default(8, n)
	pos := topology.Crowd(rand.New(rand.NewSource(1)), n, p.ClusterRadius())
	pl := NewPlan(p, DefaultConfig(p))
	e := sim.NewEngine(phy.NewField(p, pos), 1)
	var actions int
	e.Trace = func(_ int, txs []phy.Tx, rxs []phy.Rx, _ []phy.Reception) {
		actions += len(txs) + len(rxs)
	}
	arena := make([]pipelineStepper, n)
	counters := make([]countingStepper, n)
	steppers := make([]sim.Stepper, n)
	for i := range arena {
		arena[i] = pipelineStepper{build: BuildFrag{Pl: pl, Value: int64(i + 1)}, op: agg.Sum}
		counters[i] = countingStepper{ps: &arena[i], followersEnd: pl.Offsets.Tree, ackedAt: -1}
		steppers[i] = &counters[i]
	}
	if _, err := e.RunContext(context.Background(), steppers); err != nil {
		t.Fatal(err)
	}

	var steps, acked, woken int
	for i := range counters {
		c := &counters[i]
		steps += c.steps
		if c.ackedAt >= 0 {
			acked++
		}
		if c.afterAck > 0 {
			if woken == 0 {
				t.Errorf("node %d: %d Step calls between its ack (slot %d) and the end of the followers window (slot %d)",
					i, c.afterAck, c.ackedAt, pl.Offsets.Tree)
			}
			woken++
		}
	}
	if woken > 0 {
		t.Errorf("%d acked followers were stepped before the end of the followers window", woken)
	}
	t.Logf("%d Step calls, %d transmissions+listens (%.2f per action), %d followers acked",
		steps, actions, float64(steps)/float64(actions), acked)
	if acked == 0 {
		t.Fatal("no follower was acknowledged; the ack check saw nothing")
	}
	if steps > 2*actions {
		t.Errorf("%d Step calls for %d transmissions+listens: more than two per action", steps, actions)
	}
	var exact int64
	for i := range arena {
		exact += int64(i + 1)
	}
	var r Result
	arena[0].result(&r)
	if !r.Ok || r.Value != exact {
		t.Errorf("node 0 learned (%d, %v), want (%d, true)", r.Value, r.Ok, exact)
	}
}

// windowCounter wraps one node's pipeline and counts its Step calls in the
// slot window [from, to).
type windowCounter struct {
	ps       *pipelineStepper
	from, to int
	steps    int
}

func (c *windowCounter) Step(sc *sim.StepCtx) {
	if s := sc.Slot(); s >= c.from && s < c.to {
		c.steps++
	}
	c.ps.Step(sc)
}

// TestStepCountField pins the cost of the backbone window on the field-agg
// deployment (the facade's Uniform(12), n = 1024, F = 8, seed 1), where
// nearly every node is a dominator listening in every sub-slot but its
// own. Under the sim batch rule a dominator is stepped only around its own
// transmissions, the receptions it decodes and once per TDMA block, so the
// window's Step calls stay within transmissions + decoded receptions + one
// per dominator per block; listening slot by slot costs about one Step per
// dominator per slot.
func TestStepCountField(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-node pipeline")
	}
	const n, deg, seed = 1024, 12.0, 1
	p := model.Default(8, n)
	pl := uniformPlan(p, n, deg)
	o := pl.Offsets
	pos := topology.UniformDegree(topology.LayoutRand(seed), n, p.REps(), deg)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	var txs, decodes int
	e.Trace = func(slot int, tx []phy.Tx, _ []phy.Rx, recs []phy.Reception) {
		if slot < o.Backbone || slot >= o.Inform {
			return
		}
		txs += len(tx)
		for _, r := range recs {
			if r.Decoded {
				decodes++
			}
		}
	}
	arena := make([]pipelineStepper, n)
	counters := make([]windowCounter, n)
	steppers := make([]sim.Stepper, n)
	for i := range arena {
		arena[i] = pipelineStepper{build: BuildFrag{Pl: pl, Value: int64(i + 1)}, op: agg.Sum}
		counters[i] = windowCounter{ps: &arena[i], from: o.Backbone, to: o.Inform}
		steppers[i] = &counters[i]
	}
	if _, err := e.RunContext(context.Background(), steppers); err != nil {
		t.Fatal(err)
	}

	var steps, dominators int
	for i := range counters {
		steps += counters[i].steps
		if arena[i].build.St.IsDominator() {
			dominators++
		}
	}
	blocks := pl.Tree.Len / pl.Cfg.PhiMax
	bound := txs + decodes + dominators*blocks
	t.Logf("backbone window: %d slots, %d dominators, %d Step calls, %d transmissions, %d decodes, bound %d (%.2f Step calls per dominator per slot)",
		pl.Tree.Len, dominators, steps, txs, decodes, bound, float64(steps)/float64(dominators*pl.Tree.Len))
	if dominators == 0 || decodes == 0 {
		t.Fatalf("vacuous run: %d dominators, %d decodes in the backbone window", dominators, decodes)
	}
	if steps > bound {
		t.Errorf("%d Step calls in the backbone window: above transmissions + decodes + one per dominator per block = %d",
			steps, bound)
	}
	var r Result
	arena[0].result(&r)
	if !r.Ok || r.Value != int64(n)*(n+1)/2 {
		t.Errorf("node 0 learned (%d, %v), want (%d, true)", r.Value, r.Ok, int64(n)*(n+1)/2)
	}
}
