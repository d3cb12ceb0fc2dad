package sim

import (
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// This file stresses the step phase's per-slot join: with parallelStepMin
// or more awake nodes the engine fans the slot's Step calls out across
// workers and waits for every one of them before it collects the slot.
// The CI race leg runs these tests under -race.

// stressField spreads n nodes over a multi-region strip (several grid
// cells), unlike the single-cell Crowd layout.
func stressField(n, channels int) *phy.Field {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.3, Y: float64(i/64) * 0.3}
	}
	return phy.NewField(model.Default(channels, max(n, 2)), pos)
}

// stressStepper mixes every primitive: transmits, listens, single idles,
// IdleFor batches (the node leaves the awake list) and early power-downs.
type stressStepper struct {
	channels, slots, s, heard int
	listened                  bool
}

func (st *stressStepper) Step(sc *StepCtx) {
	if st.listened && sc.Prev().Decoded {
		st.heard++
	}
	st.listened = false
	if st.s == st.slots {
		sc.Emit("heard", st.heard)
		sc.Done()
		return
	}
	s := st.s
	st.s++
	switch {
	case sc.Rand.Float64() < 0.05:
		sc.Done() // early power-down mid-run
	case sc.Rand.Float64() < 0.3:
		sc.Transmit(sc.Rand.Intn(st.channels), sc.ID()*1000+s)
	case sc.Rand.Float64() < 0.2:
		sc.IdleFor(1 + sc.Rand.Intn(4))
	case sc.Rand.Float64() < 0.1:
		sc.Idle()
	default:
		sc.Listen(sc.Rand.Intn(st.channels))
		st.listened = true
	}
}

// TestBarrierStress runs the stress mix twice at several node counts,
// including one above parallelStepMin, and requires bit-identical
// transcripts and slot counts.
func TestBarrierStress(t *testing.T) {
	for _, n := range []int{1, 2, 256, parallelStepMin + 512} {
		slots := 24
		if n > 256 {
			slots = 8 // keep the race-instrumented run affordable
		}
		run := func() (uint64, int) {
			steppers := make([]Stepper, n)
			for i := range steppers {
				steppers[i] = &stressStepper{channels: 3, slots: slots}
			}
			return transcriptHash(t, stressField(n, 3), 7, steppers)
		}
		h1, s1 := run()
		if h2, s2 := run(); h2 != h1 || s2 != s1 {
			t.Errorf("n=%d: step phase not deterministic: %x/%d vs %x/%d", n, h2, s2, h1, s1)
		}
	}
}

// TestBarrierAbort: a MaxSlots abort at crowd size, with the step phase
// fanned out and a third of the nodes asleep mid-IdleFor, ends the run
// with the MaxSlots error.
func TestBarrierAbort(t *testing.T) {
	n := 2 * parallelStepMin
	e := NewEngine(stressField(n, 2), 3)
	e.MaxSlots = 12
	steppers := make([]Stepper, n)
	for i := range steppers {
		switch i % 3 {
		case 0:
			steppers[i] = ops(func(sc *StepCtx) { sc.IdleFor(1 << 20) })
		case 1:
			steppers[i] = &loop{n: 1 << 30, body: func(sc *StepCtx, s int) { sc.Transmit(0, s) }}
		default:
			steppers[i] = &loop{n: 1 << 30, body: func(sc *StepCtx, _ int) { sc.Listen(1) }}
		}
	}
	if _, err := e.Run(steppers); err == nil {
		t.Fatal("expected MaxSlots abort")
	}
}
