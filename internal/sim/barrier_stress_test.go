package sim

import (
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// This file stresses the slot barrier (barrier.go). The CI race leg runs it
// at -cpu 1,2,8 so the packed-word arrival path — slot completion,
// termination arrivals, idle re-entry, abort — is race-proven at several
// schedulings.

// stressField spreads n nodes over a multi-region strip (several grid
// cells), unlike the single-cell Crowd layout.
func stressField(n, channels int) *phy.Field {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.3, Y: float64(i/64) * 0.3}
	}
	return phy.NewField(model.Default(channels, max(n, 2)), pos)
}

// stressPrograms mixes every primitive the barrier mediates: transmits,
// listens, single idles, batched IdleFor (leaves the barrier), and early
// returns (termination arrivals through the deferred cleanup path).
func stressPrograms(n, channels, slots int) []Program {
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = func(ctx *Ctx) {
			heard := 0
			for s := 0; s < slots; s++ {
				switch {
				case ctx.Rand.Float64() < 0.05:
					return // early termination mid-run
				case ctx.Rand.Float64() < 0.3:
					ctx.Transmit(ctx.Rand.Intn(channels), ctx.ID()*1000+s)
				case ctx.Rand.Float64() < 0.2:
					ctx.IdleFor(1 + ctx.Rand.Intn(4))
				case ctx.Rand.Float64() < 0.1:
					ctx.Idle()
				default:
					if ctx.Listen(ctx.Rand.Intn(channels)).Decoded {
						heard++
					}
				}
			}
			ctx.Emit("heard", heard)
		}
	}
	return progs
}

// TestBarrierStress runs the stress mix twice at several node counts and
// requires bit-identical transcripts and slot counts. Run it with -race
// -cpu 1,2,8 (the CI race leg does) to prove the arrival path at
// GOMAXPROCS 1, 2 and 8.
func TestBarrierStress(t *testing.T) {
	for _, n := range []int{1, 2, 256, 4096} {
		slots := 24
		if n >= 4096 {
			slots = 8 // keep the race-instrumented run affordable
		}
		run := func() (uint64, int) {
			return engineTranscriptHash(t, NewEngine(stressField(n, 3), 7), stressPrograms(n, 3, slots))
		}
		h1, s1 := run()
		if h2, s2 := run(); h2 != h1 || s2 != s1 {
			t.Errorf("n=%d: barrier not deterministic: %x/%d vs %x/%d", n, h2, s2, h1, s1)
		}
	}
}

// TestBarrierAbort: a MaxSlots abort at crowd size frees every parked node
// — including those mid-IdleFor — and the stale termination arrivals that
// follow must not wedge or wake a dead run.
func TestBarrierAbort(t *testing.T) {
	const n = 4096
	e := NewEngine(stressField(n, 2), 3)
	e.MaxSlots = 12
	progs := make([]Program, n)
	for i := range progs {
		switch i % 3 {
		case 0:
			progs[i] = func(ctx *Ctx) { ctx.IdleFor(1 << 20) }
		case 1:
			progs[i] = func(ctx *Ctx) {
				for s := 0; ; s++ {
					ctx.Transmit(0, s)
				}
			}
		default:
			progs[i] = func(ctx *Ctx) {
				for {
					ctx.Listen(1)
				}
			}
		}
	}
	if _, err := e.Run(progs); err == nil {
		t.Fatal("expected MaxSlots abort")
	}
}
