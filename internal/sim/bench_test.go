package sim

import (
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// BenchmarkEngineSlotThroughput measures raw engine overhead: n goroutine
// nodes idling/listening through slots.
func benchEngine(b *testing.B, n int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%32) * 0.2, Y: float64(i/32) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		progs := make([]Program, n)
		for j := range progs {
			progs[j] = func(ctx *Ctx) {
				for s := 0; s < 100; s++ {
					if ctx.Rand.Float64() < 0.1 {
						ctx.Transmit(ctx.Rand.Intn(4), s)
					} else {
						ctx.Listen(ctx.Rand.Intn(4))
					}
				}
			}
		}
		if _, err := e.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

func BenchmarkEngine64Nodes100Slots(b *testing.B)  { benchEngine(b, 64) }
func BenchmarkEngine256Nodes100Slots(b *testing.B) { benchEngine(b, 256) }

// BenchmarkEngineBarrier isolates the slot-barrier cost: the same chatter
// workload as goroutine Programs, which park on the packed-word barrier
// every slot, and as Steppers, which have no barrier at all.
func benchEngineBarrier(b *testing.B, n int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.2, Y: float64(i/64) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		progs := make([]Program, n)
		for j := range progs {
			progs[j] = func(ctx *Ctx) {
				for s := 0; s < 50; s++ {
					if ctx.Rand.Float64() < 0.1 {
						ctx.Transmit(ctx.Rand.Intn(4), s)
					} else {
						ctx.Listen(ctx.Rand.Intn(4))
					}
				}
			}
		}
		if _, err := e.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

// benchChatter is the Stepper form of the barrier bench workload: the same
// draws, no goroutine or barrier involved.
type benchChatter struct {
	rounds, s int
}

func (c *benchChatter) Step(sc *StepCtx) {
	if c.s >= c.rounds {
		sc.Done()
		return
	}
	s := c.s
	c.s++
	if sc.Rand.Float64() < 0.1 {
		sc.Transmit(sc.Rand.Intn(4), s)
	} else {
		sc.Listen(sc.Rand.Intn(4))
	}
}

// benchEngineStepped drives the barrier bench workload in the goroutine-free
// stepped mode: there is no slot barrier at all, so the gap against the
// barrier sub-benches is the whole goroutine park/unpark + barrier term.
func benchEngineStepped(b *testing.B, n int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.2, Y: float64(i/64) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		steppers := make([]Stepper, n)
		arena := make([]benchChatter, n)
		for j := range steppers {
			arena[j] = benchChatter{rounds: 50}
			steppers[j] = &arena[j]
		}
		if _, err := e.RunSteppers(steppers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

func BenchmarkEngineBarrier(b *testing.B) {
	b.Run("goroutines/n=4k", func(b *testing.B) { benchEngineBarrier(b, 4096) })
	b.Run("stepped/n=4k", func(b *testing.B) { benchEngineStepped(b, 4096) })
	b.Run("stepped/n=65k", func(b *testing.B) { benchEngineStepped(b, 65536) })
}
