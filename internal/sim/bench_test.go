package sim

import (
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// benchChatter is the engine bench workload: each slot a node transmits
// with probability 0.1 and listens otherwise, on a random one of 4
// channels.
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

// benchEngine measures raw engine overhead: n chattering nodes, rounds
// slots each, laid out cols per row at 0.2 spacing.
func benchEngine(b *testing.B, n, rounds, cols int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%cols) * 0.2, Y: float64(i/cols) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		steppers := make([]Stepper, n)
		arena := make([]benchChatter, n)
		for j := range steppers {
			arena[j] = benchChatter{rounds: rounds}
			steppers[j] = &arena[j]
		}
		if _, err := e.Run(steppers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

func BenchmarkEngine64Nodes100Slots(b *testing.B)  { benchEngine(b, 64, 100, 32) }
func BenchmarkEngine256Nodes100Slots(b *testing.B) { benchEngine(b, 256, 100, 32) }

// BenchmarkEngineChatter drives the chatter workload at crowd sizes, where
// the step phase fans out across workers.
func BenchmarkEngineChatter(b *testing.B) {
	b.Run("n=4k", func(b *testing.B) { benchEngine(b, 4096, 50, 64) })
	b.Run("n=65k", func(b *testing.B) { benchEngine(b, 65536, 50, 64) })
}
