package mcnet

import (
	"context"
	"runtime"
	"testing"
)

// benchSweep is the BenchmarkScenarioSweep workload: a multi-seed fault
// grid (2 loss × 2 jam points, 4 seeds each = 16 runs) of the kind
// mcscenario executes, small enough for the CI tripwire's -benchtime=1x
// and large enough that batch-level parallelism dominates per-run noise.
var benchSweep = ScenarioSpec{
	Name:  "bench",
	N:     64,
	Loss:  []float64{0, 0.05},
	Jam:   []int{0, 1},
	Seeds: 4,
}

// BenchmarkScenarioSweep measures the batch execution layer end to end:
// the identical sweep run serially (Workers=1) and across the default
// worker pool (Workers=0 = GOMAXPROCS). Both emit byte-identical tables —
// see TestRunScenarioParallelIdentity — so the ns/op gap is pure
// orchestration speedup. The serial/parallel pair feeds the benchdiff
// tripwire, which guards both the per-run cost and the pool's scaling.
//
// The bench does not pin workers: when the committed baseline shows the
// parallel leg matching the serial one (as the pre-refactor baseline did,
// 1.33 s vs 1.35 s), the machine recording it had GOMAXPROCS=1, where
// Workers=0 resolves to a single pool worker and the two legs coincide by
// construction — the sweep's 16 runs are fully independent and scale with
// cores. The procs metric records the recording machine's core count so a
// flat serial/parallel pair is attributable at a glance; on any multi-core
// runner the parallel leg demonstrates the pool's win directly.
//
// Run with: go test -bench=BenchmarkScenarioSweep -benchtime=1x
func BenchmarkScenarioSweep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			runs := len(benchSweep.Loss) * len(benchSweep.Jam) * benchSweep.Seeds
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunScenario(context.Background(), benchSweep, BatchOptions{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
			b.ReportMetric(float64(runs*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
