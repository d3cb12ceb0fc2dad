package mcnet_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcnet"
)

// workerCounts is the satellite matrix every identity test sweeps: serial,
// two workers, and whatever the host offers.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// TestRunScenarioParallelIdentity checks the tentpole determinism
// guarantee on the scenario layer: the emitted table is byte-identical at
// every worker count.
func TestRunScenarioParallelIdentity(t *testing.T) {
	sp := mcnet.ScenarioSpec{
		Name:  "identity",
		N:     24,
		Loss:  []float64{0, 0.1},
		Jam:   []int{0, 1},
		Churn: []float64{0, 0.1},
		Seeds: 3,
	}
	var serial string
	for _, workers := range workerCounts() {
		tb, err := mcnet.RunScenario(context.Background(), sp, mcnet.BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := tb.Render() + "\n" + tb.CSV()
		if workers == 1 {
			serial = out
			continue
		}
		if out != serial {
			t.Fatalf("workers=%d table differs from serial output:\n%s\n--- vs ---\n%s", workers, out, serial)
		}
	}
}

// TestExperimentParallelIdentity checks experiment tables are byte-identical
// across worker counts; e1 exercises the plain grid sweep, f2 the fault
// sweeps with their point-list flattening, e10 the skip-on-disconnected
// fold, and f4 the Byzantine degradation sweep of the acceptance criterion:
// its table must be byte-identical at every worker count.
func TestExperimentParallelIdentity(t *testing.T) {
	for _, id := range []string{"e1", "f2", "f4", "e10"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var serial string
			for _, workers := range workerCounts() {
				tb, err := mcnet.RunExperiment(id, mcnet.ExperimentOptions{
					Seeds: 2, Quick: true, Parallel: workers,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				out := tb.CSV()
				if workers == 1 {
					serial = out
					continue
				}
				if out != serial {
					t.Fatalf("workers=%d table differs from serial output:\n%s\n--- vs ---\n%s", workers, out, serial)
				}
			}
		})
	}
}

// TestRunBatchSharedDeployment checks that specs sharing a seed share one
// deployment and still reproduce exactly what per-run construction yields.
func TestRunBatchSharedDeployment(t *testing.T) {
	specs := []mcnet.RunSpec{
		{Seed: 7, Faulted: true},
		{Seed: 7, Loss: 0.2},
		{Seed: 8, Jam: 1, JamModel: mcnet.JamRoundRobin},
		{Seed: 7, Churn: mcnet.ChurnSpec{Rate: 0.1}},
	}
	batch, err := mcnet.RunBatch(context.Background(), 20, nil, specs, mcnet.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(batch), len(specs))
	}
	for i, rs := range specs {
		opts := []mcnet.Option{
			mcnet.Seed(rs.Seed),
			mcnet.Loss(rs.Loss),
			mcnet.Jamming(rs.Jam, rs.JamModel),
			mcnet.Churn(rs.Churn),
		}
		nw, err := mcnet.New(20, opts...)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]int64, nw.N())
		for j := range values {
			values[j] = int64(j + 1)
		}
		want, err := nw.Aggregate(context.Background(), values, mcnet.Sum)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if got.Value != want.Value || got.Informed != want.Informed ||
			got.Exact != want.Exact || got.Slots != want.Slots ||
			got.AckSlots != want.AckSlots || got.AggSlots != want.AggSlots {
			t.Errorf("spec %d: batch result %+v differs from per-run construction %+v", i, got, want)
		}
		if got.Faults == nil {
			t.Errorf("spec %d: batch result missing fault report", i)
		} else if want.Faults != nil && got.Faults.Lost != want.Faults.Lost {
			t.Errorf("spec %d: lost = %d, want %d", i, got.Faults.Lost, want.Faults.Lost)
		}
	}
}

// TestRunBatchValidation covers the batch-level argument checks.
func TestRunBatchValidation(t *testing.T) {
	_, err := mcnet.RunBatch(context.Background(), 16, nil,
		[]mcnet.RunSpec{{Seed: 1}}, mcnet.BatchOptions{Workers: -1})
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("negative workers: err = %v, want workers error", err)
	}
	_, err = mcnet.RunBatch(context.Background(), 16, nil,
		[]mcnet.RunSpec{{Seed: 1, Loss: 1.5}}, mcnet.BatchOptions{})
	if err == nil || !strings.Contains(err.Error(), "loss") {
		t.Fatalf("bad loss: err = %v, want loss error", err)
	}
}

// TestScenarioAxisValidation checks the sweep axes are rejected up front
// with errors naming the offending value.
func TestScenarioAxisValidation(t *testing.T) {
	base := mcnet.ScenarioSpec{N: 16, Seeds: 1}
	cases := []struct {
		name string
		mut  func(*mcnet.ScenarioSpec)
		want string
	}{
		{"loss below range", func(sp *mcnet.ScenarioSpec) { sp.Loss = []float64{-0.1} }, "loss"},
		{"loss above range", func(sp *mcnet.ScenarioSpec) { sp.Loss = []float64{1.5} }, "loss"},
		{"negative jam", func(sp *mcnet.ScenarioSpec) { sp.Jam = []int{-1} }, "jam"},
		{"jam covers channels", func(sp *mcnet.ScenarioSpec) { sp.Jam = []int{4} }, "jam"},
		{"negative churn", func(sp *mcnet.ScenarioSpec) { sp.Churn = []float64{-0.2} }, "churn"},
		{"churn above range", func(sp *mcnet.ScenarioSpec) { sp.Churn = []float64{1.1} }, "churn"},
		{"unknown jam model", func(sp *mcnet.ScenarioSpec) { sp.JamModel = "psychic" }, "jam model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base
			tc.mut(&sp)
			_, err := mcnet.RunScenario(context.Background(), sp, mcnet.BatchOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
	// A jam count below the (overridden) channel count passes validation.
	sp := base
	sp.Channels = 8
	sp.Jam = []int{6}
	if _, err := mcnet.RunScenario(context.Background(), sp, mcnet.BatchOptions{}); err != nil {
		t.Fatalf("jam 6 of 8 channels should be valid: %v", err)
	}
}

// TestRunScenarioCancellationMidBatch checks a cancelled context aborts the
// sweep promptly with ctx.Err() — including between the seed repetitions of
// one grid point — and leaks no goroutines.
func TestRunScenarioCancellationMidBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	sp := mcnet.ScenarioSpec{
		N:     24,
		Loss:  []float64{0}, // a single grid point: cancellation must hit between seeds
		Seeds: 64,
	}
	// Serial pool: cancel after the first completed run, then require the
	// sweep to die long before all 64 repetitions finish.
	bo := mcnet.BatchOptions{
		Workers: 1,
		Progress: func(d, total int) {
			if done.Add(1) == 1 {
				cancel()
			}
		},
	}
	start := time.Now()
	_, err := mcnet.RunScenario(ctx, sp, bo)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := done.Load(); n > 3 {
		t.Fatalf("%d runs completed after cancellation, want ≤ 3", n)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines grew from %d to %d after cancelled sweep", before, now)
	}
}

// TestRunScenarioProgressTotals checks the progress callback covers every
// run exactly once.
func TestRunScenarioProgressTotals(t *testing.T) {
	var calls, lastDone, total atomic.Int64
	sp := mcnet.ScenarioSpec{N: 16, Loss: []float64{0, 0.1}, Seeds: 2}
	bo := mcnet.BatchOptions{Progress: func(done, tot int) {
		calls.Add(1)
		lastDone.Store(int64(done))
		total.Store(int64(tot))
	}}
	if _, err := mcnet.RunScenario(context.Background(), sp, bo); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 || lastDone.Load() != 4 || total.Load() != 4 {
		t.Fatalf("progress calls=%d lastDone=%d total=%d, want 4/4/4",
			calls.Load(), lastDone.Load(), total.Load())
	}
}
