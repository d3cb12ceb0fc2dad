package mcnet

import (
	"context"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"
)

// The Aggregate benchmarks time complete runs: every row runs one
// Aggregate through all nine pipeline stages to its result, and a run
// error fails the benchmark, so a row whose run broke cannot read as a
// speedup. The Crowd rows (every node inside one cluster radius,
// Δ = n-1) carry the paper's Δ/F aggregation term; the field rows carry
// the backbone and cluster-color stages a multi-cluster layout adds.
//
// PR tier (CI's bench job, compared against BENCH_baseline.json):
// BenchmarkAggregateCrowdFull (n = 1k, 4k, 16k), BenchmarkAggregateField
// (n = 1k, 4k) and BenchmarkAggregateByz (n = 4k). Nightly tier (the
// bench-large workflow, compared against BENCH_large.json):
// BenchmarkAggregateCrowdLarge (n = 65k).
//
// Run the PR-tier rows with:
//
//	go test -run '^$' -bench 'BenchmarkAggregate(CrowdFull|Field|Byz)$' -benchtime=1x -benchmem .
//
// Reported metrics beyond ns/op: ns/slot-node (ns/op over the run's
// slot·node volume, the cross-size number benchdiff prints),
// node-slots/s (its inverse) and peak-heap-bytes (sampled ~1 kHz during
// the run).

// peakSampler samples heap use during a benchmark run: heap bytes in
// objects, live or not yet swept (runtime.MemStats.HeapAlloc). It reads
// them through runtime/metrics, which does not stop the world:
// runtime.ReadMemStats does, and at the 1 ms tick its preemptions of the
// benchmarked goroutines showed up in their CPU profiles.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}
	heap atomic.Uint64
}

func startPeakSampler() *peakSampler {
	ps := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ps.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		s := newPeakSample()
		for {
			ps.sample(s)
			select {
			case <-ps.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return ps
}

func newPeakSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

func (ps *peakSampler) sample(s []metrics.Sample) {
	metrics.Read(s)
	if h := s[0].Value.Uint64(); h > ps.heap.Load() {
		ps.heap.Store(h)
	}
}

// report stops the sampler, takes one final sample, and publishes the peak.
func (ps *peakSampler) report(b *testing.B) {
	close(ps.stop)
	<-ps.done
	ps.sample(newPeakSample())
	b.ReportMetric(float64(ps.heap.Load()), "peak-heap-bytes")
}

// benchAggregate runs one complete Aggregate per iteration on an n-node,
// 8-channel network built with opts, fails on any run error, and reports
// the peak heap and the per-slot-node rates over the slots the runs took.
func benchAggregate(b *testing.B, n int, opts ...Option) {
	b.Helper()
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}
	opts = append([]Option{Channels(8)}, opts...)
	var slots float64
	ps := startPeakSampler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := New(n, opts...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := nw.Aggregate(context.Background(), values, Sum)
		if err != nil {
			b.Fatal(err)
		}
		slots += float64(res.Slots)
	}
	b.StopTimer()
	ps.report(b)
	nodeSlots := slots * float64(n)
	b.ReportMetric(nodeSlots/b.Elapsed().Seconds(), "node-slots/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodeSlots, "ns/slot-node")
}

// BenchmarkAggregateCrowdFull times complete Crowd runs at F = 8. The
// n = 1k row is the crowd-agg workload of the end-to-end benchmark.
//
// Run with: go test -run '^$' -bench 'BenchmarkAggregateCrowdFull$' -benchtime=1x .
func BenchmarkAggregateCrowdFull(b *testing.B) {
	b.Run("n=1k", func(b *testing.B) { benchAggregate(b, 1024) })
	b.Run("n=4k", func(b *testing.B) { benchAggregate(b, 4096) })
	b.Run("n=16k", func(b *testing.B) { benchAggregate(b, 16384) })
}

// BenchmarkAggregateField times complete runs on a multi-cluster uniform
// field (Uniform(12), F = 8), where backbone and cluster-color resolution
// dominate the cost. The n = 1k row is the field-agg workload of the
// end-to-end benchmark; n = 4k is the field size the paper's regime
// starts at.
//
// Run with: go test -run '^$' -bench 'BenchmarkAggregateField$' -benchtime=1x .
func BenchmarkAggregateField(b *testing.B) {
	b.Run("n=1k", func(b *testing.B) { benchAggregate(b, 1024, WithTopology(Uniform(12))) })
	b.Run("n=4k", func(b *testing.B) { benchAggregate(b, 4096, WithTopology(Uniform(12))) })
}

// BenchmarkAggregateCrowdLarge is the nightly bench-large row: one
// complete n = 65k Crowd run, past the PR tier's wall-clock budget.
// Compare against BENCH_large.json, not BENCH_baseline.json.
//
// Run with: go test -run '^$' -bench 'BenchmarkAggregateCrowdLarge' -benchtime=1x -timeout=1h .
func BenchmarkAggregateCrowdLarge(b *testing.B) {
	b.Run("n=65k", func(b *testing.B) { benchAggregate(b, 65536) })
}

// BenchmarkAggregateByz times the Byzantine fault layer on complete
// n = 4k crowd runs. "off" is the zero-valued ByzSpec: the hook must cost
// nothing, so its ns/op reads against BenchmarkAggregateCrowdFull/n=4k.
// "corrupt" and "equivocate-jam" pay the per-transmission lie on 20% of
// the nodes; "equivocate-jam" adds the decode-tracking jammer on top.
func BenchmarkAggregateByz(b *testing.B) {
	b.Run("off/n=4k", func(b *testing.B) {
		benchAggregate(b, 4096, Byzantine(0, ByzCorrupt))
	})
	b.Run("corrupt/n=4k", func(b *testing.B) {
		benchAggregate(b, 4096, Byzantine(0.2, ByzCorrupt))
	})
	b.Run("equivocate-jam/n=4k", func(b *testing.B) {
		benchAggregate(b, 4096, Byzantine(0.2, ByzEquivocate), Jamming(1, JamReactive))
	})
}
