package mcnet

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkAggregateCrowd is the slot-hot-path trajectory benchmark: the
// paper's motivating Crowd workload (every node inside one cluster radius,
// Δ = n-1) run through the full Aggregate pipeline. Each iteration simulates
// exactly benchCrowdSlots slots — runs that would finish later are cut off by
// MaxSlots — so ns/op measures per-slot engine + SINR-resolution cost and
// stays comparable across sizes and revisions.
//
// Run with: go test -bench=BenchmarkAggregateCrowd -benchtime=1x
//
// Sizes up to 65k run the full benchCrowdSlots budget on the PR gate; the
// large sizes (262k, 1M — the nightly bench-large lane, too slow for a PR)
// use reduced slot budgets so one iteration stays in wall-clock budget
// while ns/op and the per-slot metrics remain comparable per slot.
//
// Reported metrics beyond ns/op: ns/slot-node (ns/op normalized by the
// simulated slot·node volume — the cross-size comparable number benchdiff
// prints), node-slots/s (its inverse), peak-heap-bytes and peak-goroutines
// (sampled ~1 kHz during the run; execution modes differ in exactly these).
const benchCrowdSlots = 256

// peakSampler samples heap use and goroutine count during a benchmark run.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}

	heap       atomic.Uint64
	goroutines atomic.Int64
}

func startPeakSampler() *peakSampler {
	ps := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ps.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			ps.sample(&ms)
			select {
			case <-ps.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return ps
}

func (ps *peakSampler) sample(ms *runtime.MemStats) {
	runtime.ReadMemStats(ms)
	if h := ms.HeapAlloc; h > ps.heap.Load() {
		ps.heap.Store(h)
	}
	if g := int64(runtime.NumGoroutine()); g > ps.goroutines.Load() {
		ps.goroutines.Store(g)
	}
}

// report stops the sampler, takes one final sample, and publishes the peaks.
func (ps *peakSampler) report(b *testing.B) {
	close(ps.stop)
	<-ps.done
	var ms runtime.MemStats
	ps.sample(&ms)
	b.ReportMetric(float64(ps.heap.Load()), "peak-heap-bytes")
	b.ReportMetric(float64(ps.goroutines.Load()), "peak-goroutines")
}

func benchAggregateCrowdSlots(b *testing.B, n, slots int, extra ...Option) {
	b.Helper()
	benchAggregate(b, n, append([]Option{MaxSlots(slots)}, extra...)...)
}

// benchAggregate runs one Aggregate per iteration on an n-node, 8-channel
// network built with opts, and reports the peaks and the per-slot-node
// rates over the slots simulated: a run cut off by MaxSlots counts its
// budget, a complete run its Slots.
func benchAggregate(b *testing.B, n int, opts ...Option) {
	b.Helper()
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}
	opts = append([]Option{Channels(8)}, opts...)
	var simulated float64
	ps := startPeakSampler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := New(n, opts...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := nw.Aggregate(context.Background(), values, Sum)
		switch {
		case err == nil:
			simulated += float64(res.Slots)
		case strings.Contains(err.Error(), "MaxSlots"):
			simulated += float64(nw.maxSlots)
		default:
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ps.report(b)
	nodeSlots := simulated * float64(n)
	b.ReportMetric(nodeSlots/b.Elapsed().Seconds(), "node-slots/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodeSlots, "ns/slot-node")
}

func benchAggregateCrowd(b *testing.B, n int) {
	benchAggregateCrowdSlots(b, n, benchCrowdSlots)
}

func BenchmarkAggregateCrowd(b *testing.B) {
	b.Run("n=4k", func(b *testing.B) { benchAggregateCrowd(b, 4096) })
	b.Run("n=16k", func(b *testing.B) { benchAggregateCrowd(b, 16384) })
	b.Run("n=65k", func(b *testing.B) { benchAggregateCrowd(b, 65536) })
}

// BenchmarkAggregateCrowdFull is the PR-tier row that sees a whole crowd
// run: one complete Aggregate, all nine stages, on the crowd-agg workload
// of the end-to-end benchmark (Crowd, n = 1024, F = 8). At n = 1024 a
// 256-slot prefix ends inside the dominate stage, so this size runs to the
// end.
//
// Run with: go test -bench='BenchmarkAggregateCrowdFull$' -benchtime=1x
func BenchmarkAggregateCrowdFull(b *testing.B) {
	benchAggregate(b, 1024)
}

// BenchmarkAggregateField is the PR-tier tripwire for everything after the
// dominate stage, which the crowd rows' 256-slot prefix never reaches: one
// complete Aggregate on a multi-cluster uniform field (Uniform(12),
// n = 1024, F = 8), the field-agg workload of the end-to-end benchmark.
// Backbone and cluster-color resolution dominate its cost.
//
// Run with: go test -bench='BenchmarkAggregateField$' -benchtime=1x
func BenchmarkAggregateField(b *testing.B) {
	benchAggregate(b, 1024, WithTopology(Uniform(12)))
}

// BenchmarkAggregateCrowdLarge is the nightly bench-large lane: crowd sizes
// past the PR gate's wall-clock budget, with slot budgets scaled down so a
// single iteration completes in minutes. Compare against BENCH_large.json,
// not BENCH_baseline.json.
//
// Run with: go test -bench=BenchmarkAggregateCrowdLarge -benchtime=1x -timeout=4h
func BenchmarkAggregateCrowdLarge(b *testing.B) {
	b.Run("n=262k", func(b *testing.B) { benchAggregateCrowdSlots(b, 262144, 64) })
	b.Run("n=1M", func(b *testing.B) { benchAggregateCrowdSlots(b, 1048576, 16) })
}

// BenchmarkAggregateByz measures the Byzantine fault layer on the n=16k
// crowd. "off" is the zero-valued ByzSpec — the hook must cost nothing, so
// its ns/op reads directly against BenchmarkAggregateCrowd/n=16k as the
// no-adversary overhead (target: zero). "corrupt" and "equivocate" pay the
// per-transmission lie on 20% of nodes; "reactive" adds the decode-tracking
// jammer on top.
func BenchmarkAggregateByz(b *testing.B) {
	b.Run("off/n=16k", func(b *testing.B) {
		benchAggregateCrowdSlots(b, 16384, benchCrowdSlots, Byzantine(0, ByzCorrupt))
	})
	b.Run("corrupt/n=16k", func(b *testing.B) {
		benchAggregateCrowdSlots(b, 16384, benchCrowdSlots, Byzantine(0.2, ByzCorrupt))
	})
	b.Run("equivocate-jam/n=16k", func(b *testing.B) {
		benchAggregateCrowdSlots(b, 16384, benchCrowdSlots,
			Byzantine(0.2, ByzEquivocate), Jamming(1, JamReactive))
	})
}
