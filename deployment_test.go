package mcnet_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"mcnet"
)

// The SINR layer's link-gain table holds n² float64 powers, built by a
// Network's first run. tableSharingN is large enough that one table
// (8 MiB) dwarfs everything else a crowd run allocates, so a run that
// rebuilt it would show.
const tableSharingN = 1024

var tableSharingOpts = []mcnet.Option{mcnet.Channels(8), mcnet.WithTopology(mcnet.Crowd)}

// allocatedBy returns the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// skipUnderRace skips the allocation checks under the race detector: they
// need crowd runs large enough for one table to dwarf everything else the
// runs allocate, which the detector slows twentyfold, and they exercise no
// concurrency.
func skipUnderRace(t *testing.T) {
	if raceDetector {
		t.Skip("allocation check; covered by the non-race run")
	}
}

// checkTableShared fails unless the first run allocated at least one
// table and every later run less than half of one.
func checkTableShared(t *testing.T, label string, perRun []uint64) {
	t.Helper()
	table := uint64(tableSharingN * tableSharingN * 8)
	if perRun[0] < table {
		t.Errorf("%s: first run allocated %d bytes, less than the %d-byte table it builds", label, perRun[0], table)
	}
	for i, b := range perRun[1:] {
		if b >= table/2 {
			t.Errorf("%s: run %d allocated %d bytes, want < %d: the table was rebuilt", label, i+2, b, table/2)
		}
	}
}

// aggregateTwice runs two Aggregates on one Network and returns the bytes
// each allocated.
func aggregateTwice(t *testing.T, n int, opts ...mcnet.Option) []uint64 {
	t.Helper()
	nw, err := mcnet.New(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, nw.N())
	var perRun []uint64
	for range 2 {
		perRun = append(perRun, allocatedBy(func() {
			if _, err := nw.Aggregate(context.Background(), values, mcnet.Sum); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return perRun
}

// TestGainTableSharedAcrossRuns: a second Aggregate on one Network reuses
// the table the first one built.
func TestGainTableSharedAcrossRuns(t *testing.T) {
	skipUnderRace(t)
	perRun := aggregateTwice(t, tableSharingN, tableSharingOpts...)
	checkTableShared(t, "Aggregate", perRun)
}

// TestGainTableSpreadDeployment: a line spanning far more than the
// transmission range resolves through the link-gain table like a crowd —
// the first Aggregate builds it, the second reuses it. A line run's own
// allocations (~15 MB at n = 512) dwarf the 2 MiB table, so the check is
// differential: the first run allocates at least half a table more than
// the second, which a run that skipped the table or rebuilt it would not.
func TestGainTableSpreadDeployment(t *testing.T) {
	skipUnderRace(t)
	const n = 512
	perRun := aggregateTwice(t, n, mcnet.Channels(8), mcnet.WithTopology(mcnet.Line(0.5)))
	table := uint64(n * n * 8)
	if perRun[0] < perRun[1]+table/2 {
		t.Errorf("Line(0.5): runs allocated %d then %d bytes, want the first to exceed the second by at least half the %d-byte table",
			perRun[0], perRun[1], table)
	}
}

// TestGainTableSharedAcrossBatchFaults: RunBatch's fault variants of one
// seed share the seed's deployment, table included.
func TestGainTableSharedAcrossBatchFaults(t *testing.T) {
	skipUnderRace(t)
	specs := []mcnet.RunSpec{{Loss: 0.05}, {Loss: 0.1}, {Loss: 0.2}, {Loss: 0.3}}
	for i := range specs {
		specs[i].Seed = 3
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last := ms.TotalAlloc
	var perRun []uint64
	progress := func(done, total int) {
		runtime.ReadMemStats(&ms)
		perRun = append(perRun, ms.TotalAlloc-last)
		last = ms.TotalAlloc
	}
	_, err := mcnet.RunBatch(context.Background(), tableSharingN, tableSharingOpts, specs,
		mcnet.BatchOptions{Workers: 1, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	checkTableShared(t, "RunBatch", perRun)
}

// TestConcurrentAggregateOneNetwork: two Aggregate calls racing on a fresh
// Network both build-or-fetch its table and agree with a serial run (the
// race detector checks the lazy build).
func TestConcurrentAggregateOneNetwork(t *testing.T) {
	values := make([]int64, 96)
	for i := range values {
		values[i] = int64(i + 1)
	}
	run := func(nw *mcnet.Network) *mcnet.AggregateResult {
		res, err := nw.Aggregate(context.Background(), values, mcnet.Sum)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	ref, err := mcnet.New(96, mcnet.Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref)
	nw, err := mcnet.New(96, mcnet.Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	var got [2]*mcnet.AggregateResult
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(nw)
		}()
	}
	wg.Wait()
	for i, res := range got {
		if res == nil || want == nil {
			t.FailNow()
		}
		if res.Value != want.Value || res.Slots != want.Slots || res.Exact != want.Exact {
			t.Errorf("concurrent run %d: %+v, serial run %+v", i, res, want)
		}
	}
}
