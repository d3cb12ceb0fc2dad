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

// TestGainTableSharedAcrossRuns: a second Aggregate on one Network reuses
// the table the first one built.
func TestGainTableSharedAcrossRuns(t *testing.T) {
	skipUnderRace(t)
	nw, err := mcnet.New(tableSharingN, tableSharingOpts...)
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
	checkTableShared(t, "Aggregate", perRun)
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
