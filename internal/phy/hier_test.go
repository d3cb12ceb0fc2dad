package phy

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

// TestHierDefault pins the default mode: Euclidean fields resolve
// hierarchically, custom-metric fields exactly.
func TestHierDefault(t *testing.T) {
	p := model.Default(1, 4)
	pos := []geo.Point{{X: 0}, {X: 1}}
	if m := NewField(p, pos).Mode(); m != ResolverHierarchical {
		t.Errorf("NewField mode = %v, want hierarchical", m)
	}
	if m := NewFieldMetric(p, pos, geo.Manhattan).Mode(); m != ResolverExact {
		t.Errorf("custom-metric mode = %v, want exact", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetResolver(hierarchical) on a custom metric should panic")
		}
	}()
	NewFieldMetric(p, pos, geo.Manhattan).SetResolver(ResolverHierarchical)
}

// TestHierDeterminismAcrossWorkers: hierarchical resolution is bit-identical
// at every worker count, like exact mode — listeners resolve independently
// against the same binned slot.
func TestHierDeterminismAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	p := model.Default(3, 900)
	pos, txs, rxs := randomSlot(r, 900, 3, 25.0, 0.4)
	if pairs := sameChannelPairs(txs, rxs); pairs < minParallelWork {
		t.Fatalf("slot too small to exercise fan-out: %d pairs", pairs)
	}
	serial := NewField(p, pos)
	serial.SetParallelism(1)
	want := append([]Reception(nil), serial.Resolve(txs, rxs)...)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0), 8} {
		f := NewField(p, pos)
		f.SetParallelism(workers)
		for trial := 0; trial < 3; trial++ {
			sameReceptions(t, "hier parallel vs serial", f.Resolve(txs, rxs), want)
		}
	}
}

// TestHierCrowdBitIdenticalToExact: a deployment that fits inside one grid
// cell (the Crowd regime) degenerates the hierarchical scan to the exact
// transmitter-order scan — outcomes are bit-identical, not just close.
func TestHierCrowdBitIdenticalToExact(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	p := model.Default(4, 300)
	pos := make([]geo.Point, 300)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * 0.12, Y: r.Float64() * 0.12}
	}
	// Include co-located pairs to exercise the infinite-power branches.
	pos[7] = pos[3]
	pos[11] = pos[3]
	hier := NewField(p, pos)
	exact := NewField(p, pos)
	exact.SetResolver(ResolverExact)
	for trial := 0; trial < 20; trial++ {
		var txs []Tx
		var rxs []Rx
		for i := range pos {
			if r.Float64() < 0.5 {
				txs = append(txs, Tx{Node: i, Channel: r.Intn(4), Msg: i})
			} else {
				rxs = append(rxs, Rx{Node: i, Channel: r.Intn(4)})
			}
		}
		sameReceptions(t, "crowd hier vs exact",
			hier.Resolve(txs, rxs), append([]Reception(nil), exact.Resolve(txs, rxs)...))
	}
}

// TestHierTolerancePropertyRandom is the satellite property test: across
// random deployments, cell sizes and tolerances, the cell-aggregated
// resolver keeps every listener's RSSI within the configured relative error
// of the exact resolver, and never loses a decode whose exact SINR clears
// the threshold by more than the error margin.
func TestHierTolerancePropertyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		n := 100 + r.Intn(300)
		span := 2 + r.Float64()*40
		tol := 0.02 + r.Float64()*0.6
		frac := 0.25 + r.Float64()*1.5
		channels := 1 + r.Intn(3)
		p := model.Default(channels, n)
		pos := make([]geo.Point, n)
		for i := range pos {
			pos[i] = geo.Point{X: r.Float64() * span, Y: r.Float64() * span}
		}
		exact := NewField(p, pos)
		exact.SetResolver(ResolverExact)
		hier := NewField(p, pos)
		hier.SetFarFieldTolerance(tol)
		hier.SetCellSize(frac)
		var txs []Tx
		var rxs []Rx
		for i := range pos {
			if r.Float64() < 0.4 {
				txs = append(txs, Tx{Node: i, Channel: r.Intn(channels), Msg: i})
			} else {
				rxs = append(rxs, Rx{Node: i, Channel: r.Intn(channels)})
			}
		}
		want := append([]Reception(nil), exact.Resolve(txs, rxs)...)
		got := hier.Resolve(txs, rxs)
		for i := range want {
			w, g := want[i], got[i]
			if w.RSSI() > 0 && !math.IsInf(w.RSSI(), 1) {
				if rel := math.Abs(g.RSSI()-w.RSSI()) / w.RSSI(); rel > tol {
					t.Fatalf("trial %d (n=%d span=%.1f tol=%.3f frac=%.2f) listener %d: RSSI error %v > %v",
						trial, n, span, tol, frac, i, rel, tol)
				}
			}
			if w.Decoded && w.SINR >= p.Beta*(1+tol) && (!g.Decoded || g.From != w.From) {
				t.Fatalf("trial %d listener %d: confident decode lost: exact %+v hier %+v", trial, i, w, g)
			}
		}
	}
}

// TestHierJammedChannelSkipsBinning: a jammed channel in hierarchical mode
// delivers nothing and reports the exact flat power sum; other channels
// keep decoding.
func TestHierJammedChannelSkipsBinning(t *testing.T) {
	p := model.Default(2, 8)
	pos := []geo.Point{{X: 0}, {X: 0.4}, {X: 0.8}, {X: 40}, {X: 40.4}, {X: 41}}
	f := NewField(p, pos)
	f.Jam(0, true)
	txs := []Tx{
		{Node: 1, Channel: 0, Msg: "jammed"},
		{Node: 4, Channel: 1, Msg: "clear"},
	}
	rxs := []Rx{{Node: 0, Channel: 0}, {Node: 3, Channel: 1}}
	recs := f.Resolve(txs, rxs)
	if recs[0].Decoded || recs[0].From != -1 {
		t.Errorf("jammed channel decoded: %+v", recs[0])
	}
	wantPow := p.PowerAtDistance(0.4)
	if math.Abs(recs[0].Interference-wantPow) > 1e-12*wantPow {
		t.Errorf("jammed channel sensed %v, want the flat power sum %v", recs[0].Interference, wantPow)
	}
	if !recs[1].Decoded || recs[1].Msg != "clear" {
		t.Errorf("unjammed channel lost its message: %+v", recs[1])
	}
	// Unjamming restores decoding on channel 0.
	f.Jam(0, false)
	recs = f.Resolve(txs, rxs)
	if !recs[0].Decoded || recs[0].Msg != "jammed" {
		t.Errorf("unjammed channel 0 still dead: %+v", recs[0])
	}
}

// TestResolveAllocFree pins the steady-state contract: once Reserve has
// presized the scratch and the first slot has warmed the worker pool,
// Resolve allocates nothing — serially and across workers, in both modes.
func TestResolveAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	p := model.Default(4, 600)
	pos, txs, rxs := randomSlot(r, 600, 4, 12.0, 0.4)
	for _, tc := range []struct {
		name    string
		workers int
		mode    Resolver
	}{
		{"hier/serial", 1, ResolverHierarchical},
		{"hier/parallel", 0, ResolverHierarchical},
		{"exact/serial", 1, ResolverExact},
		{"exact/parallel", 0, ResolverExact},
	} {
		f := NewField(p, pos)
		f.SetResolver(tc.mode)
		f.SetParallelism(tc.workers)
		f.Reserve(len(pos), len(pos))
		f.Resolve(txs, rxs) // warm the pool and any remaining growth
		if allocs := testing.AllocsPerRun(20, func() { f.Resolve(txs, rxs) }); allocs > 0 {
			t.Errorf("%s: %v allocs per Resolve, want 0", tc.name, allocs)
		}
	}
}

// TestReserveFirstSlotAllocFree: Reserve alone (no warm-up slot) is enough
// to make even the first serial Resolve allocation-free — the engine's
// per-run arena contract. Measured with raw malloc counters because
// testing.AllocsPerRun inserts a warm-up call and would never observe the
// true first slot; the deployment spans far more cells than the near
// region so the hierarchical binning scratch is exercised, not just the
// exact kernel.
//
// The malloc counter is process-wide, so the GC, the runtime and goroutines
// left over from other tests can bump it during the measured call. Each
// mode is therefore measured on several freshly reserved fields and only
// the minimum must be 0: a real regression allocates on every attempt.
func TestReserveFirstSlotAllocFree(t *testing.T) {
	const attempts = 5
	r := rand.New(rand.NewSource(59))
	p := model.Default(3, 400)
	pos, txs, rxs := randomSlot(r, 400, 3, 60.0, 0.4)
	for _, tc := range []struct {
		name string
		mode Resolver
	}{{"hier", ResolverHierarchical}, {"exact", ResolverExact}} {
		least := uint64(math.MaxUint64)
		for a := 0; a < attempts && least > 0; a++ {
			f := NewField(p, pos)
			f.SetResolver(tc.mode)
			f.SetParallelism(1)
			f.Reserve(len(pos), len(pos))
			if tc.mode == ResolverHierarchical && f.hierState().degenerate {
				t.Fatal("setup: deployment unexpectedly degenerate")
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			f.Resolve(txs, rxs)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least > 0 {
			t.Errorf("%s: first Resolve after Reserve performed at least %d allocations on each of %d fields, want 0", tc.name, least, attempts)
		}
	}
}

// TestSetCellSizeValidation covers the new knob's error handling and that
// resizing keeps the error bound.
func TestSetCellSizeValidation(t *testing.T) {
	p := model.Default(1, 4)
	pos := []geo.Point{{X: 0}, {X: 1}}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCellSize(%v): expected panic", bad)
				}
			}()
			NewField(p, pos).SetCellSize(bad)
		}()
	}
	f := NewField(p, pos)
	f.SetCellSize(0.25)
	f.SetCellSize(2) // resize after use is allowed; grid rebuilds lazily
	txs := []Tx{{Node: 0, Channel: 0, Msg: 1}}
	rxs := []Rx{{Node: 1, Channel: 0}}
	if rec := f.Resolve(txs, rxs)[0]; !rec.Decoded {
		t.Errorf("resized field lost an uncontended decode: %+v", rec)
	}
}
