package phy

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

func field(pos []geo.Point, channels int) *Field {
	return NewField(model.Default(channels, 64), pos)
}

func TestSingleTransmissionInRange(t *testing.T) {
	// RT = 1 for default params; a node at distance 0.5 must decode.
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, 1)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: "hello"}},
		[]Rx{{Node: 1, Channel: 0}},
	)
	r := recs[0]
	if !r.Decoded || r.From != 0 || r.Msg != "hello" {
		t.Fatalf("expected decode, got %+v", r)
	}
	if r.Interference != 0 {
		t.Errorf("interference = %v, want 0", r.Interference)
	}
	p := f.Params()
	if est := p.DistanceFromPower(r.SignalPower); math.Abs(est-0.5) > 1e-9 {
		t.Errorf("distance estimate = %v, want 0.5", est)
	}
}

func TestOutOfRangeNotDecoded(t *testing.T) {
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 1.2, Y: 0}}, 1) // beyond RT = 1
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 1}},
		[]Rx{{Node: 1, Channel: 0}},
	)
	if recs[0].Decoded {
		t.Fatal("decoded beyond transmission range")
	}
	if recs[0].Interference <= 0 {
		t.Error("listener should still sense the signal power")
	}
}

func TestAtExactlyRT(t *testing.T) {
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, 1)
	recs := f.Resolve([]Tx{{Node: 0, Channel: 0, Msg: 1}}, []Rx{{Node: 1, Channel: 0}})
	if !recs[0].Decoded {
		t.Fatal("at distance exactly RT the SINR equals β and should decode")
	}
}

func TestChannelIsolation(t *testing.T) {
	// Transmitter on channel 0, listener on channel 1: hears nothing at all.
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 0.1, Y: 0}}, 2)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 1}},
		[]Rx{{Node: 1, Channel: 1}},
	)
	r := recs[0]
	if r.Decoded || r.SignalPower+r.Interference != 0 {
		t.Fatalf("channel leakage: %+v", r)
	}
}

func TestCollisionBlocks(t *testing.T) {
	// Two equidistant transmitters: SINR = 1 < β = 1.5 → no decode, but the
	// listener senses both.
	f := field([]geo.Point{{X: -0.3, Y: 0}, {X: 0.3, Y: 0}, {X: 0, Y: 0}}, 1)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 1}, {Node: 1, Channel: 0, Msg: 2}},
		[]Rx{{Node: 2, Channel: 0}},
	)
	r := recs[0]
	if r.Decoded {
		t.Fatalf("symmetric collision decoded: %+v", r)
	}
	p := f.Params()
	want := 2 * p.PowerAtDistance(0.3)
	if sensed := r.SignalPower + r.Interference; math.Abs(sensed-want) > 1e-9 {
		t.Errorf("sensed power = %v, want %v", sensed, want)
	}
}

func TestCaptureEffect(t *testing.T) {
	// A near transmitter should be decoded despite a far interferer.
	f := field([]geo.Point{{X: 0.1, Y: 0}, {X: 0.9, Y: 0}, {X: 0, Y: 0}}, 1)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: "near"}, {Node: 1, Channel: 0, Msg: "far"}},
		[]Rx{{Node: 2, Channel: 0}},
	)
	r := recs[0]
	if !r.Decoded || r.From != 0 {
		t.Fatalf("capture failed: %+v", r)
	}
	if r.Interference <= 0 {
		t.Error("interference from the far transmitter should be sensed")
	}
}

func TestTransmitterHearsNothing(t *testing.T) {
	// Same node listed as both tx and rx: its own signal is excluded.
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, 1)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 1}},
		[]Rx{{Node: 0, Channel: 0}},
	)
	if recs[0].Decoded || recs[0].SignalPower+recs[0].Interference != 0 {
		t.Fatalf("transmitter heard itself: %+v", recs[0])
	}
}

func TestInvalidChannelPanics(t *testing.T) {
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}, 2)
	for _, fn := range []func(){
		func() { f.Resolve([]Tx{{Node: 0, Channel: 2, Msg: 1}}, nil) },
		func() { f.Resolve(nil, []Rx{{Node: 0, Channel: -1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid channel")
				}
			}()
			fn()
		}()
	}
}

func TestCoLocatedTransmitters(t *testing.T) {
	// Two transmitters exactly at the listener's position: infinite power
	// from both, nothing decodable, no NaN escapes.
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 0}}, 1)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 1}, {Node: 1, Channel: 0, Msg: 2}},
		[]Rx{{Node: 2, Channel: 0}},
	)
	r := recs[0]
	if r.Decoded {
		t.Fatalf("co-located collision decoded: %+v", r)
	}
	if math.IsNaN(r.Interference) || math.IsNaN(r.SignalPower) {
		t.Fatalf("NaN escaped: %+v", r)
	}
}

func TestMonotoneInterference(t *testing.T) {
	// Property: adding an interferer never turns a failed reception into a
	// success, and never increases the measured SINR.
	p := model.Default(1, 64)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pos := []geo.Point{
			{X: r.Float64(), Y: r.Float64()},           // sender
			{X: r.Float64(), Y: r.Float64()},           // listener
			{X: r.Float64() * 3, Y: r.Float64() * 3},   // interferer 1
			{X: r.Float64() * 10, Y: r.Float64() * 10}, // interferer 2
		}
		fld := NewField(p, pos)
		rx := []Rx{{Node: 1, Channel: 0}}
		base := fld.Resolve([]Tx{{Node: 0, Channel: 0, Msg: 1}}, rx)[0]
		more := fld.Resolve([]Tx{
			{Node: 0, Channel: 0, Msg: 1},
			{Node: 2, Channel: 0, Msg: 2},
			{Node: 3, Channel: 0, Msg: 3},
		}, rx)[0]
		if !base.Decoded && more.Decoded && more.From == 0 {
			return false // interference helped sender 0: impossible
		}
		sinr := func(r Reception) float64 { return r.SignalPower / (p.Noise + r.Interference) }
		if base.Decoded && more.Decoded && more.From == 0 && sinr(more) > sinr(base)+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClearReception(t *testing.T) {
	p := model.Default(1, 64)
	r := 0.05
	// Sender within r, no interference: clear.
	f := NewField(p, []geo.Point{{X: 0, Y: 0}, {X: 0.04, Y: 0}})
	rec := f.Resolve([]Tx{{Node: 0, Channel: 0, Msg: 1}}, []Rx{{Node: 1, Channel: 0}})[0]
	if !NewReach(p, r).Clear(rec) {
		t.Error("isolated close transmission should be clear")
	}
	// Sender beyond r: decoded but not clear.
	f = NewField(p, []geo.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}})
	rec = f.Resolve([]Tx{{Node: 0, Channel: 0, Msg: 1}}, []Rx{{Node: 1, Channel: 0}})[0]
	if !rec.Decoded {
		t.Fatal("setup: should decode")
	}
	if NewReach(p, r).Clear(rec) {
		t.Error("distant sender must not count as clear for small r")
	}
	// Interferer within 4r of listener: interference above threshold → not clear.
	f = NewField(p, []geo.Point{{X: 0, Y: 0}, {X: 0.04, Y: 0}, {X: 0.04 + 3*r, Y: 0}})
	rec = f.Resolve([]Tx{
		{Node: 0, Channel: 0, Msg: 1},
		{Node: 2, Channel: 0, Msg: 2},
	}, []Rx{{Node: 1, Channel: 0}})[0]
	if NewReach(p, r).Clear(rec) {
		t.Error("nearby interferer must break clearness")
	}
}

func TestClearImpliesNoNearbyTransmitter(t *testing.T) {
	// Definition 4's guarantee: if a reception is clear for radius r, then no
	// node within 4r of the receiver (other than the sender) transmitted.
	p := model.Default(1, 256)
	r := 0.04
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 3 + rnd.Intn(20)
		pos := make([]geo.Point, n)
		for i := range pos {
			pos[i] = geo.Point{X: rnd.Float64(), Y: rnd.Float64()}
		}
		fld := NewField(p, pos)
		var txs []Tx
		for i := 1; i < n; i++ {
			if rnd.Float64() < 0.3 {
				txs = append(txs, Tx{Node: i, Channel: 0, Msg: i})
			}
		}
		rec := fld.Resolve(txs, []Rx{{Node: 0, Channel: 0}})[0]
		if !NewReach(p, r).Clear(rec) {
			return true // vacuous
		}
		for _, tx := range txs {
			if tx.Node == rec.From {
				continue
			}
			if pos[0].Dist(pos[tx.Node]) <= 4*r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSenderWithin(t *testing.T) {
	p := model.Default(1, 64)
	f := NewField(p, []geo.Point{{X: 0, Y: 0}, {X: 0.3, Y: 0}})
	rec := f.Resolve([]Tx{{Node: 0, Channel: 0, Msg: 1}}, []Rx{{Node: 1, Channel: 0}})[0]
	if !NewReach(p, 0.3).Within(rec) {
		t.Error("sender at exactly r should count as within")
	}
	if NewReach(p, 0.29).Within(rec) {
		t.Error("sender beyond r should not count as within")
	}
	if NewReach(p, 1).Within(Reception{}) {
		t.Error("undecoded reception cannot locate a sender")
	}
}

func TestManyChannelsPartitionInterference(t *testing.T) {
	// 8 transmitters split over 4 channels; a listener per channel decodes
	// its nearest same-channel transmitter.
	p := model.Default(4, 64)
	var pos []geo.Point
	var txs []Tx
	for c := 0; c < 4; c++ {
		pos = append(pos, geo.Point{X: float64(c) * 10, Y: 0.2})
		txs = append(txs, Tx{Node: c, Channel: c, Msg: c})
	}
	var rxs []Rx
	for c := 0; c < 4; c++ {
		pos = append(pos, geo.Point{X: float64(c) * 10, Y: 0})
		rxs = append(rxs, Rx{Node: 4 + c, Channel: c})
	}
	f := NewField(p, pos)
	recs := f.Resolve(txs, rxs)
	for c, r := range recs {
		if !r.Decoded || r.From != c {
			t.Errorf("channel %d: %+v", c, r)
		}
	}
}

func TestJammedChannel(t *testing.T) {
	f := field([]geo.Point{{X: 0, Y: 0}, {X: 0.3, Y: 0}}, 2)
	f.Jam(0, true)
	recs := f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 1}},
		[]Rx{{Node: 1, Channel: 0}},
	)
	r := recs[0]
	if r.Decoded || r.Msg != nil || r.From != -1 {
		t.Fatalf("jammed channel decoded: %+v", r)
	}
	if r.SignalPower+r.Interference <= 0 {
		t.Error("jammed channel should still sense power")
	}
	// The other channel is unaffected.
	recs = f.Resolve(
		[]Tx{{Node: 0, Channel: 1, Msg: 2}},
		[]Rx{{Node: 1, Channel: 1}},
	)
	if !recs[0].Decoded {
		t.Error("unjammed channel should work")
	}
	// Unjam and recover.
	f.Jam(0, false)
	recs = f.Resolve(
		[]Tx{{Node: 0, Channel: 0, Msg: 3}},
		[]Rx{{Node: 1, Channel: 0}},
	)
	if !recs[0].Decoded {
		t.Error("channel should recover after unjamming")
	}
}

// TestDeterminismAcrossWorkers: a spread deployment (span ≫ R_T) resolves
// bit-identically at every worker count, run after run — listeners resolve
// independently against the same slot layout.
func TestDeterminismAcrossWorkers(t *testing.T) {
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
			sameReceptions(t, "parallel vs serial", f.Resolve(txs, rxs), want)
		}
	}
}

// TestResolveAllocFree pins the steady-state contract: once Reserve has
// presized the scratch and the first slot has warmed the worker pool,
// Resolve allocates nothing, serially and across workers.
func TestResolveAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	p := model.Default(4, 600)
	pos, txs, rxs := randomSlot(r, 600, 4, 12.0, 0.4)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		f := NewField(p, pos)
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
// per-run arena contract, link-gain table build included. Measured with raw
// malloc counters because testing.AllocsPerRun inserts a warm-up call and
// would never observe the true first slot.
//
// The malloc counter is process-wide, so the GC, the runtime and goroutines
// left over from other tests can bump it during the measured call. The
// check is therefore made on several freshly reserved fields and only the
// minimum must be 0: a real regression allocates on every attempt.
func TestReserveFirstSlotAllocFree(t *testing.T) {
	const attempts = 5
	r := rand.New(rand.NewSource(59))
	p := model.Default(3, 400)
	pos, txs, rxs := randomSlot(r, 400, 3, 60.0, 0.4)
	least := uint64(math.MaxUint64)
	for a := 0; a < attempts && least > 0; a++ {
		f := NewField(p, pos)
		f.SetParallelism(1)
		f.Reserve(len(pos), len(pos))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f.Resolve(txs, rxs)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > 0 {
		t.Errorf("first Resolve after Reserve performed at least %d allocations on each of %d fields, want 0", least, attempts)
	}
}
