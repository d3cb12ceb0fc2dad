package phy

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

// TestIpowMatchesPow pins the property the fast paths rely on: for integral
// exponents and magnitudes whose intermediate squares stay normal, ipow is
// bit-identical to math.Pow.
func TestIpowMatchesPow(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		// Log-uniform magnitudes across ~[1e-35, 1e35] — far beyond any
		// realistic distance in transmission-range units, while keeping
		// x^n in the normal range where the identity is exact (subnormal
		// results double-round differently; distances that extreme cannot
		// arise from the geometry).
		x := math.Exp((r.Float64()*2 - 1) * 80)
		n := 1 + r.Intn(8)
		got, want := ipow(x, n), math.Pow(x, float64(n))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ipow(%v, %d) = %v, math.Pow = %v", x, n, got, want)
		}
	}
	// The cube identity used inline by the resolver's hot loop.
	for i := 0; i < 200000; i++ {
		d := math.Exp((r.Float64()*2 - 1) * 115)
		got, want := d*d*d, math.Pow(d, 3)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("d*d*d = %v, math.Pow(%v, 3) = %v", got, d, want)
		}
	}
}

// randomSlot builds a reproducible random placement and slot.
func randomSlot(r *rand.Rand, n, channels int, span, txFrac float64) ([]geo.Point, []Tx, []Rx) {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * span, Y: r.Float64() * span}
	}
	var txs []Tx
	var rxs []Rx
	for i := 0; i < n; i++ {
		if r.Float64() < txFrac {
			txs = append(txs, Tx{Node: i, Channel: r.Intn(channels), Msg: i})
		} else {
			rxs = append(rxs, Rx{Node: i, Channel: r.Intn(channels)})
		}
	}
	return pos, txs, rxs
}

// sameChannelPairs returns a slot's same-channel listener×transmitter pair
// count Σ_c tx_c·rx_c, the work estimate Resolve's fan-out decision uses.
func sameChannelPairs(txs []Tx, rxs []Rx) int {
	perChannel := map[int]int{}
	for _, tx := range txs {
		perChannel[tx.Channel]++
	}
	pairs := 0
	for _, rx := range rxs {
		pairs += perChannel[rx.Channel]
	}
	return pairs
}

func sameReceptions(t *testing.T, label string, a, b []Reception) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d receptions", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Decoded != y.Decoded || x.From != y.From || x.Msg != y.Msg ||
			math.Float64bits(x.SignalPower) != math.Float64bits(y.SignalPower) ||
			math.Float64bits(x.Interference) != math.Float64bits(y.Interference) ||
			math.Float64bits(x.SINR) != math.Float64bits(y.SINR) {
			t.Fatalf("%s: listener %d differs:\n fast %+v\n ref  %+v", label, i, x, y)
		}
	}
}

// TestFastPathMatchesGeneric verifies the Euclidean α=3 exact scan loop is
// bit-identical to the generic metric loop (which uses math.Pow through
// PowerAtDistance, exactly like the pre-optimization resolver): same decode
// decisions, same powers, bit for bit. The generic loop is the frozen
// reference for the exact mode's transcript contract.
func TestFastPathMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := model.Default(4, 256)
	for trial := 0; trial < 50; trial++ {
		pos, txs, rxs := randomSlot(r, 128, 4, 3.0, 0.3)
		fast := NewField(p, pos)
		fast.SetResolver(ResolverExact)
		ref := NewFieldMetric(p, pos, geo.Euclidean) // generic loop
		sameReceptions(t, "fast vs generic", fast.Resolve(txs, rxs), append([]Reception(nil), ref.Resolve(txs, rxs)...))
	}
	// Co-located transmitters exercise the infinite-power branches.
	pos := []geo.Point{{}, {}, {X: 0.1}, {X: 5}}
	txs := []Tx{{Node: 0, Channel: 0, Msg: 0}, {Node: 1, Channel: 0, Msg: 1}}
	rxs := []Rx{{Node: 2, Channel: 0}, {Node: 3, Channel: 0}}
	fast := NewField(p, pos)
	fast.SetResolver(ResolverExact)
	ref := NewFieldMetric(p, pos, geo.Euclidean)
	sameReceptions(t, "co-located", fast.Resolve(txs, rxs), append([]Reception(nil), ref.Resolve(txs, rxs)...))
}

// TestParallelMatchesSerial verifies worker fan-out never changes outcomes:
// the same slot resolved serially and with many workers is bit-identical.
func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := model.Default(2, 512)
	pos, txs, rxs := randomSlot(r, 512, 2, 4.0, 0.4)

	serial := NewField(p, pos)
	serial.SetParallelism(1)
	parallel := NewField(p, pos)
	parallel.SetParallelism(8)

	if pairs := sameChannelPairs(txs, rxs); pairs < minParallelWork {
		t.Fatalf("slot too small to exercise fan-out: %d pairs", pairs)
	}
	want := append([]Reception(nil), serial.Resolve(txs, rxs)...)
	for trial := 0; trial < 10; trial++ {
		sameReceptions(t, "parallel vs serial", parallel.Resolve(txs, rxs), want)
	}
}

// TestResolveReusesScratch pins the documented contract: the slice returned
// by Resolve is invalidated by the next call.
func TestResolveReusesScratch(t *testing.T) {
	p := model.Default(1, 4)
	pos := []geo.Point{{X: 0}, {X: 0.5}}
	f := NewField(p, pos)
	first := f.Resolve([]Tx{{Node: 0, Channel: 0, Msg: "a"}}, []Rx{{Node: 1, Channel: 0}})
	if !first[0].Decoded {
		t.Fatal("setup: expected decode")
	}
	second := f.Resolve(nil, []Rx{{Node: 1, Channel: 0}})
	if &first[0] != &second[0] {
		t.Error("expected Resolve to reuse its scratch buffer")
	}
	if first[0].Decoded {
		t.Error("first slice should have been overwritten by the second call")
	}
}

// farFieldPair builds an exact and an approximate resolver over the same
// spread-out placement.
func farFieldPair(t *testing.T, seed int64, n int, span float64, tol float64) (*Field, *Field, []geo.Point) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * span, Y: r.Float64() * span}
	}
	p := model.Default(2, n)
	exact := NewField(p, pos)
	exact.SetResolver(ResolverExact)
	approx := NewField(p, pos)
	approx.SetFarFieldTolerance(tol)
	return exact, approx, pos
}

// TestFarFieldWithinTolerance checks the documented error bound: total
// sensed power (RSSI) is within relative error tol of exact resolution, and
// decode outcomes agree whenever the exact SINR is not within the error
// margin of the threshold.
func TestFarFieldWithinTolerance(t *testing.T) {
	const tol = 0.25
	exact, approx, _ := farFieldPair(t, 3, 600, 40.0, tol)
	r := rand.New(rand.NewSource(9))
	beta := exact.Params().Beta
	for trial := 0; trial < 20; trial++ {
		var txs []Tx
		var rxs []Rx
		for i := 0; i < 600; i++ {
			if r.Float64() < 0.3 {
				txs = append(txs, Tx{Node: i, Channel: r.Intn(2), Msg: i})
			} else {
				rxs = append(rxs, Rx{Node: i, Channel: r.Intn(2)})
			}
		}
		want := append([]Reception(nil), exact.Resolve(txs, rxs)...)
		got := approx.Resolve(txs, rxs)
		for i := range want {
			w, g := want[i], got[i]
			if w.RSSI() > 0 {
				if rel := math.Abs(g.RSSI()-w.RSSI()) / w.RSSI(); rel > tol {
					t.Fatalf("trial %d listener %d: RSSI relative error %v > %v", trial, i, rel, tol)
				}
			}
			// Decode agreement outside the error margin around β. The
			// margin is conservative: the far-field error can shift the
			// SINR by at most a (1+tol) factor.
			exactSINR := w.SINR
			if !w.Decoded {
				continue
			}
			if exactSINR >= beta*(1+tol) && (!g.Decoded || g.From != w.From) {
				t.Fatalf("trial %d listener %d: confident decode lost: exact %+v approx %+v", trial, i, w, g)
			}
		}
	}
}

// TestFarFieldDeterminism: approximate resolution is a pure function of the
// slot — two identically configured fields agree bit for bit.
func TestFarFieldDeterminism(t *testing.T) {
	_, a, pos := farFieldPair(t, 5, 400, 30.0, 0.5)
	p := a.Params()
	b := NewField(p, pos)
	b.SetFarFieldTolerance(0.5)
	b.SetParallelism(4)
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		var txs []Tx
		var rxs []Rx
		for i := range pos {
			if r.Float64() < 0.4 {
				txs = append(txs, Tx{Node: i, Channel: r.Intn(2), Msg: i})
			} else {
				rxs = append(rxs, Rx{Node: i, Channel: r.Intn(2)})
			}
		}
		sameReceptions(t, "approx determinism", a.Resolve(txs, rxs), append([]Reception(nil), b.Resolve(txs, rxs)...))
	}
}

// TestFarFieldNeverDecodesBeyondRT: a listener whose only transmitters sit
// in aggregated far cells senses their power but decodes nothing, exactly
// like exact mode.
func TestFarFieldNeverDecodesBeyondRT(t *testing.T) {
	p := model.Default(1, 8)
	// Listener at origin; a tight clump of transmitters far beyond R_T.
	pos := []geo.Point{{X: 0, Y: 0}}
	for i := 0; i < 7; i++ {
		pos = append(pos, geo.Point{X: 30 + 0.01*float64(i), Y: 0})
	}
	exact := NewField(p, pos)
	exact.SetResolver(ResolverExact)
	approx := NewField(p, pos)
	approx.SetFarFieldTolerance(0.5)
	var txs []Tx
	for i := 1; i < 8; i++ {
		txs = append(txs, Tx{Node: i, Channel: 0, Msg: i})
	}
	rxs := []Rx{{Node: 0, Channel: 0}}
	w := exact.Resolve(txs, rxs)[0]
	g := append([]Reception(nil), approx.Resolve(txs, rxs)...)[0]
	if w.Decoded || g.Decoded {
		t.Fatalf("decode beyond R_T: exact %+v approx %+v", w, g)
	}
	if g.Interference <= 0 {
		t.Fatal("approximate mode must still sense far-field power")
	}
	if rel := math.Abs(g.Interference-w.Interference) / w.Interference; rel > 0.5 {
		t.Errorf("far-field interference off by %v > tol", rel)
	}
}

// TestFarFieldTinyToleranceIsExact: a tolerance small enough to push the
// cutoff beyond the deployment (or to +Inf, when 1+tol rounds to 1) must
// degrade to fully exact resolution — every cell near — never to a
// degenerate cutoff that aggregates the listener's own cell.
func TestFarFieldTinyToleranceIsExact(t *testing.T) {
	for _, tol := range []float64{1e-12, 1e-18, math.SmallestNonzeroFloat64} {
		exact, approx, pos := farFieldPair(t, 21, 200, 25.0, tol)
		r := rand.New(rand.NewSource(23))
		var txs []Tx
		var rxs []Rx
		for i := range pos {
			if r.Float64() < 0.3 {
				txs = append(txs, Tx{Node: i, Channel: r.Intn(2), Msg: i})
			} else {
				rxs = append(rxs, Rx{Node: i, Channel: r.Intn(2)})
			}
		}
		want := append([]Reception(nil), exact.Resolve(txs, rxs)...)
		got := approx.Resolve(txs, rxs)
		decoded := 0
		for i := range want {
			w, g := want[i], got[i]
			if w.Decoded {
				decoded++
			}
			if w.Decoded != g.Decoded || w.From != g.From {
				t.Fatalf("tol=%v listener %d: exact %+v vs approx %+v", tol, i, w, g)
			}
		}
		if decoded == 0 {
			t.Fatalf("tol=%v: degenerate slot, nothing decoded even in exact mode", tol)
		}
	}
}

// TestFarFieldValidation covers the knob's error handling.
func TestFarFieldValidation(t *testing.T) {
	p := model.Default(1, 4)
	pos := []geo.Point{{X: 0}, {X: 1}}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("negative tolerance", func() { NewField(p, pos).SetFarFieldTolerance(-0.1) })
	expectPanic("NaN tolerance", func() { NewField(p, pos).SetFarFieldTolerance(math.NaN()) })
	// Exact resolution is SetResolver(ResolverExact); zero is not a tolerance.
	expectPanic("zero tolerance", func() { NewField(p, pos).SetFarFieldTolerance(0) })
	expectPanic("custom metric", func() {
		NewFieldMetric(p, pos, geo.Manhattan).SetFarFieldTolerance(0.5)
	})
}
