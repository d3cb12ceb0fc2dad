package phy

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

// TestCubeMatchesPow pins the identity behind the resolver's one path-loss
// law: the kernels' d·d·d is bit-identical to math.Pow(d, model.Alpha),
// which PowerAtDistance computes, across every magnitude a distance can
// take.
func TestCubeMatchesPow(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		d := math.Exp((r.Float64()*2 - 1) * 115)
		got, want := d*d*d, math.Pow(d, model.Alpha)
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
			math.Float64bits(x.Interference) != math.Float64bits(y.Interference) {
			t.Fatalf("%s: listener %d differs:\n fast %+v\n ref  %+v", label, i, x, y)
		}
	}
}

// powerLawReference resolves a slot as Eq. (1) reads, with no layout and
// no table: each listener sums PowerAtDistance over its channel's
// transmitters in slot order, and the first strongest one decodes when its
// SINR reaches β. It is the frozen reference for the resolver's transcript
// contract.
func powerLawReference(p model.Params, pos []geo.Point, txs []Tx, rxs []Rx) []Reception {
	out := make([]Reception, len(rxs))
	for i, rx := range rxs {
		var total, bestPow float64
		best := -1
		for k, tx := range txs {
			if tx.Channel != rx.Channel {
				continue
			}
			pw := p.PowerAtDistance(pos[rx.Node].Dist(pos[tx.Node]))
			total += pw
			if best == -1 || pw > bestPow {
				best, bestPow = k, pw
			}
		}
		switch {
		case best == -1:
			out[i] = Reception{From: -1}
		case !math.IsInf(bestPow, 1) && bestPow/(p.Noise+(total-bestPow)) >= p.Beta:
			out[i] = Reception{Decoded: true, From: txs[best].Node, Msg: txs[best].Msg,
				SignalPower: bestPow, Interference: total - bestPow}
		default:
			out[i] = Reception{From: -1, Interference: total}
		}
	}
	return out
}

// TestFastPathMatchesGeneric verifies that both kernels — the link-gain
// table and the on-the-fly scan — are bit-identical to powerLawReference:
// same decode decisions, same powers, bit for bit.
func TestFastPathMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := model.Default(4, 256)
	check := func(label string, pos []geo.Point, txs []Tx, rxs []Rx) {
		t.Helper()
		want := powerLawReference(p, pos, txs, rxs)
		f := NewField(p, pos)
		sameReceptions(t, label+" table", f.Resolve(txs, rxs), want)
		sameReceptions(t, label+" on the fly", onTheFly(f, txs, rxs), want)
	}
	for trial := 0; trial < 50; trial++ {
		pos, txs, rxs := randomSlot(r, 128, 4, 3.0, 0.3)
		check("random slot", pos, txs, rxs)
	}
	// Co-located transmitters exercise the infinite-power branches.
	pos := []geo.Point{{}, {}, {X: 0.1}, {X: 5}}
	txs := []Tx{{Node: 0, Channel: 0, Msg: 0}, {Node: 1, Channel: 0, Msg: 1}}
	rxs := []Rx{{Node: 2, Channel: 0}, {Node: 3, Channel: 0}}
	check("co-located", pos, txs, rxs)
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
