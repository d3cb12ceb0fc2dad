package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
)

// checkTableSlot resolves one slot through the link-gain table and compares
// every Reception, float bits included, with the on-the-fly kernel over the
// same slot layout.
func checkTableSlot(t *testing.T, label string, f *Field, txs []Tx, rxs []Rx) {
	t.Helper()
	got := f.Resolve(txs, rxs)
	if f.gain == nil {
		t.Fatalf("%s: slot did not resolve through the link-gain table", label)
	}
	sameReceptions(t, label, got, onTheFly(f, txs, rxs))
}

// onTheFly resolves the slot f last laid out (f.Resolve(txs, rxs)) with the
// on-the-fly kernel, resolveOneExact plus the jam fold, into a fresh slice.
func onTheFly(f *Field, txs []Tx, rxs []Rx) []Reception {
	out := make([]Reception, len(rxs))
	for i, rx := range rxs {
		f.resolveOneExact(&out[i], rx, txs)
		if f.jammed[rx.Channel] {
			jamFold(&out[i])
		}
	}
	return out
}

// colocate moves a few nodes onto other nodes' positions: single co-located
// pairs and, from n = 4, a triple, so listeners meet one and several
// infinite-power senders.
func colocate(pos []geo.Point) {
	n := len(pos)
	pos[1] = pos[0]
	if n >= 4 {
		pos[3], pos[2] = pos[n-1], pos[n-1]
	}
	if n >= 64 {
		pos[10] = pos[11]
		pos[20], pos[21], pos[22] = pos[23], pos[23], pos[23]
	}
}

// TestTableMatchesOnTheFly is the table kernel's bit-identity property:
// every Reception it produces equals resolveOneExact's, float bits
// included, over random slots at n ∈ {2, 64, 1024} and F ∈ {1, 8} with
// co-located nodes, jammed and empty channels, all-transmit and
// all-but-one-transmit slots, at the default worker count (which fans the
// large slots out), and over the slots that test the kernel's integer max
// at its edges (tableEdgeSlots).
func TestTableMatchesOnTheFly(t *testing.T) {
	tableEdgeSlots(t)
	r := rand.New(rand.NewSource(71))
	for _, n := range []int{2, 64, 1024} {
		span := math.Max(1, math.Sqrt(float64(n)*math.Pi/12))
		pos := make([]geo.Point, n)
		for i := range pos {
			pos[i] = geo.Point{X: r.Float64() * span, Y: r.Float64() * span}
		}
		colocate(pos)
		for _, channels := range []int{1, 8} {
			f := NewField(model.Default(channels, n), pos)
			for trial := 0; trial < 12; trial++ {
				label := fmt.Sprintf("n=%d F=%d trial %d", n, channels, trial)
				for c := 0; c < channels; c++ {
					f.Jam(c, trial%3 == 2 && r.Intn(2) == 0)
				}
				// Transmitters use at most half the channels, so F = 8
				// leaves listeners on empty channels.
				txChannels := max(1, channels/2)
				txFrac := []float64{0.05, 0.2, 0.5}[trial%3]
				var txs []Tx
				var rxs []Rx
				for i := 0; i < n; i++ {
					if r.Float64() < txFrac {
						txs = append(txs, Tx{Node: i, Channel: r.Intn(txChannels), Msg: i})
					} else {
						rxs = append(rxs, Rx{Node: i, Channel: r.Intn(channels)})
					}
				}
				checkTableSlot(t, label, f, txs, rxs)
			}
			// Every node transmits: no listener, nothing to resolve.
			all := make([]Tx, n)
			for i := range all {
				all[i] = Tx{Node: i, Msg: i}
			}
			checkTableSlot(t, fmt.Sprintf("n=%d F=%d all transmit", n, channels), f, all, nil)
			// Everyone but a co-located node transmits on one channel: its
			// twin's power is infinite.
			for _, listener := range []int{0, 1, n - 1} {
				var txs []Tx
				for i := 0; i < n; i++ {
					if i != listener {
						txs = append(txs, Tx{Node: i, Msg: i})
					}
				}
				label := fmt.Sprintf("n=%d F=%d all but node %d transmit", n, channels, listener)
				checkTableSlot(t, label, f, txs, []Rx{{Node: listener}})
			}
		}
	}
}

// tableEdgeSlots checks the table kernel on exact ties — listeners
// equidistant from two or four same-channel transmitters, whose powers are
// bit-equal, including a noiseless β = 1 slot where a tie decodes and the
// first transmitter in slot order must win — on powers that are subnormal
// or underflow to 0, and on a listener whose SINR sits exactly on β next
// to one an ulp farther out; and it checks that a deployment with a −0
// power, whose bit pattern sorts above every positive one, gets no table.
func tableEdgeSlots(t *testing.T) {
	t.Helper()
	// Ties: four transmitters on a circle of radius 3 around listener 0
	// and two at distance 2 either side of listener 5, listed out of node
	// order so that slot order and node order differ.
	tiePos := []geo.Point{{}, {X: 3}, {X: -3}, {Y: 3}, {Y: -3}, {X: 10}, {X: 8}, {X: 12}}
	tieTxs := []Tx{{Node: 4, Msg: 4}, {Node: 2, Msg: 2}, {Node: 3, Msg: 3}, {Node: 1, Msg: 1}}
	checkTableSlot(t, "four-way tie", NewField(model.Default(1, 8), tiePos), tieTxs, []Rx{{Node: 0}, {Node: 5}})
	noiseless := model.Default(1, 8)
	noiseless.Noise, noiseless.Beta = 0, 1
	pairTxs := []Tx{{Node: 7, Msg: 7}, {Node: 6, Msg: 6}}
	f := NewField(noiseless, tiePos)
	checkTableSlot(t, "noiseless two-way tie", f, pairTxs, []Rx{{Node: 5}, {Node: 0}})
	if rec := f.Resolve(pairTxs, []Rx{{Node: 5}})[0]; !rec.Decoded || rec.From != 7 {
		t.Errorf("noiseless two-way tie: got %+v, want a decode from node 7, the first in slot order", rec)
	}

	// Underflow: at 5e102 the power is subnormal; at 1e103 the cube
	// overflows and at 1e160 the squared distance does, so it is 0; the
	// listener at -1e200 hears only zeros, with and without noise.
	farPos := []geo.Point{{}, {X: 5e102}, {X: 1e103}, {Y: 1e160}, {X: -1e200}, {X: 0.5}}
	farTxs := []Tx{{Node: 1, Msg: 1}, {Node: 2, Msg: 2}, {Node: 3, Msg: 3}}
	for _, p := range []model.Params{model.Default(1, 6), noiseless} {
		f := NewField(p, farPos)
		label := fmt.Sprintf("underflow N=%v", p.Noise)
		checkTableSlot(t, label, f, farTxs, []Rx{{Node: 0}, {Node: 4}, {Node: 5}})
		checkTableSlot(t, label+" plus a near sender", f, append(farTxs[:3:3], Tx{Node: 5, Msg: 5}), []Rx{{Node: 0}, {Node: 4}})
	}

	// Threshold: R_T = 1 under the default parameters, so a lone sender at
	// distance exactly 1 gives SINR = β, which decodes, and one an ulp
	// farther does not.
	edgePos := []geo.Point{{}, {X: 1}, {Y: 10}, {X: math.Nextafter(1, 2), Y: 10}}
	f = NewField(model.Default(2, 4), edgePos)
	edgeTxs := []Tx{{Node: 0, Channel: 0, Msg: 0}, {Node: 2, Channel: 1, Msg: 2}}
	checkTableSlot(t, "threshold", f, edgeTxs, []Rx{{Node: 1, Channel: 0}, {Node: 3, Channel: 1}})
	if recs := f.Resolve(edgeTxs, []Rx{{Node: 1, Channel: 0}, {Node: 3, Channel: 1}}); !recs[0].Decoded || recs[1].Decoded {
		t.Errorf("threshold: decoded %v at SINR = β and %v an ulp below, want true and false", recs[0].Decoded, recs[1].Decoded)
	}

	negZero := model.Default(1, 2)
	negZero.Power = math.Copysign(0, -1)
	if d := NewDeployment(negZero, []geo.Point{{}, {X: 1}}); d.gains() != nil {
		t.Error("a deployment with −0 powers built a link-gain table")
	}
}

// TestTableFallbacks pins when a deployment resolves on the fly: above the
// table cap. A deployment spanning far more than R_T, within the cap, is no
// fallback: it builds the table at Reserve and resolves through it
// bit-identically.
func TestTableFallbacks(t *testing.T) {
	if n := uint64(math.Sqrt(maxGainTableBytes/8)) + 1; n*n*8 <= maxGainTableBytes {
		t.Fatalf("setup: n = %d fits under the cap", n)
	} else if d := NewDeployment(model.Default(1, int(n)), make([]geo.Point, n)); d.gains() != nil {
		t.Errorf("n = %d: table built above the %d-byte cap", n, maxGainTableBytes)
	}

	r := rand.New(rand.NewSource(79))
	spread, txs2, rxs2 := randomSlot(r, 400, 3, 60, 0.4)
	h := NewField(model.Default(3, 400), spread)
	if h.Reserve(400, 400); h.gain == nil {
		t.Error("spread deployment did not build the link-gain table at Reserve")
	}
	checkTableSlot(t, "spread deployment", h, txs2, rxs2)
}
