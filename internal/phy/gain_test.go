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
// every Reception, float bits included, with the on-the-fly kernel
// (resolveOneExact plus the jam fold) over the same slot layout.
func checkTableSlot(t *testing.T, label string, f *Field, txs []Tx, rxs []Rx) {
	t.Helper()
	got := f.Resolve(txs, rxs)
	if !f.slotTable {
		t.Fatalf("%s: slot did not resolve through the link-gain table", label)
	}
	want := make([]Reception, len(rxs))
	for i, rx := range rxs {
		f.resolveOneExact(&want[i], rx, txs)
		if f.jammed[rx.Channel] {
			jamFold(&want[i])
		}
	}
	sameReceptions(t, label, got, want)
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
// large slots out).
func TestTableMatchesOnTheFly(t *testing.T) {
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

// TestTableMatchesOnTheFlyGenericArithmetic covers the deployments whose
// table entries come from PowerAtDistance: a custom metric and a
// non-integral path-loss exponent.
func TestTableMatchesOnTheFlyGenericArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	pos := make([]geo.Point, 64)
	for i := range pos {
		pos[i] = geo.Point{X: r.Float64() * 4, Y: r.Float64() * 4}
	}
	colocate(pos)
	alpha := model.Default(4, 64)
	alpha.Alpha = 2.5
	for _, tc := range []struct {
		name string
		f    *Field
	}{
		{"manhattan", NewFieldMetric(model.Default(4, 64), pos, geo.Manhattan)},
		{"alpha 2.5", NewField(alpha, pos)},
	} {
		for trial := 0; trial < 10; trial++ {
			_, txs, rxs := randomSlot(r, len(pos), 4, 1, 0.3)
			checkTableSlot(t, fmt.Sprintf("%s trial %d", tc.name, trial), tc.f, txs, rxs)
		}
	}
}

// TestTableFallbacks pins when a slot resolves on the fly: a node that
// both transmits and listens, and a deployment above the table cap. A
// deployment spanning far more than R_T, within the cap, is no fallback: it
// builds the table at Reserve and resolves through it bit-identically.
func TestTableFallbacks(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 0.5}, {X: 1}}
	f := NewField(model.Default(1, 3), pos)
	txs := []Tx{{Node: 0, Msg: "a"}, {Node: 1, Msg: "b"}}
	if f.Resolve(txs, []Rx{{Node: 1}, {Node: 2}}); f.slotTable {
		t.Error("slot with a transmitting listener used the table")
	}
	if f.Resolve(txs, []Rx{{Node: 2}}); !f.slotTable {
		t.Error("ordinary slot did not use the table")
	}

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
