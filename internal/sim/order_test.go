package sim

import (
	"slices"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// orderFaults records the order of FilterTransmission calls and injects
// nothing.
type orderFaults struct{ calls [][2]int }

func (f *orderFaults) BeginSlot(int, *phy.Field) {}
func (f *orderFaults) FilterTransmission(slot int, tx phy.Tx) (phy.Tx, bool) {
	f.calls = append(f.calls, [2]int{slot, tx.Node})
	return tx, true
}
func (f *orderFaults) FilterReception(_, _, _ int, rec phy.Reception) phy.Reception { return rec }
func (f *orderFaults) CrashSlot(int) int                                            { return 1 << 40 }

// TestWakeOrder wakes a batch of sleepers that registered on the wheel in
// reverse node order, in different slots and with different IdleFor
// lengths, into a slot where other nodes are already awake, and checks
// that the collected slot is still in node order: Trace sees txs and rxs
// ascending, and FilterTransmission is called node by node.
func TestWakeOrder(t *testing.T) {
	const n, wakeSlot = 12, 9
	listeners := []int{0, 5, 11}
	sleepers := []int{10, 9, 8, 7, 6, 4, 3, 2, 1} // registration order

	idle := func(sc *StepCtx) { sc.Idle() }
	sleep := func(k int) func(*StepCtx) { return func(sc *StepCtx) { sc.IdleFor(k) } }
	act := func(sc *StepCtx) {
		if sc.ID()%2 == 0 {
			sc.Transmit(0, sc.ID())
		} else {
			sc.Listen(0)
		}
	}
	scripts := make([][]func(*StepCtx), n)
	for _, id := range listeners {
		for s := 0; s <= wakeSlot+1; s++ {
			scripts[id] = append(scripts[id], act)
		}
	}
	// The j-th sleeper idles j slots, then sleeps to the wake slot.
	for j, id := range sleepers {
		for s := 0; s < j; s++ {
			scripts[id] = append(scripts[id], idle)
		}
		scripts[id] = append(scripts[id], sleep(wakeSlot-j), act)
	}
	steppers := make([]Stepper, n)
	for i := range steppers {
		steppers[i] = ops(scripts[i]...)
	}

	e := NewEngine(lineField(n, 0.2, 1), 3)
	faults := &orderFaults{}
	e.Faults = faults
	actors := map[int][]int{}
	e.Trace = func(slot int, txs []phy.Tx, rxs []phy.Rx, _ []phy.Reception) {
		var tx, rx []int
		for _, x := range txs {
			tx = append(tx, x.Node)
		}
		for _, x := range rxs {
			rx = append(rx, x.Node)
		}
		if !slices.IsSorted(tx) || !slices.IsSorted(rx) {
			t.Errorf("slot %d: txs %v, rxs %v not in node order", slot, tx, rx)
		}
		all := append(tx, rx...)
		slices.Sort(all)
		actors[slot] = all
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}

	want := append(slices.Clone(sleepers), listeners...)
	slices.Sort(want)
	if got := actors[wakeSlot]; !slices.Equal(got, want) {
		t.Errorf("slot %d: actors %v, want %v (the woken batch plus the listeners)", wakeSlot, got, want)
	}
	for k := 1; k < len(faults.calls); k++ {
		prev, cur := faults.calls[k-1], faults.calls[k]
		if cur[0] == prev[0] && cur[1] <= prev[1] {
			t.Errorf("slot %d: FilterTransmission saw node %d after node %d", cur[0], cur[1], prev[1])
		}
	}
}

// sparseNode acts once per period, in the slots congruent to its phase,
// and sleeps in between: a listen, or a transmission one time in eight.
type sparseNode struct {
	period, phase, acts int
}

func (p *sparseNode) Step(sc *StepCtx) {
	if p.acts == 0 {
		sc.Done()
		return
	}
	if d := (p.phase - sc.Slot()) % p.period; d != 0 {
		sc.IdleFor((d + p.period) % p.period)
		return
	}
	p.acts--
	if sc.Rand.Intn(8) == 0 {
		sc.Transmit(0, nil)
	} else {
		sc.Listen(0)
	}
}

// BenchmarkEngineSparseAwake drives a population where only awake nodes
// act per slot out of n — every node acts once per n/awake slots and
// sleeps between — so ns/slot should track the awake count, not n: the
// n=4k and n=65k rows act in the same number of nodes per slot.
func BenchmarkEngineSparseAwake(b *testing.B) {
	const awake, slots = 64, 8192
	for _, c := range []struct {
		name string
		n    int
	}{{"n=4k", 4096}, {"n=65k", 65536}} {
		n := c.n
		b.Run(c.name, func(b *testing.B) {
			pos := make([]geo.Point, n)
			for i := range pos {
				pos[i] = geo.Point{X: float64(i%256) * 0.2, Y: float64(i/256) * 0.2}
			}
			f := phy.NewField(model.Default(1, n), pos)
			period := n / awake
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena := make([]sparseNode, n)
				steppers := make([]Stepper, n)
				for j := range arena {
					arena[j] = sparseNode{period: period, phase: j % period, acts: slots / period}
					steppers[j] = &arena[j]
				}
				if _, err := NewEngine(f, uint64(i)).Run(steppers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots*b.N), "ns/slot")
		})
	}
}
