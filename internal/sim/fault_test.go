package sim

import (
	"testing"

	"mcnet/internal/fault"
	"mcnet/internal/phy"
)

// pingSteppers builds n nodes where node 0 transmits every slot on channel
// 0 and everyone else listens, for the given number of slots. decoded[i]
// counts how many slots node i decoded the beacon.
func pingSteppers(n, slots int, decoded []int) []Stepper {
	steppers := make([]Stepper, n)
	steppers[0] = &loop{n: slots, body: func(sc *StepCtx, s int) { sc.Transmit(0, s) }}
	for i := 1; i < n; i++ {
		count := func(sc *StepCtx) {
			if sc.Prev().Decoded {
				decoded[i]++
			}
		}
		steppers[i] = &loop{n: slots,
			body: func(sc *StepCtx, s int) {
				if s > 0 {
					count(sc)
				}
				sc.Listen(0)
			},
			end: count,
		}
	}
	return steppers
}

// TestEngineFaultLoss: a lossy injector suppresses part of the beacon stream
// and its report balances delivered + lost against the fault-free decode
// count.
func TestEngineFaultLoss(t *testing.T) {
	const n, slots = 3, 400

	baseline := make([]int, n)
	e0 := NewEngine(lineField(n, 0.2, 1), 7)
	if _, err := e0.Run(pingSteppers(n, slots, baseline)); err != nil {
		t.Fatal(err)
	}
	total := baseline[1] + baseline[2]
	if total == 0 {
		t.Fatal("fault-free baseline decoded nothing; bad test geometry")
	}

	decoded := make([]int, n)
	e := NewEngine(lineField(n, 0.2, 1), 7)
	inj := fault.NewInjector(fault.Spec{LossProb: 0.25}, 7, n, 1, slots)
	e.Faults = inj
	if _, err := e.Run(pingSteppers(n, slots, decoded)); err != nil {
		t.Fatal(err)
	}
	rep := inj.Report()
	got := decoded[1] + decoded[2]
	if rep.Delivered != got {
		t.Errorf("report delivered %d, listeners decoded %d", rep.Delivered, got)
	}
	if rep.Delivered+rep.Lost != total {
		t.Errorf("delivered %d + lost %d != fault-free decodes %d", rep.Delivered, rep.Lost, total)
	}
	if rep.Lost == 0 {
		t.Error("25% loss over 400 slots lost nothing")
	}
}

// TestEngineFaultJamAll: with the only channel jammed every slot nothing
// decodes, but listeners still sense the beacon's power.
func TestEngineFaultJamAll(t *testing.T) {
	const n, slots = 2, 20
	sensed := false
	e := NewEngine(lineField(n, 0.2, 2), 3)
	// Two channels so the spec validates; the beacon uses channel 0 and the
	// round-robin adversary with k=1 jams it every other slot.
	inj := fault.NewInjector(fault.Spec{JamChannels: 1, JamModel: fault.JamRoundRobin}, 3, n, 2, slots)
	e.Faults = inj
	decodes := 0
	observe := func(sc *StepCtx) {
		if rec := sc.Prev(); rec.Decoded {
			decodes++
		} else if rec.Interference > 0 {
			sensed = true
		}
	}
	steppers := []Stepper{
		&loop{n: slots, body: func(sc *StepCtx, s int) { sc.Transmit(0, s) }},
		&loop{n: slots,
			body: func(sc *StepCtx, s int) {
				if s > 0 {
					observe(sc)
				}
				sc.Listen(0)
			},
			end: observe,
		},
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	// k=1 of F=2 round-robin: channel 0 jammed on even slots only.
	if decodes != slots/2 {
		t.Errorf("decoded %d slots, want %d (channel 0 jammed every other slot)", decodes, slots/2)
	}
	if !sensed {
		t.Error("jammed slots never sensed the beacon's power")
	}
	if rep := inj.Report(); rep.JammedSlotChannels != slots {
		t.Errorf("JammedSlotChannels = %d, want %d", rep.JammedSlotChannels, slots)
	}
}

// TestEngineFaultCrash: a node at its crash slot performs no further
// actions; the engine retires it and the run completes with the survivors.
func TestEngineFaultCrash(t *testing.T) {
	const n, slots = 3, 50
	decoded := make([]int, n)
	e := NewEngine(lineField(n, 0.2, 1), 5)
	inj := fault.NewInjector(fault.Spec{CrashAt: map[int]int{0: 10}}, 5, n, 1, slots)
	e.Faults = inj
	used, err := e.Run(pingSteppers(n, slots, decoded))
	if err != nil {
		t.Fatal(err)
	}
	// The transmitter dies at slot 10; listeners run their full schedule.
	if used != slots {
		t.Errorf("run used %d slots, want %d (survivors finish their schedules)", used, slots)
	}
	if decoded[1] > 10 || decoded[2] > 10 {
		t.Errorf("listeners decoded %d/%d beacons after the transmitter crashed at slot 10",
			decoded[1], decoded[2])
	}
	if rep := inj.Report(); len(rep.CrashedNodes) != 1 || rep.CrashedNodes[0] != 0 {
		t.Errorf("CrashedNodes = %v, want [0]", rep.CrashedNodes)
	}
}

// TestEngineFaultCrashInIdleBatch: a crash slot inside an IdleFor batch
// takes effect at the batch boundary — the node is retired instead of
// stepped, so nothing it schedules after the batch ever airs.
func TestEngineFaultCrashInIdleBatch(t *testing.T) {
	const n = 2
	e := NewEngine(lineField(n, 0.2, 1), 1)
	inj := fault.NewInjector(fault.Spec{CrashAt: map[int]int{0: 5}}, 1, n, 1, 100)
	e.Faults = inj
	transmitted := 0
	e.Trace = func(_ int, txs []phy.Tx, _ []phy.Rx, _ []phy.Reception) {
		transmitted += len(txs)
	}
	steppers := []Stepper{
		ops(
			func(sc *StepCtx) { sc.IdleFor(20) },    // crash slot 5 falls inside the batch
			func(sc *StepCtx) { sc.Transmit(0, 1) }, // must never air
		),
		&loop{n: 30, body: func(sc *StepCtx, _ int) { sc.Idle() }},
	}
	if _, err := e.Run(steppers); err != nil {
		t.Fatal(err)
	}
	if transmitted != 0 {
		t.Errorf("%d transmissions aired from a node crashed mid-idle", transmitted)
	}
}

// TestEngineZeroInjectorTranscript: attaching a zero-intensity injector
// leaves the run bit-identical to Faults == nil — same decode counts, same
// slot usage.
func TestEngineZeroInjectorTranscript(t *testing.T) {
	const n, slots = 4, 200
	run := func(attach bool) ([]int, int) {
		decoded := make([]int, n)
		e := NewEngine(lineField(n, 0.3, 1), 11)
		if attach {
			e.Faults = fault.NewInjector(fault.Spec{}, 11, n, 1, slots)
		}
		used, err := e.Run(pingSteppers(n, slots, decoded))
		if err != nil {
			t.Fatal(err)
		}
		return decoded, used
	}
	plainDec, plainUsed := run(false)
	zeroDec, zeroUsed := run(true)
	if plainUsed != zeroUsed {
		t.Errorf("slot usage diverged: %d vs %d", plainUsed, zeroUsed)
	}
	for i := range plainDec {
		if plainDec[i] != zeroDec[i] {
			t.Errorf("node %d decode count diverged: %d vs %d", i, plainDec[i], zeroDec[i])
		}
	}
}

// The concrete injector must satisfy the engine's hook.
var _ FaultInjector = (*fault.Injector)(nil)
