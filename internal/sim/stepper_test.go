package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// slotRecord is one resolved slot flattened for transcript comparison.
type slotRecord struct {
	Slot int
	Txs  []phy.Tx
	Rxs  []phy.Rx
	Recs []phy.Reception
}

func recordTrace(dst *[]slotRecord) TraceFn {
	return func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
		*dst = append(*dst, slotRecord{
			Slot: slot,
			Txs:  append([]phy.Tx(nil), txs...),
			Rxs:  append([]phy.Rx(nil), rxs...),
			Recs: append([]phy.Reception(nil), recs...),
		})
	}
}

func chatterField(n int) *phy.Field {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%16) * 0.3, Y: float64(i/16) * 0.3}
	}
	return phy.NewField(model.Default(4, n), pos)
}

// chatterProgram is the goroutine form of the reference workload: random
// chatter with interleaved IdleFor batches whose spans depend on the node's
// private stream, plus value echoes so receptions feed back into behavior.
func chatterProgram(rounds int) Program {
	return func(ctx *Ctx) {
		last := 0
		for s := 0; s < rounds; s++ {
			switch r := ctx.Rand.Float64(); {
			case r < 0.25:
				ctx.Transmit(ctx.Rand.Intn(4), last+s)
			case r < 0.5:
				rec := ctx.Listen(ctx.Rand.Intn(4))
				if v, ok := rec.Msg.(int); ok {
					last = v
					ctx.Emit("heard", v)
				}
			case r < 0.7:
				ctx.Idle()
			default:
				ctx.IdleFor(1 + ctx.Rand.Intn(7))
			}
		}
	}
}

// chatterStepper is the hand-ported Stepper form of chatterProgram. The
// listen branch's consumption moves to the top of the next Step call, which
// is exactly where the transformation must put it.
type chatterStepper struct {
	rounds    int
	s         int
	last      int
	listening bool
}

func (cs *chatterStepper) Step(sc *StepCtx) {
	if cs.listening {
		cs.listening = false
		if v, ok := sc.Prev().Msg.(int); ok {
			cs.last = v
			sc.Emit("heard", v)
		}
	}
	if cs.s >= cs.rounds {
		sc.Done()
		return
	}
	s := cs.s
	cs.s++
	switch r := sc.Rand.Float64(); {
	case r < 0.25:
		sc.Transmit(sc.Rand.Intn(4), cs.last+s)
	case r < 0.5:
		sc.Listen(sc.Rand.Intn(4))
		cs.listening = true
	case r < 0.7:
		sc.Idle()
	default:
		sc.IdleFor(1 + sc.Rand.Intn(7))
	}
}

func sortedEvents(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	// Event order between nodes within a slot is unspecified; compare a
	// canonical ordering.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.Slot < b.Slot || (a.Slot == b.Slot && (a.Node < b.Node || (a.Node == b.Node && a.Name <= b.Name))) {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// runChatter runs the reference workload in the requested mode and returns
// its transcript, events, and slot count.
func runChatter(t *testing.T, n, rounds int, seed uint64, mode string, faults FaultInjector) ([]slotRecord, []Event, int) {
	t.Helper()
	e := NewEngine(chatterField(n), seed)
	e.Faults = faults
	var trace []slotRecord
	e.Trace = recordTrace(&trace)
	var (
		slots int
		err   error
	)
	switch mode {
	case "goroutine":
		progs := make([]Program, n)
		for i := range progs {
			progs[i] = chatterProgram(rounds)
		}
		slots, err = e.Run(progs)
	case "stepped":
		steps := make([]Stepper, n)
		for i := range steps {
			steps[i] = &chatterStepper{rounds: rounds}
		}
		slots, err = e.RunSteppers(steps)
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	if err != nil {
		t.Fatalf("%s run: %v", mode, err)
	}
	return trace, sortedEvents(e.Events()), slots
}

// requireSteppedMatches runs the chatter workload as goroutine Programs
// and as Steppers and fails unless transcripts, events and slot counts are
// identical.
func requireSteppedMatches(t *testing.T, n, rounds int, seed uint64, faults FaultInjector) {
	t.Helper()
	gTrace, gEvents, gSlots := runChatter(t, n, rounds, seed, "goroutine", faults)
	sTrace, sEvents, sSlots := runChatter(t, n, rounds, seed, "stepped", faults)
	if sSlots != gSlots {
		t.Fatalf("slots: goroutine %d, stepped %d", gSlots, sSlots)
	}
	if !reflect.DeepEqual(sTrace, gTrace) {
		t.Fatal("stepped transcript differs from goroutine mode")
	}
	if !reflect.DeepEqual(sEvents, gEvents) {
		t.Fatal("stepped events differ from goroutine mode")
	}
}

// TestSteppedEngineEquivalence pins the central invariant at the engine
// level: the same workload run as goroutine Programs and as Steppers
// produces bit-identical transcripts, events, and slot counts, at several
// sizes.
func TestSteppedEngineEquivalence(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1500} {
		for _, seed := range []uint64{1, 42} {
			n, seed := n, seed
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				t.Parallel()
				requireSteppedMatches(t, n, 40, seed, nil)
			})
		}
	}
}

// crashFaults crashes a fixed subset of nodes at fixed slots (including
// slots that land mid-IdleFor batch) and injects nothing else.
type crashFaults struct{ at map[int]int }

func (f crashFaults) BeginSlot(int, *phy.Field) {}
func (f crashFaults) FilterTransmission(_ int, tx phy.Tx) (phy.Tx, bool) {
	return tx, true
}
func (f crashFaults) FilterReception(_, _, _ int, rec phy.Reception) phy.Reception {
	return rec
}
func (f crashFaults) CrashSlot(node int) int {
	if s, ok := f.at[node]; ok {
		return s
	}
	return 1 << 40
}

// TestSteppedEquivalenceUnderCrashes runs the equivalence check with nodes
// crashing at awkward points — including during a sleep, where both forms
// must retire the node at the batch boundary, not before.
func TestSteppedEquivalenceUnderCrashes(t *testing.T) {
	requireSteppedMatches(t, 64, 40, 9, crashFaults{at: map[int]int{0: 0, 3: 7, 11: 13, 17: 2, 40: 25}})
}

// sleeperStepper exercises wake-wheel re-entry: alternating IdleFor batches
// and single transmits, with a span pattern that lands several nodes in the
// same wheel bucket at different wake slots (spans > wheelBuckets force
// multi-revolution entries).
type sleeperStepper struct {
	spans []int
	i     int
}

func (s *sleeperStepper) Step(sc *StepCtx) {
	if s.i >= 2*len(s.spans) {
		sc.Done()
		return
	}
	if s.i%2 == 0 {
		sc.IdleFor(s.spans[s.i/2])
	} else {
		sc.Transmit(0, s.i)
	}
	s.i++
}

// TestWakeWheelSpans drives IdleFor spans spanning multiple wheel
// revolutions plus same-bucket collisions, in both forms, and checks the
// slot count and transcript agree.
func TestWakeWheelSpans(t *testing.T) {
	spans := [][]int{
		{3, wheelBuckets + 3, 5},
		{wheelBuckets, 1, 2 * wheelBuckets},
		{2, 2, 2},
		{5 * wheelBuckets, 4, 1},
	}
	n := len(spans)
	prog := func(sp []int) Program {
		return func(ctx *Ctx) {
			for i, k := range sp {
				ctx.IdleFor(k)
				ctx.Transmit(0, 2*i+1)
			}
		}
	}
	e := NewEngine(chatterField(n), 5)
	var gTrace []slotRecord
	e.Trace = recordTrace(&gTrace)
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = prog(spans[i])
	}
	gSlots, err := e.Run(progs)
	if err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(chatterField(n), 5)
	var sTrace []slotRecord
	e2.Trace = recordTrace(&sTrace)
	steps := make([]Stepper, n)
	for i := range steps {
		steps[i] = &sleeperStepper{spans: spans[i]}
	}
	sSlots, err := e2.RunSteppers(steps)
	if err != nil {
		t.Fatal(err)
	}
	if gSlots != sSlots {
		t.Fatalf("slots: goroutine %d, stepped %d", gSlots, sSlots)
	}
	if !reflect.DeepEqual(gTrace, sTrace) {
		t.Fatal("wheel transcript differs between forms")
	}
}

// TestSteppedMaxSlotsAbort aborts a stepped run mid-sleep and checks the
// abort is clean: the MaxSlots error reports, the engine returns, and a
// second run on a fresh engine is unaffected.
func TestSteppedMaxSlotsAbort(t *testing.T) {
	n := 8
	e := NewEngine(chatterField(n), 1)
	e.MaxSlots = 10
	steps := make([]Stepper, n)
	for i := range steps {
		steps[i] = &sleeperStepper{spans: []int{100}}
	}
	slots, err := e.RunSteppers(steps)
	if err == nil || !strings.Contains(err.Error(), "MaxSlots") {
		t.Fatalf("want MaxSlots error, got slots=%d err=%v", slots, err)
	}
}

// TestSteppedContextCancel cancels a stepped run from a Trace callback and
// checks the engine unwinds promptly with ctx.Err().
func TestSteppedContextCancel(t *testing.T) {
	n := 8
	e := NewEngine(chatterField(n), 1)
	ctx, cancel := context.WithCancel(context.Background())
	e.Trace = func(slot int, _ []phy.Tx, _ []phy.Rx, _ []phy.Reception) {
		if slot == 5 {
			cancel()
		}
	}
	steps := make([]Stepper, n)
	for i := range steps {
		steps[i] = &chatterStepper{rounds: 1000}
	}
	if _, err := e.RunSteppersContext(ctx, steps); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// panicStepper panics at a chosen step.
type panicStepper struct{ n int }

func (p *panicStepper) Step(sc *StepCtx) {
	if p.n == 0 {
		panic("boom")
	}
	p.n--
	sc.Idle()
}

// TestSteppedPanicPropagates turns a panicking Stepper into a run error
// naming the node, like a panicking goroutine Program.
func TestSteppedPanicPropagates(t *testing.T) {
	n := 4
	e := NewEngine(chatterField(n), 1)
	steps := make([]Stepper, n)
	for i := range steps {
		steps[i] = &panicStepper{n: i + 2}
	}
	_, err := e.RunSteppers(steps)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// lazyStepper violates the contract by returning without acting.
type lazyStepper struct{}

func (lazyStepper) Step(*StepCtx) {}

// TestSteppedContractViolation: a Stepper that neither acts nor calls Done
// fails the run instead of hanging it, and a nil Stepper is rejected up
// front.
func TestSteppedContractViolation(t *testing.T) {
	e := NewEngine(chatterField(2), 1)
	_, err := e.RunSteppers([]Stepper{&chatterStepper{rounds: 3}, lazyStepper{}})
	if err == nil || !strings.Contains(err.Error(), "without acting") {
		t.Fatalf("want contract error, got %v", err)
	}
	if _, err := e.RunSteppers([]Stepper{&chatterStepper{rounds: 3}, nil}); err == nil || !strings.Contains(err.Error(), "nil stepper") {
		t.Fatalf("want nil-stepper error, got %v", err)
	}
}

// TestSteppedParallelDrive forces the parallel step fan-out (population
// above parallelStepMin) and checks the transcript still matches the
// goroutine form. Run under -race in CI at -cpu 1,2,8.
func TestSteppedParallelDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("crowd-sized equivalence run")
	}
	n := parallelStepMin + 512
	requireSteppedMatches(t, n, 12, 3, nil)
}

// Compile-time checks that the test doubles satisfy their interfaces.
var (
	_ Stepper       = (*chatterStepper)(nil)
	_ Stepper       = (*sleeperStepper)(nil)
	_ FaultInjector = crashFaults{}
)
