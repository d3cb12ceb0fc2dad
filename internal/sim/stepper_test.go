package sim

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/golden"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

func chatterField(n int) *phy.Field {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%16) * 0.3, Y: float64(i/16) * 0.3}
	}
	return phy.NewField(model.Default(4, n), pos)
}

// chatterStepper is the reference workload: random chatter with
// interleaved IdleFor batches whose spans depend on the node's private
// stream, plus value echoes so receptions feed back into behavior.
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

// chatterDigest runs the chatter workload and digests its transcript,
// events and slot count.
func chatterDigest(t *testing.T, n, rounds int, seed uint64, faults FaultInjector) golden.Digest {
	t.Helper()
	e := NewEngine(chatterField(n), seed)
	e.Faults = faults
	rec := golden.NewRecorder()
	e.Trace = rec.Trace
	slots, err := e.Run(chatters(n, rounds))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range e.Events() {
		rec.Event(ev.Slot, ev.Node, ev.Name, ev.Value)
	}
	return rec.Digest(t, slots)
}

// TestSteppedEngineEquivalence pins the engine's transcripts, events and
// slot counts on the chatter workload, at several sizes, to the ones the
// goroutine engine recorded (testdata).
func TestSteppedEngineEquivalence(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1500} {
		for _, seed := range []uint64{1, 42} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				t.Parallel()
				golden.Check(t, "", chatterDigest(t, n, 40, seed, nil))
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

// TestSteppedEquivalenceUnderCrashes runs the golden check with nodes
// crashing at awkward points — including during a sleep, where the engine
// must retire the node at the batch boundary, not before.
func TestSteppedEquivalenceUnderCrashes(t *testing.T) {
	golden.Check(t, "", chatterDigest(t, 64, 40, 9, crashFaults{at: map[int]int{0: 0, 3: 7, 11: 13, 17: 2, 40: 25}}))
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
// revolutions plus same-bucket collisions, and checks the slot count and
// transcript against the golden.
func TestWakeWheelSpans(t *testing.T) {
	spans := [][]int{
		{3, wheelBuckets + 3, 5},
		{wheelBuckets, 1, 2 * wheelBuckets},
		{2, 2, 2},
		{5 * wheelBuckets, 4, 1},
	}
	n := len(spans)
	e := NewEngine(chatterField(n), 5)
	rec := golden.NewRecorder()
	e.Trace = rec.Trace
	steps := make([]Stepper, n)
	for i := range steps {
		steps[i] = &sleeperStepper{spans: spans[i]}
	}
	slots, err := e.Run(steps)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "spans", rec.Digest(t, slots))
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
	slots, err := e.Run(steps)
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
	if _, err := e.RunContext(ctx, chatters(n, 1000)); err != context.Canceled {
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
// naming the node.
func TestSteppedPanicPropagates(t *testing.T) {
	n := 4
	e := NewEngine(chatterField(n), 1)
	steps := make([]Stepper, n)
	for i := range steps {
		steps[i] = &panicStepper{n: i + 2}
	}
	_, err := e.Run(steps)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// lazyStepper violates the contract by returning without acting.
type lazyStepper struct{}

func (lazyStepper) Step(*StepCtx) {}

// doubleStepper violates the contract by transmitting and listening in one
// Step: the one input phy.Field.Resolve does not handle.
type doubleStepper struct{}

func (doubleStepper) Step(sc *StepCtx) {
	sc.Transmit(0, "x")
	sc.Listen(0)
}

// actThenDoneStepper violates the contract by calling Done after acting.
type actThenDoneStepper struct{}

func (actThenDoneStepper) Step(sc *StepCtx) {
	sc.Idle()
	sc.Done()
}

// TestSteppedContractViolation: a Stepper that breaks the one-primitive
// Step contract — returning without acting, performing two primitives, or
// acting and then calling Done — fails the run instead of hanging it or
// reaching phy, and a nil Stepper is rejected up front.
func TestSteppedContractViolation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stepper Stepper
		want    string
	}{
		{"no action", lazyStepper{}, "without acting"},
		{"transmit then listen", doubleStepper{}, "second primitive"},
		{"done after acting", actThenDoneStepper{}, "Done after acting"},
		{"nil", nil, "nil stepper"},
	} {
		e := NewEngine(chatterField(2), 1)
		_, err := e.Run([]Stepper{&chatterStepper{rounds: 3}, tc.stepper})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestSteppedParallelDrive forces the parallel step fan-out (population
// above parallelStepMin) and checks the transcript against the golden.
// Run under -race in CI at -cpu 1,2,8.
func TestSteppedParallelDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("crowd-sized golden run")
	}
	golden.Check(t, "", chatterDigest(t, parallelStepMin+512, 12, 3, nil))
}

// Compile-time checks that the test doubles satisfy their interfaces.
var (
	_ Stepper       = (*chatterStepper)(nil)
	_ Stepper       = (*sleeperStepper)(nil)
	_ FaultInjector = crashFaults{}
)

// TestSendReusesUnchangedMessage: Send boxes a message once and resends
// that interface value while the node's message stays equal; a changed
// message is boxed anew and delivered with its new content.
func TestSendReusesUnchangedMessage(t *testing.T) {
	type msg struct{ From, Hops int }
	rs := &runState{pending: make([]action, 1)}
	sc := &StepCtx{rs: rs}
	send := func(m msg) {
		sc.acted = false
		Send(sc, 2, m)
		if a := rs.pending[0]; a.kind != actTransmit || a.ch != 2 || a.msg != m {
			t.Fatalf("pending = %+v, want a transmission of %+v on channel 2", a, m)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { send(msg{From: 1000, Hops: 3}) }); allocs != 0 {
		t.Errorf("unchanged message: %v allocs per Send, want 0", allocs)
	}
	hops := 3
	if allocs := testing.AllocsPerRun(100, func() { hops++; send(msg{From: 1000, Hops: hops}) }); allocs != 1 {
		t.Errorf("changed message: %v allocs per Send, want 1", allocs)
	}
}
