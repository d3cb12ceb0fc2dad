package sim

import (
	"fmt"
	"runtime"
	"testing"

	"mcnet/internal/fault"
	"mcnet/internal/golden"
	"mcnet/internal/phy"
)

// runStepper is the ListenFor reference workload in two forms: at each
// decision point a node draws whether to transmit, to listen on a drawn
// channel for a drawn run of slots, or to sleep. A listening run ends at
// its first decoded reception (whose value the node adds up and emits) or
// after its length; receptions that do not decode are ignored. The batch
// form covers each run with one ListenFor, the plain form listens slot by
// slot, so both must produce the same run with fewer Step calls in the
// batch form.
type runStepper struct {
	batch    bool
	rounds   int
	channels int

	r, left, ch int
	listening   bool
	heard, got  int
	steps       int
}

func (s *runStepper) Step(sc *StepCtx) {
	s.steps++
	if s.listening {
		s.listening = false
		if v, ok := sc.Prev().Msg.(int); ok {
			s.heard += v
			s.got++
			s.left = 0
			sc.Emit("heard", v)
		}
	}
	if s.left > 0 {
		s.left--
		sc.Listen(s.ch)
		s.listening = true
		return
	}
	if s.r >= s.rounds {
		sc.Done()
		return
	}
	s.r++
	switch x := sc.Rand.Float64(); {
	case x < 0.15:
		sc.Transmit(sc.Rand.Intn(s.channels), sc.ID()+s.r)
	case x < 0.85:
		s.ch = sc.Rand.Intn(s.channels)
		k := 1 + sc.Rand.Intn(16)
		if s.batch {
			sc.ListenFor(s.ch, k)
		} else {
			sc.Listen(s.ch)
			s.left = k - 1
		}
		s.listening = true
	default:
		sc.IdleFor(1 + sc.Rand.Intn(4))
	}
}

// runResult is one node's outcome in the runStepper workload.
type runResult struct{ Heard, Got int }

// listenRun runs the runStepper workload in one form and returns its
// digest and total Step calls.
func listenRun(t *testing.T, n, rounds int, batch bool, faults FaultInjector) (golden.Digest, int) {
	t.Helper()
	e := NewEngine(chatterField(n), 5)
	e.Faults = faults
	rec := golden.NewRecorder()
	e.Trace = rec.Trace
	nodes := make([]runStepper, n)
	steppers := make([]Stepper, n)
	for i := range nodes {
		nodes[i] = runStepper{batch: batch, rounds: rounds, channels: 4}
		steppers[i] = &nodes[i]
	}
	slots, err := e.Run(steppers)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range e.Events() {
		rec.Event(ev.Slot, ev.Node, ev.Name, ev.Value)
	}
	results := make([]runResult, n)
	steps := 0
	for i := range nodes {
		results[i] = runResult{nodes[i].heard, nodes[i].got}
		steps += nodes[i].steps
	}
	if slots == 0 {
		t.Fatal("empty run")
	}
	return rec.Digest(t, results), steps
}

// jamFaults jams channel 0 in every slot and injects nothing else.
type jamFaults struct{ crashFaults }

func (jamFaults) BeginSlot(_ int, f *phy.Field) { f.Jam(0, true) }

// TestListenForMatchesListenLoop is the sim batch rule's property: the
// ListenFor form of a workload produces the slot-by-slot form's slots,
// transcript (listener entries included), events and results, with fewer
// Step calls — with no faults, with crashes that land inside batches, with
// a loss filter that removes decodes and with a jammed channel, at step
// worker counts 1, 2 and 8 and at a population above parallelStepMin, so
// that the step phase fans out.
func TestListenForMatchesListenLoop(t *testing.T) {
	crashes := crashFaults{at: map[int]int{0: 0, 3: 7, 11: 13, 17: 2, 40: 25, 63: 9}}
	cases := []struct {
		name   string
		n      int
		faults func() FaultInjector
	}{
		{"plain", 64, func() FaultInjector { return nil }},
		{"crashes", 64, func() FaultInjector { return crashes }},
		{"loss", 64, func() FaultInjector { return fault.NewInjector(fault.Spec{LossProb: 0.4}, 3, 64, 4, 1000) }},
		{"jam", 64, func() FaultInjector { return jamFaults{crashFaults{}} }},
		{"parallel", parallelStepMin + 256, func() FaultInjector { return nil }},
	}
	if testing.Short() {
		cases = cases[:len(cases)-1]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		var first golden.Digest
		for _, workers := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(workers)
			label := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			rounds := 24
			if tc.n > 64 {
				rounds = 6
			}
			plain, plainSteps := listenRun(t, tc.n, rounds, false, tc.faults())
			batch, batchSteps := listenRun(t, tc.n, rounds, true, tc.faults())
			if plain != batch {
				t.Errorf("%s: ListenFor run differs from the listen loop:\n listen loop %+v\n ListenFor   %+v", label, plain, batch)
			}
			if batchSteps >= plainSteps {
				t.Errorf("%s: ListenFor made %d Step calls, the listen loop %d", label, batchSteps, plainSteps)
			}
			if workers == 1 {
				first = batch
				t.Logf("%s: %d slots, %d Step calls with ListenFor, %d without", label, batch.Slots, batchSteps, plainSteps)
			} else if batch != first {
				t.Errorf("%s: run differs from the one at 1 worker", label)
			}
		}
	}
}

// dropFaults removes every decode in the listed slots (a loss filter with
// a fixed pattern) and injects nothing else.
type dropFaults struct {
	crashFaults
	drop map[int]bool
}

func (f dropFaults) FilterReception(slot, _, _ int, rec phy.Reception) phy.Reception {
	if rec.Decoded && f.drop[slot] {
		rec.Interference += rec.SignalPower
		rec.Decoded, rec.From, rec.Msg, rec.SignalPower = false, -1, nil, 0
	}
	return rec
}

// TestListenForWake pins when a ListenFor batch hands control back: the
// slot after the first reception that decodes once the fault filter has
// run (a decode the loss filter removes does not count, and a jammed
// channel decodes nothing), else the slot where the k slots run out,
// including a decode in the batch's last slot; a crash inside the batch
// ends its listening at the crash slot.
func TestListenForWake(t *testing.T) {
	cases := []struct {
		name    string
		sends   []int // slots node 0 transmits in
		k       int
		faults  FaultInjector
		wake    int  // slot of node 1's next Step call, -1 if it never comes
		decoded bool // Prev at that Step call
		listens int  // node 1's listener entries
	}{
		{"runs out", nil, 5, nil, 5, false, 5},
		{"first decode", []int{3, 6}, 10, nil, 4, true, 4},
		{"decode in the last slot", []int{4}, 5, nil, 5, true, 5},
		{"lost decode", []int{3, 6}, 10, dropFaults{drop: map[int]bool{3: true}}, 7, true, 7},
		{"every decode lost", []int{3, 6}, 10, dropFaults{drop: map[int]bool{3: true, 6: true}}, 10, false, 10},
		{"jammed", []int{3, 6}, 10, jamFaults{}, 10, false, 10},
		{"crash", []int{8}, 10, crashFaults{at: map[int]int{1: 6}}, -1, false, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(lineField(2, 0.5, 1), 1)
			e.Faults = tc.faults
			listens := 0
			e.Trace = func(_ int, _ []phy.Tx, rxs []phy.Rx, _ []phy.Reception) {
				listens += len(rxs)
			}
			send := make(map[int]bool)
			for _, s := range tc.sends {
				send[s] = true
			}
			wake, steps := -1, 0
			var prev phy.Reception
			steppers := []Stepper{
				&loop{n: 12, body: func(sc *StepCtx, s int) {
					if send[s] {
						sc.Transmit(0, s)
					} else {
						sc.Idle()
					}
				}},
				&loop{n: 2, body: func(sc *StepCtx, s int) {
					steps++
					if s == 0 {
						sc.ListenFor(0, tc.k)
						return
					}
					wake, prev = sc.Slot(), sc.Prev()
					sc.Idle()
				}},
			}
			if _, err := e.Run(steppers); err != nil {
				t.Fatal(err)
			}
			from := -1 // Prev is the batch's last reception, not a stale one
			if tc.decoded {
				from = 0
			}
			if wake != tc.wake || wake >= 0 && (prev.Decoded != tc.decoded || prev.From != from) {
				t.Errorf("next Step call at slot %d with Prev %+v, want slot %d with decoded %v from %d", wake, prev, tc.wake, tc.decoded, from)
			}
			if listens != tc.listens {
				t.Errorf("%d listener entries, want %d", listens, tc.listens)
			}
			want := 2 // the ListenFor, then the wake
			if tc.wake < 0 {
				want = 1
			}
			if steps != want {
				t.Errorf("%d Step calls, want %d", steps, want)
			}
		})
	}
}
