package sim

import (
	"strings"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

func lineField(n int, spacing float64, channels int) *phy.Field {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i) * spacing}
	}
	return phy.NewField(model.Default(channels, n+2), pos)
}

// loop is a test Stepper: Step k (k < n) runs body(sc, k), which must act;
// Step n runs end (if set) and powers the node down. A body or end that
// follows a Listen reads its reception as sc.Prev.
type loop struct {
	n    int
	body func(sc *StepCtx, k int)
	end  func(sc *StepCtx)
	k    int
}

func (l *loop) Step(sc *StepCtx) {
	if l.k >= l.n {
		if l.end != nil {
			l.end(sc)
		}
		sc.Done()
		return
	}
	l.k++
	l.body(sc, l.k-1)
}

// ops is a loop performing one primitive per Step call, in order.
func ops(fs ...func(sc *StepCtx)) *loop {
	return &loop{n: len(fs), body: func(sc *StepCtx, k int) { fs[k](sc) }}
}

func TestSimpleExchange(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	var rec phy.Reception
	slots, err := e.Run([]Stepper{
		ops(func(sc *StepCtx) { sc.Transmit(0, "ping") }),
		&loop{n: 1, body: func(sc *StepCtx, _ int) { sc.Listen(0) }, end: func(sc *StepCtx) { rec = sc.Prev() }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slots != 1 {
		t.Errorf("slots = %d, want 1", slots)
	}
	if !rec.Decoded || rec.Msg != "ping" || rec.From != 0 {
		t.Errorf("reception = %+v", rec)
	}
}

func TestLockstep(t *testing.T) {
	// Node 0 transmits in slots 0 and 2; node 1 listens in all three. The
	// middle slot must be silent: slots are globally aligned.
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	var recs [3]phy.Reception
	_, err := e.Run([]Stepper{
		ops(
			func(sc *StepCtx) { sc.Transmit(0, 1) },
			func(sc *StepCtx) { sc.Idle() },
			func(sc *StepCtx) { sc.Transmit(0, 3) },
		),
		&loop{n: 3,
			body: func(sc *StepCtx, k int) {
				if k > 0 {
					recs[k-1] = sc.Prev()
				}
				sc.Listen(0)
			},
			end: func(sc *StepCtx) { recs[2] = sc.Prev() },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].Decoded || recs[0].Msg != 1 {
		t.Errorf("slot 0: %+v", recs[0])
	}
	if recs[1].Decoded || recs[1].SignalPower+recs[1].Interference != 0 {
		t.Errorf("slot 1 should be silent: %+v", recs[1])
	}
	if !recs[2].Decoded || recs[2].Msg != 3 {
		t.Errorf("slot 2: %+v", recs[2])
	}
}

func TestEarlyReturnBecomesIdle(t *testing.T) {
	// Node 0 powers down at once; nodes 1 and 2 keep exchanging. The run
	// lasts as long as the longest protocol.
	f := lineField(3, 0.4, 1)
	e := NewEngine(f, 1)
	heard := 0
	count := func(sc *StepCtx) {
		if sc.Prev().Decoded {
			heard++
		}
	}
	slots, err := e.Run([]Stepper{
		&loop{},
		&loop{n: 5, body: func(sc *StepCtx, k int) { sc.Transmit(0, k) }},
		&loop{n: 5,
			body: func(sc *StepCtx, k int) {
				if k > 0 {
					count(sc)
				}
				sc.Listen(0)
			},
			end: count,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slots != 5 {
		t.Errorf("slots = %d, want 5", slots)
	}
	if heard != 5 {
		t.Errorf("heard = %d, want 5", heard)
	}
}

// randomTalker is a node that, for rounds slots, picks a random channel and
// transmits with probability p or listens otherwise; heard observes every
// decoded reception.
func randomTalker(rounds, channels int, p float64, heard func(sc *StepCtx, rec phy.Reception)) *loop {
	listened := false
	consume := func(sc *StepCtx) {
		if listened {
			listened = false
			if rec := sc.Prev(); rec.Decoded {
				heard(sc, rec)
			}
		}
	}
	return &loop{n: rounds,
		body: func(sc *StepCtx, _ int) {
			consume(sc)
			ch := sc.Rand.Intn(channels)
			if sc.Rand.Float64() < p {
				sc.Transmit(ch, sc.ID())
			} else {
				sc.Listen(ch)
				listened = true
			}
		},
		end: consume,
	}
}

func TestDeterminism(t *testing.T) {
	// Two identical runs produce identical transcripts of random decisions.
	run := func() []int {
		f := lineField(8, 0.3, 2)
		e := NewEngine(f, 42)
		out := make([]int, 8)
		steppers := make([]Stepper, 8)
		for i := range steppers {
			steppers[i] = randomTalker(50, 2, 0.3, func(_ *StepCtx, rec phy.Reception) {
				out[i] = out[i]*31 + rec.From + 7
			})
		}
		if _, err := e.Run(steppers); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d transcripts differ: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) int {
		f := lineField(4, 0.3, 1)
		e := NewEngine(f, seed)
		total := 0
		steppers := make([]Stepper, 4)
		for i := range steppers {
			steppers[i] = randomTalker(40, 1, 0.5, func(*StepCtx, phy.Reception) { total++ })
		}
		if _, err := e.Run(steppers); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if run(1) == run(2) && run(3) == run(4) && run(1) == run(3) {
		t.Error("different seeds produced suspiciously identical outcomes")
	}
}

func TestMaxSlotsAborts(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	e.MaxSlots = 10
	_, err := e.Run([]Stepper{
		&loop{n: 1 << 30, body: func(sc *StepCtx, _ int) { sc.Idle() }},
		&loop{},
	})
	if err == nil || !strings.Contains(err.Error(), "MaxSlots") {
		t.Fatalf("expected MaxSlots error, got %v", err)
	}
}

func TestProgramPanicPropagates(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	_, err := e.Run([]Stepper{
		&loop{n: 2, body: func(sc *StepCtx, k int) {
			if k == 1 {
				panic("protocol bug")
			}
			sc.Idle()
		}},
		&loop{n: 100, body: func(sc *StepCtx, _ int) { sc.Idle() }},
	})
	if err == nil || !strings.Contains(err.Error(), "protocol bug") || !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("expected node 0's panic to surface, got %v", err)
	}
}

func TestProgramCountMismatch(t *testing.T) {
	f := lineField(3, 0.5, 1)
	e := NewEngine(f, 1)
	if _, err := e.Run([]Stepper{&loop{}, &loop{}}); err == nil {
		t.Fatal("expected error for wrong stepper count")
	}
}

func TestEventsAndSlotCounter(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	_, err := e.Run([]Stepper{
		ops(
			func(sc *StepCtx) { sc.Idle() },
			func(sc *StepCtx) { sc.Idle() },
			func(sc *StepCtx) { sc.Emit("checkpoint", 7); sc.Idle() },
		),
		ops(func(sc *StepCtx) { sc.IdleFor(3) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := e.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Slot != 2 || evs[0].Node != 0 || evs[0].Name != "checkpoint" || evs[0].Value != 7 {
		t.Errorf("event = %+v", evs[0])
	}
}

func TestTraceObservesSlots(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	var slots, txCount, decoded int
	e.Trace = func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
		slots++
		txCount += len(txs)
		for _, r := range recs {
			if r.Decoded {
				decoded++
			}
		}
	}
	_, err := e.Run([]Stepper{
		&loop{n: 2, body: func(sc *StepCtx, k int) { sc.Transmit(0, k+1) }},
		&loop{n: 2, body: func(sc *StepCtx, _ int) { sc.Listen(0) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slots != 2 || txCount != 2 || decoded != 2 {
		t.Errorf("trace saw slots=%d txs=%d decoded=%d", slots, txCount, decoded)
	}
}

// TestNilProgramIsIdle: a node with an empty protocol — its Stepper powers
// down at its first step — stays idle while the others run, and the run
// lasts as long as they do.
func TestNilProgramIsIdle(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	slots, err := e.Run([]Stepper{&loop{}, ops(func(sc *StepCtx) { sc.IdleFor(2) })})
	if err != nil {
		t.Fatal(err)
	}
	if slots != 2 {
		t.Errorf("slots = %d, want 2", slots)
	}
}

func TestManyNodesManyChannels(t *testing.T) {
	// Smoke test at moderate scale: 200 nodes randomly chattering across 8
	// channels for 30 slots must not deadlock or race (run with -race).
	const n = 200
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%20) * 0.1, Y: float64(i/20) * 0.1}
	}
	f := phy.NewField(model.Default(8, n), pos)
	e := NewEngine(f, 7)
	steppers := make([]Stepper, n)
	for i := range steppers {
		steppers[i] = randomTalker(30, 8, 0.2, func(*StepCtx, phy.Reception) {})
	}
	slots, err := e.Run(steppers)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 30 {
		t.Errorf("slots = %d, want 30", slots)
	}
}
