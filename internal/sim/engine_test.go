package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// transcriptHash runs the given steppers and folds every resolved slot —
// transmissions, listens, and reception outcomes in engine order — plus the
// sorted event log into one hash. Two runs with equal hashes behaved
// identically slot by slot.
func transcriptHash(t *testing.T, f *phy.Field, seed uint64, steppers []Stepper) (uint64, int) {
	t.Helper()
	e := NewEngine(f, seed)
	h := fnv.New64a()
	e.Trace = func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
		fmt.Fprintf(h, "slot %d|", slot)
		for _, tx := range txs {
			fmt.Fprintf(h, "t%d.%d:%v|", tx.Node, tx.Channel, tx.Msg)
		}
		for i, rx := range rxs {
			r := recs[i]
			fmt.Fprintf(h, "r%d.%d:%v,%d,%x,%x|", rx.Node, rx.Channel,
				r.Decoded, r.From,
				math.Float64bits(r.SignalPower), math.Float64bits(r.Interference))
		}
	}
	slots, err := e.Run(steppers)
	if err != nil {
		t.Fatal(err)
	}
	evs := e.Events()
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Name < b.Name
	})
	for _, ev := range evs {
		fmt.Fprintf(h, "e%d.%d.%s.%d|", ev.Slot, ev.Node, ev.Name, ev.Value)
	}
	return h.Sum64(), slots
}

// chatters returns n chatterStepper nodes running rounds rounds.
func chatters(n, rounds int) []Stepper {
	steppers := make([]Stepper, n)
	for i := range steppers {
		steppers[i] = &chatterStepper{rounds: rounds}
	}
	return steppers
}

// TestGoldenTranscript is the seed-determinism contract for the engine and
// resolver stack: equal seeds produce bit-identical slot transcripts and
// event logs, run after run, with or without listener fan-out in the SINR
// layer.
func TestGoldenTranscript(t *testing.T) {
	const n = 64
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%8) * 0.3, Y: float64(i/8) * 0.3}
	}
	p := model.Default(4, n)

	mk := func(parallelism int) (uint64, int) {
		f := phy.NewField(p, pos)
		f.SetParallelism(parallelism)
		return transcriptHash(t, f, 99, chatters(n, 40))
	}
	h1, s1 := mk(1)
	h2, s2 := mk(1)
	h8, s8 := mk(8)
	if h1 != h2 || s1 != s2 {
		t.Errorf("equal seeds diverged: %x/%d vs %x/%d", h1, s1, h2, s2)
	}
	if h1 != h8 || s1 != s8 {
		t.Errorf("parallel resolution changed the transcript: %x/%d vs %x/%d", h1, s1, h8, s8)
	}
	if hOther, _ := transcriptHash(t, phy.NewField(p, pos), 100, chatters(n, 40)); hOther == h1 {
		t.Error("different seeds produced identical transcripts")
	}
}

// idleBatcher idles through random spans either as one IdleFor batch or
// as single Idle slots, interleaved with transmits and listens.
type idleBatcher struct {
	batched bool
	s, left int
}

func (b *idleBatcher) Step(sc *StepCtx) {
	if b.left > 0 {
		b.left--
		sc.Idle()
		return
	}
	if b.s == 12 {
		sc.Emit("done", sc.Slot())
		sc.Done()
		return
	}
	s := b.s
	b.s++
	k := 1 + sc.Rand.Intn(7)
	switch {
	case sc.Rand.Float64() < 0.4:
		if b.batched {
			sc.IdleFor(k)
		} else {
			b.left = k - 1
			sc.Idle()
		}
	case sc.Rand.Float64() < 0.5:
		sc.Transmit(sc.Rand.Intn(2), s)
	default:
		sc.Listen(sc.Rand.Intn(2))
	}
}

// TestIdleForMatchesIdleLoop: the batched IdleFor fast path is
// transcript-equivalent to idling slot by slot.
func TestIdleForMatchesIdleLoop(t *testing.T) {
	const n = 16
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i) * 0.2}
	}
	p := model.Default(2, n)

	run := func(batched bool) (uint64, int) {
		steppers := make([]Stepper, n)
		for i := range steppers {
			steppers[i] = &idleBatcher{batched: batched}
		}
		return transcriptHash(t, phy.NewField(p, pos), 17, steppers)
	}
	hBatch, sBatch := run(true)
	hLoop, sLoop := run(false)
	if hBatch != hLoop || sBatch != sLoop {
		t.Fatalf("IdleFor batches diverge from idle loops: %x/%d vs %x/%d", hBatch, sBatch, hLoop, sLoop)
	}
}

// TestAllNodesIdle: when every live node is mid-IdleFor the engine
// fast-forwards slots without stepping anyone; slot accounting, traces and
// wakeups stay exact.
func TestAllNodesIdle(t *testing.T) {
	f := lineField(3, 0.4, 1)
	e := NewEngine(f, 1)
	var traced int
	e.Trace = func(int, []phy.Tx, []phy.Rx, []phy.Reception) { traced++ }
	after := make([]int, 3)
	record := func(i int) func(sc *StepCtx) { return func(sc *StepCtx) { after[i] = sc.Slot() } }
	idleFor := func(k int) func(sc *StepCtx) { return func(sc *StepCtx) { sc.IdleFor(k) } }
	s0, s1, s2 := ops(idleFor(50)), ops(idleFor(30), idleFor(20)), ops(func(sc *StepCtx) { sc.Idle() }, idleFor(49))
	s0.end, s1.end, s2.end = record(0), record(1), record(2)
	slots, err := e.Run([]Stepper{s0, s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if slots != 50 || traced != 50 {
		t.Errorf("slots = %d, traced = %d, want 50", slots, traced)
	}
	for i, got := range after {
		if got != 50 {
			t.Errorf("node %d resumed at slot %d, want 50", i, got)
		}
	}
}

// TestIdlerOutlivesEveryone: a long idle batch must keep the run alive
// after all other nodes powered down.
func TestIdlerOutlivesEveryone(t *testing.T) {
	f := lineField(2, 0.4, 1)
	e := NewEngine(f, 1)
	woke := false
	idler := ops(func(sc *StepCtx) { sc.IdleFor(25) })
	idler.end = func(*StepCtx) { woke = true }
	slots, err := e.Run([]Stepper{ops(func(sc *StepCtx) { sc.Transmit(0, 1) }), idler})
	if err != nil {
		t.Fatal(err)
	}
	if slots != 25 || !woke {
		t.Errorf("slots = %d, woke = %v", slots, woke)
	}
}

// TestCancelDuringIdleBatch: cancellation ends a run whose other node is
// asleep inside a long IdleFor batch.
func TestCancelDuringIdleBatch(t *testing.T) {
	f := lineField(2, 0.4, 1)
	e := NewEngine(f, 1)
	ctx, cancel := context.WithCancel(context.Background())
	steppers := []Stepper{
		ops(func(sc *StepCtx) { sc.IdleFor(1 << 20) }),
		&loop{n: 1 << 30, body: func(sc *StepCtx, k int) {
			if k == 10 {
				cancel()
			}
			sc.Idle()
		}},
	}
	if _, err := e.RunContext(ctx, steppers); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestZeroNodeRun: an empty field completes immediately with zero slots
// instead of fast-forwarding empty slots to the MaxSlots guard.
func TestZeroNodeRun(t *testing.T) {
	f := phy.NewField(model.Default(1, 2), nil)
	e := NewEngine(f, 1)
	slots, err := e.Run(nil)
	if err != nil || slots != 0 {
		t.Errorf("Run = %d, %v; want 0, nil", slots, err)
	}
}

// TestAbortDeliversNoStaleReception: when the engine aborts, the slot in
// progress is never resolved and no node is stepped again, so a listener
// observes exactly the resolved slots' messages.
func TestAbortDeliversNoStaleReception(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	e.MaxSlots = 2
	var msgs []any
	_, err := e.Run([]Stepper{
		&loop{n: 1 << 30, body: func(sc *StepCtx, k int) { sc.Transmit(0, k) }},
		&loop{n: 1 << 30, body: func(sc *StepCtx, k int) {
			if rec := sc.Prev(); k > 0 && rec.Decoded {
				msgs = append(msgs, rec.Msg)
			}
			sc.Listen(0)
		}},
	})
	if err == nil {
		t.Fatal("expected MaxSlots abort")
	}
	// Exactly the two resolved slots' messages; a stale third delivery
	// would duplicate slot 1's message.
	if len(msgs) != 2 || msgs[0] != 0 || msgs[1] != 1 {
		t.Errorf("listener observed %v, want [0 1]", msgs)
	}
}

// TestMaxSlotsDuringIdleFastForward: the MaxSlots guard also fires while
// the engine is fast-forwarding an all-idle stretch.
func TestMaxSlotsDuringIdleFastForward(t *testing.T) {
	f := lineField(2, 0.4, 1)
	e := NewEngine(f, 1)
	e.MaxSlots = 40
	sleep := func(sc *StepCtx) { sc.IdleFor(1 << 20) }
	if _, err := e.Run([]Stepper{ops(sleep), ops(sleep)}); err == nil {
		t.Fatal("expected MaxSlots error")
	}
}
