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

// transcriptHash runs the given programs and folds every resolved slot —
// transmissions, listens, and reception outcomes in engine order — plus the
// sorted event log into one hash. Two runs with equal hashes behaved
// identically slot by slot.
func transcriptHash(t *testing.T, f *phy.Field, seed uint64, progs []Program) (uint64, int) {
	t.Helper()
	return engineTranscriptHash(t, NewEngine(f, seed), progs)
}

// engineTranscriptHash is transcriptHash over a caller-configured engine
// (field, seed, slot caps).
func engineTranscriptHash(t *testing.T, e *Engine, progs []Program) (uint64, int) {
	t.Helper()
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
	slots, err := e.Run(progs)
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

func chatterPrograms(n, channels, slots int, emit bool) []Program {
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = func(ctx *Ctx) {
			heard := 0
			for s := 0; s < slots; s++ {
				switch {
				case ctx.Rand.Float64() < 0.25:
					ctx.Transmit(ctx.Rand.Intn(channels), ctx.ID()*1000+s)
				case ctx.Rand.Float64() < 0.2:
					ctx.IdleFor(1 + ctx.Rand.Intn(5))
				default:
					if ctx.Listen(ctx.Rand.Intn(channels)).Decoded {
						heard++
					}
				}
			}
			if emit {
				ctx.Emit("heard", heard)
			}
		}
	}
	return progs
}

// TestGoldenTranscript is the seed-determinism contract for the barrier
// engine and resolver stack: equal seeds produce bit-identical slot
// transcripts and event logs, run after run, with or without listener
// fan-out in the SINR layer.
func TestGoldenTranscript(t *testing.T) {
	const n = 64
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%8) * 0.3, Y: float64(i/8) * 0.3}
	}
	p := model.Default(3, n)

	mk := func(parallelism int) (uint64, int) {
		f := phy.NewField(p, pos)
		f.SetParallelism(parallelism)
		return transcriptHash(t, f, 99, chatterPrograms(n, 3, 40, true))
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
	if hOther, _ := func() (uint64, int) {
		f := phy.NewField(p, pos)
		return transcriptHash(t, f, 100, chatterPrograms(n, 3, 40, true))
	}(); hOther == h1 {
		t.Error("different seeds produced identical transcripts")
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
		progs := make([]Program, n)
		for i := range progs {
			progs[i] = func(ctx *Ctx) {
				for s := 0; s < 12; s++ {
					k := 1 + ctx.Rand.Intn(7)
					switch {
					case ctx.Rand.Float64() < 0.4:
						if batched {
							ctx.IdleFor(k)
						} else {
							for j := 0; j < k; j++ {
								ctx.Idle()
							}
						}
					case ctx.Rand.Float64() < 0.5:
						ctx.Transmit(ctx.Rand.Intn(2), s)
					default:
						ctx.Listen(ctx.Rand.Intn(2))
					}
				}
				ctx.Emit("done", ctx.Slot())
			}
		}
		return transcriptHash(t, phy.NewField(p, pos), 17, progs)
	}
	hBatch, sBatch := run(true)
	hLoop, sLoop := run(false)
	if hBatch != hLoop || sBatch != sLoop {
		t.Fatalf("IdleFor batches diverge from idle loops: %x/%d vs %x/%d", hBatch, sBatch, hLoop, sLoop)
	}
}

// TestAllNodesIdle: when every live node is mid-IdleFor the engine
// fast-forwards slots without a barrier round; slot accounting, traces and
// wakeups stay exact.
func TestAllNodesIdle(t *testing.T) {
	f := lineField(3, 0.4, 1)
	e := NewEngine(f, 1)
	var traced int
	e.Trace = func(int, []phy.Tx, []phy.Rx, []phy.Reception) { traced++ }
	after := make([]int, 3)
	progs := []Program{
		func(ctx *Ctx) { ctx.IdleFor(50); after[0] = ctx.Slot() },
		func(ctx *Ctx) { ctx.IdleFor(30); ctx.IdleFor(20); after[1] = ctx.Slot() },
		func(ctx *Ctx) { ctx.Idle(); ctx.IdleFor(49); after[2] = ctx.Slot() },
	}
	slots, err := e.Run(progs)
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
// after all other programs returned.
func TestIdlerOutlivesEveryone(t *testing.T) {
	f := lineField(2, 0.4, 1)
	e := NewEngine(f, 1)
	woke := false
	progs := []Program{
		func(ctx *Ctx) { ctx.Transmit(0, 1) },
		func(ctx *Ctx) { ctx.IdleFor(25); woke = true },
	}
	slots, err := e.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 25 || !woke {
		t.Errorf("slots = %d, woke = %v", slots, woke)
	}
}

// TestCancelDuringIdleBatch: cancellation reaches nodes parked inside an
// IdleFor batch.
func TestCancelDuringIdleBatch(t *testing.T) {
	f := lineField(2, 0.4, 1)
	e := NewEngine(f, 1)
	ctx, cancel := context.WithCancel(context.Background())
	progs := []Program{
		func(c *Ctx) { c.IdleFor(1 << 20) },
		func(c *Ctx) {
			for i := 0; ; i++ {
				if i == 10 {
					cancel()
				}
				c.Idle()
			}
		},
	}
	if _, err := e.RunContext(ctx, progs); err != context.Canceled {
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

// TestAbortDeliversNoStaleReception: when the engine aborts, nodes parked
// at the barrier are freed but their slot was never resolved — step must
// unwind, not hand the program a reception left over from an earlier slot.
func TestAbortDeliversNoStaleReception(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	e.MaxSlots = 2
	var msgs []any
	progs := []Program{
		func(ctx *Ctx) {
			for i := 0; ; i++ {
				ctx.Transmit(0, i)
			}
		},
		func(ctx *Ctx) {
			for {
				if rec := ctx.Listen(0); rec.Decoded {
					msgs = append(msgs, rec.Msg)
				}
			}
		},
	}
	_, err := e.Run(progs)
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
	progs := []Program{
		func(ctx *Ctx) { ctx.IdleFor(1 << 20) },
		func(ctx *Ctx) { ctx.IdleFor(1 << 20) },
	}
	_, err := e.Run(progs)
	if err == nil {
		t.Fatal("expected MaxSlots error")
	}
}
