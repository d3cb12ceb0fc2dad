package sim

import (
	"strings"
	"sync/atomic"
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

func TestSimpleExchange(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	var got atomic.Value
	progs := []Program{
		func(ctx *Ctx) { ctx.Transmit(0, "ping") },
		func(ctx *Ctx) { got.Store(ctx.Listen(0)) },
	}
	slots, err := e.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 1 {
		t.Errorf("slots = %d, want 1", slots)
	}
	rec := got.Load().(phy.Reception)
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
	progs := []Program{
		func(ctx *Ctx) {
			ctx.Transmit(0, 1)
			ctx.Idle()
			ctx.Transmit(0, 3)
		},
		func(ctx *Ctx) {
			for i := 0; i < 3; i++ {
				recs[i] = ctx.Listen(0)
			}
		},
	}
	if _, err := e.Run(progs); err != nil {
		t.Fatal(err)
	}
	if !recs[0].Decoded || recs[0].Msg != 1 {
		t.Errorf("slot 0: %+v", recs[0])
	}
	if recs[1].Decoded || recs[1].RSSI() != 0 {
		t.Errorf("slot 1 should be silent: %+v", recs[1])
	}
	if !recs[2].Decoded || recs[2].Msg != 3 {
		t.Errorf("slot 2: %+v", recs[2])
	}
}

func TestEarlyReturnBecomesIdle(t *testing.T) {
	// Node 0 returns immediately; nodes 1 and 2 keep exchanging. The run
	// lasts as long as the longest program.
	f := lineField(3, 0.4, 1)
	e := NewEngine(f, 1)
	heard := 0
	progs := []Program{
		func(ctx *Ctx) {},
		func(ctx *Ctx) {
			for i := 0; i < 5; i++ {
				ctx.Transmit(0, i)
			}
		},
		func(ctx *Ctx) {
			for i := 0; i < 5; i++ {
				if ctx.Listen(0).Decoded {
					heard++
				}
			}
		},
	}
	slots, err := e.Run(progs)
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

func TestDeterminism(t *testing.T) {
	// Two identical runs produce identical transcripts of random decisions.
	run := func() []int {
		f := lineField(8, 0.3, 2)
		e := NewEngine(f, 42)
		out := make([]int, 8)
		progs := make([]Program, 8)
		for i := 0; i < 8; i++ {
			i := i
			progs[i] = func(ctx *Ctx) {
				acc := 0
				for s := 0; s < 50; s++ {
					ch := ctx.Rand.Intn(2)
					if ctx.Rand.Float64() < 0.3 {
						ctx.Transmit(ch, ctx.ID())
					} else if rec := ctx.Listen(ch); rec.Decoded {
						acc = acc*31 + rec.From + 7
					}
				}
				out[i] = acc
			}
		}
		if _, err := e.Run(progs); err != nil {
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
		var total atomic.Int64
		progs := make([]Program, 4)
		for i := 0; i < 4; i++ {
			progs[i] = func(ctx *Ctx) {
				for s := 0; s < 40; s++ {
					if ctx.Rand.Float64() < 0.5 {
						ctx.Transmit(0, 1)
					} else if ctx.Listen(0).Decoded {
						total.Add(1)
					}
				}
			}
		}
		if _, err := e.Run(progs); err != nil {
			t.Fatal(err)
		}
		return int(total.Load())
	}
	if run(1) == run(2) && run(3) == run(4) && run(1) == run(3) {
		t.Error("different seeds produced suspiciously identical outcomes")
	}
}

func TestMaxSlotsAborts(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	e.MaxSlots = 10
	progs := []Program{
		func(ctx *Ctx) {
			for {
				ctx.Idle()
			}
		},
		func(ctx *Ctx) {},
	}
	_, err := e.Run(progs)
	if err == nil || !strings.Contains(err.Error(), "MaxSlots") {
		t.Fatalf("expected MaxSlots error, got %v", err)
	}
}

func TestProgramPanicPropagates(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	progs := []Program{
		func(ctx *Ctx) {
			ctx.Idle()
			panic("protocol bug")
		},
		func(ctx *Ctx) {
			for i := 0; i < 100; i++ {
				ctx.Idle()
			}
		},
	}
	_, err := e.Run(progs)
	if err == nil || !strings.Contains(err.Error(), "protocol bug") {
		t.Fatalf("expected panic to surface, got %v", err)
	}
}

func TestProgramCountMismatch(t *testing.T) {
	f := lineField(3, 0.5, 1)
	e := NewEngine(f, 1)
	if _, err := e.Run(make([]Program, 2)); err == nil {
		t.Fatal("expected error for wrong program count")
	}
}

func TestEventsAndSlotCounter(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	progs := []Program{
		func(ctx *Ctx) {
			ctx.Idle()
			ctx.Idle()
			ctx.Emit("checkpoint", 7)
			ctx.Idle()
		},
		func(ctx *Ctx) { ctx.IdleFor(3) },
	}
	if _, err := e.Run(progs); err != nil {
		t.Fatal(err)
	}
	evs := e.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Slot != 2 || evs[0].Node != 0 || evs[0].Name != "checkpoint" || evs[0].Value != 7 {
		t.Errorf("event = %+v", evs[0])
	}
	e.ResetEvents()
	if len(e.Events()) != 0 {
		t.Error("ResetEvents did not clear")
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
	progs := []Program{
		func(ctx *Ctx) { ctx.Transmit(0, 1); ctx.Transmit(0, 2) },
		func(ctx *Ctx) { ctx.Listen(0); ctx.Listen(0) },
	}
	if _, err := e.Run(progs); err != nil {
		t.Fatal(err)
	}
	if slots != 2 || txCount != 2 || decoded != 2 {
		t.Errorf("trace saw slots=%d txs=%d decoded=%d", slots, txCount, decoded)
	}
}

func TestNilProgramIsIdle(t *testing.T) {
	f := lineField(2, 0.5, 1)
	e := NewEngine(f, 1)
	progs := []Program{nil, func(ctx *Ctx) { ctx.IdleFor(2) }}
	slots, err := e.Run(progs)
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
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = func(ctx *Ctx) {
			for s := 0; s < 30; s++ {
				ch := ctx.Rand.Intn(8)
				if ctx.Rand.Float64() < 0.2 {
					ctx.Transmit(ch, ctx.ID())
				} else {
					ctx.Listen(ch)
				}
			}
		}
	}
	slots, err := e.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 30 {
		t.Errorf("slots = %d, want 30", slots)
	}
}
