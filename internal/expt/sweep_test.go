package expt

import (
	"context"
	"errors"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// TestSweepCancelsMidRun: cancelling Options.Ctx aborts an in-flight
// pipeline run instead of letting it play out its whole schedule.
func TestSweepCancelsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 48
	p := model.Default(4, n)
	pos := Crowd(p, n, 1)
	values, _ := sequentialValues(n)
	pl := core.NewPlan(p, crowdSizing(n).config(p))

	slots := 0
	_, err := sweep(Options{Parallel: 1, Ctx: ctx}, 1, func(ctx context.Context, _ int) (*core.Summary, error) {
		e := sim.NewEngine(phy.NewField(p, pos), 1)
		e.EventSink = func(sim.Event) { cancel() }
		e.Trace = func(int, []phy.Tx, []phy.Rx, []phy.Reception) { slots++ }
		return core.RunSummary(ctx, e, pl, values, agg.Sum)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if slots == 0 || slots >= pl.Offsets.End {
		t.Errorf("run stopped after %d slots, want 0 < slots < %d (the budget)", slots, pl.Offsets.End)
	}
}
