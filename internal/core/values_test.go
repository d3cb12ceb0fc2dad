package core

import (
	"context"
	"strings"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// TestRunRejectsWrongValuesLength: a mismatched values slice must surface
// as an error instead of being silently replaced by zeros (which would
// corrupt the aggregate while the run "succeeds").
func TestRunRejectsWrongValuesLength(t *testing.T) {
	p := model.Default(2, 8)
	pos := []geo.Point{{X: 0}, {X: 0.01}, {X: 0.02}, {X: 0.03}}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = len(pos)
	pl := NewPlan(p, cfg)

	for _, wrong := range [][]int64{nil, make([]int64, 2), make([]int64, 5)} {
		e := sim.NewEngine(phy.NewField(p, pos), 1)
		_, err := RunContext(context.Background(), e, pl, wrong, agg.Sum, 1)
		if err == nil {
			t.Fatalf("len %d: expected error, got nil", len(wrong))
		}
		if !strings.Contains(err.Error(), "values") {
			t.Errorf("len %d: error should mention values: %v", len(wrong), err)
		}
	}

	// The matching length still runs.
	e := sim.NewEngine(phy.NewField(p, pos), 1)
	if _, err := RunContext(context.Background(), e, pl, make([]int64, len(pos)), agg.Sum, 1); err != nil {
		t.Fatalf("correct length failed: %v", err)
	}
}
