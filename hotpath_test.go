package mcnet

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mcnet/internal/sim"
)

// TestVerifyTDMAUnscheduled: a partially uncolored palette must be reported
// — unscheduled nodes never transmit, so Delivered undercounts against a
// Links total that still includes their edges, and the report says why.
func TestVerifyTDMAUnscheduled(t *testing.T) {
	const n = 24
	nw, err := New(n, Channels(2), Seed(5), WithTopology(Grid))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := nw.Color(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full := cr.Colors()
	fullRep, err := nw.VerifyTDMA(full)
	if err != nil {
		t.Fatal(err)
	}
	if fullRep.Unscheduled != cr.Uncolored {
		t.Errorf("Unscheduled = %d, want %d (the coloring's uncolored count)", fullRep.Unscheduled, cr.Uncolored)
	}

	// Uncolor two nodes by hand.
	partial := append([]int(nil), full...)
	partial[0], partial[1] = -1, -5
	rep, err := nw.VerifyTDMA(partial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unscheduled != cr.Uncolored+2 {
		t.Errorf("Unscheduled = %d, want %d", rep.Unscheduled, cr.Uncolored+2)
	}
	if rep.Links != fullRep.Links {
		t.Errorf("Links changed: %d vs %d — totals must keep counting unscheduled nodes' edges", rep.Links, fullRep.Links)
	}
	// Note: no assertion on Delivered vs the full palette — unscheduling a
	// node can legitimately raise or lower deliveries (it removes both its
	// own broadcasts and its interference). Cycle is also unasserted: it
	// shrinks if an uncolored node uniquely held the max color.
	if rep.Delivered <= 0 {
		t.Errorf("partial palette delivered nothing")
	}

	// An all-unscheduled palette is a zero-length cycle, not a phantom
	// one-slot schedule.
	none := make([]int, n)
	for i := range none {
		none[i] = -1
	}
	empty, err := nw.VerifyTDMA(none)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Cycle != 0 || empty.Delivered != 0 || empty.Unscheduled != n {
		t.Errorf("all-negative palette: %+v, want Cycle=0 Delivered=0 Unscheduled=%d", empty, n)
	}
	if empty.Links != fullRep.Links {
		t.Errorf("Links changed for all-negative palette: %d vs %d", empty.Links, fullRep.Links)
	}

	// A stray huge color must cost per color in use, not per cycle slot:
	// this would loop for hours if VerifyTDMA resolved every slot.
	huge := append([]int(nil), full...)
	huge[2] = 1 << 30
	hugeRep, err := nw.VerifyTDMA(huge)
	if err != nil {
		t.Fatal(err)
	}
	if hugeRep.Cycle != 1<<30+1 {
		t.Errorf("Cycle = %d, want %d", hugeRep.Cycle, 1<<30+1)
	}
	// A dedicated slot can only help the moved node (it broadcasts without
	// contention), so deliveries must stay positive and at least match the
	// full palette's.
	if hugeRep.Delivered < fullRep.Delivered {
		t.Errorf("huge-color Delivered = %d < full palette's %d", hugeRep.Delivered, fullRep.Delivered)
	}
}

// TestObserveStagesClampsTrailing: events landing strictly past the final
// stage's budget end must be clamped into the final stage so per-stage
// totals agree with the engine's event log.
func TestObserveStagesClampsTrailing(t *testing.T) {
	stages := []StageReport{
		{Name: "a", Start: 0, End: 10, LastEvent: -1},
		{Name: "b", Start: 10, End: 20, LastEvent: -1},
	}
	events := []sim.Event{
		{Slot: 0, Name: "x"},   // stage a
		{Slot: 9, Name: "x"},   // stage a
		{Slot: 10, Name: "x"},  // stage b
		{Slot: 20, Name: "x"},  // at budget end: final stage
		{Slot: 137, Name: "x"}, // past budget end: clamped into final stage
	}
	got := observeStages(stages, events)
	if got[0].Events != 2 || got[0].LastEvent != 9 {
		t.Errorf("stage a: %+v", got[0])
	}
	if got[1].Events != 3 || got[1].LastEvent != 137 {
		t.Errorf("stage b: %+v", got[1])
	}
	total := got[0].Events + got[1].Events
	if total != len(events) {
		t.Errorf("stage totals %d disagree with event log %d", total, len(events))
	}
}

// TestAggregateTranscriptInvariants is the facade-level golden-transcript
// check: equal options produce deeply equal results run over run, and the
// performance knobs (worker fan-out) change nothing but wall-clock time.
func TestAggregateTranscriptInvariants(t *testing.T) {
	const n = 64
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i * 3)
	}
	run := func(opts ...Option) *AggregateResult {
		t.Helper()
		nw, err := New(n, append([]Option{Channels(4), Seed(11)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Aggregate(context.Background(), values, Sum)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	if again := run(); !reflect.DeepEqual(base, again) {
		t.Error("equal seeds produced different aggregate results")
	}
	if serial := run(Parallelism(1)); !reflect.DeepEqual(base, serial) {
		t.Error("Parallelism(1) changed the transcript")
	}
	if wide := run(Parallelism(8)); !reflect.DeepEqual(base, wide) {
		t.Error("Parallelism(8) changed the transcript")
	}
}

// TestPerformanceOptionValidation covers the performance options' argument
// checks.
func TestPerformanceOptionValidation(t *testing.T) {
	if _, err := New(8, Parallelism(-1)); err == nil {
		t.Error("Parallelism(-1) should fail")
	}
	if _, err := New(8, FarFieldTolerance(-0.5)); err == nil {
		t.Error("FarFieldTolerance(-0.5) should fail")
	}
	if _, err := New(8, FarFieldTolerance(0)); err == nil || !strings.Contains(err.Error(), "Exact()") {
		t.Errorf("FarFieldTolerance(0) should fail and point at Exact(), got %v", err)
	}
	if _, err := New(8, ResolverCellSize(0)); err == nil {
		t.Error("ResolverCellSize(0) should fail")
	}
	if _, err := New(8, ResolverCellSize(-2)); err == nil {
		t.Error("ResolverCellSize(-2) should fail")
	}
	if _, err := New(8, Parallelism(4), FarFieldTolerance(0.25), ResolverCellSize(0.3)); err != nil {
		t.Errorf("valid performance options rejected: %v", err)
	}
	if _, err := New(8, Exact()); err != nil {
		t.Errorf("Exact() rejected: %v", err)
	}
}

// TestAggregateResolverModes: every resolver configuration runs the whole
// pipeline and computes the right aggregate on a dense crowd. The crowd
// fits inside one grid cell, so the hierarchical resolver degenerates to
// the exact kernel and all configurations are transcript-identical.
func TestAggregateResolverModes(t *testing.T) {
	const n = 48
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	run := func(opts ...Option) *AggregateResult {
		t.Helper()
		nw, err := New(n, append([]Option{Channels(4), Seed(42)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Aggregate(context.Background(), values, Sum)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run()
	exact := run(Exact())
	approx := run(FarFieldTolerance(0.1))
	coarse := run(ResolverCellSize(1.5))
	for name, res := range map[string]*AggregateResult{
		"default": def, "exact": exact, "tol0.1": approx, "coarse": coarse,
	} {
		if res.Value != want {
			t.Fatalf("%s: fold = %d, want %d", name, res.Value, want)
		}
	}
	if !reflect.DeepEqual(def, exact) {
		t.Error("hierarchical default diverged from exact mode on an all-near-field crowd")
	}
	if !reflect.DeepEqual(def, approx) {
		t.Error("far-field tolerance diverged on an all-near-field workload")
	}
}
