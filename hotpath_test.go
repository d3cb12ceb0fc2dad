package mcnet

import (
	"context"
	"reflect"
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
// check: equal options produce deeply equal results run over run. That
// the resolver's worker fan-out changes nothing is pinned in phy
// (TestParallelMatchesSerial) and by CI's -cpu 1,2,8 golden reruns.
func TestAggregateTranscriptInvariants(t *testing.T) {
	const n = 64
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i * 3)
	}
	run := func() *AggregateResult {
		t.Helper()
		nw, err := New(n, Channels(4), Seed(11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Aggregate(context.Background(), values, Sum)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if base, again := run(), run(); !reflect.DeepEqual(base, again) {
		t.Error("equal seeds produced different aggregate results")
	}
}
