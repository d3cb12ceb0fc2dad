package mcnet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAggregateQuickstart is the quickstart scenario end-to-end: a dense
// 48-node crowd on 4 channels computing a sum. The network-wide fold must
// match, and essentially every node must learn the exact aggregate.
func TestAggregateQuickstart(t *testing.T) {
	const n = 48
	nw, err := New(n, Channels(4), Seed(42), WithTopology(Crowd))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(10 + i)
		want += values[i]
	}
	res, err := nw.Aggregate(context.Background(), values, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Errorf("Value = %d, want %d", res.Value, want)
	}
	if res.Exact < n*9/10 {
		t.Errorf("Exact = %d/%d, want ≥ 90%%", res.Exact, n)
	}
	if res.Dominators < 1 {
		t.Errorf("Dominators = %d, want ≥ 1", res.Dominators)
	}
	if res.Reporters < 1 {
		t.Errorf("Reporters = %d, want ≥ 1", res.Reporters)
	}
	if res.Slots <= 0 || res.Slots > res.BudgetSlots {
		t.Errorf("Slots = %d, want in (0, %d]", res.Slots, res.BudgetSlots)
	}
	if res.BuildSlots <= 0 || res.BuildSlots >= res.BudgetSlots {
		t.Errorf("BuildSlots = %d, BudgetSlots = %d: want 0 < build < budget",
			res.BuildSlots, res.BudgetSlots)
	}
	if res.AckSlots <= 0 {
		t.Errorf("AckSlots = %d, want > 0 (followers must be acknowledged)", res.AckSlots)
	}
	if len(res.Nodes) != n {
		t.Fatalf("len(Nodes) = %d, want %d", len(res.Nodes), n)
	}
	for i, nr := range res.Nodes {
		if nr.Informed && nr.Value != want && t.Failed() == false {
			t.Errorf("node %d informed with %d, want %d", i, nr.Value, want)
		}
	}
}

// TestAggregateMax checks a non-default operator and that repeated runs on
// one Network are deterministic.
func TestAggregateMax(t *testing.T) {
	const n = 32
	nw, err := New(n, Channels(4), Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64((i * 37) % 101)
	}
	r1, err := nw.Aggregate(context.Background(), values, Max)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := nw.Aggregate(context.Background(), values, Max)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != 100 {
		t.Errorf("Value = %d, want 100", r1.Value)
	}
	if r1.Slots != r2.Slots || r1.Exact != r2.Exact || r1.AckSlots != r2.AckSlots {
		t.Errorf("repeated runs diverged: (%d,%d,%d) vs (%d,%d,%d)",
			r1.Slots, r1.Exact, r1.AckSlots, r2.Slots, r2.Exact, r2.AckSlots)
	}
}

// TestAggregateCancelledContext: an already-cancelled context returns
// ctx.Err() without running the schedule.
func TestAggregateCancelledContext(t *testing.T) {
	const n = 32
	nw, err := New(n, Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = nw.Aggregate(ctx, make([]int64, n), Sum)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled run took %v, want prompt return", elapsed)
	}
}

// TestAggregateMidRunCancellation: cancelling mid-run aborts the round loop
// instead of finishing the schedule. The cancel comes from an event
// observer at the first milestone, so it strikes mid-run whatever the
// engine's speed.
func TestAggregateMidRunCancellation(t *testing.T) {
	const n = 96
	nw, err := New(n, Channels(1), Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu       sync.Mutex
		first    = -1
		informed bool
	)
	nw.Events(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if first < 0 {
			first = ev.Slot
			cancel()
		}
		if ev.Name == EventInformed {
			informed = true
		}
	})
	_, err = nw.Aggregate(ctx, make([]int64, n), Sum)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if first < 0 {
		t.Fatal("no milestone event before the run ended")
	}
	if informed {
		t.Errorf("run reached the inform stage after a cancel at slot %d", first)
	}
}

// TestAggregateValidation rejects malformed inputs.
func TestAggregateValidation(t *testing.T) {
	nw, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Aggregate(context.Background(), make([]int64, 5), Sum); err == nil {
		t.Error("wrong value count accepted")
	}
	if _, err := nw.Aggregate(context.Background(), make([]int64, 16), nil); err == nil {
		t.Error("nil aggregator accepted")
	}
}

// TestEventsStreaming: registered observers see milestone events live, with
// slots inside the schedule budget.
func TestEventsStreaming(t *testing.T) {
	const n = 32
	nw, err := New(n, Channels(4), Seed(9))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		total    int
		informed int
		maxSlot  int
	)
	nw.Events(func(ev Event) {
		mu.Lock()
		total++
		if ev.Name == EventInformed {
			informed++
		}
		if ev.Slot > maxSlot {
			maxSlot = ev.Slot
		}
		mu.Unlock()
	})
	res, err := nw.Aggregate(context.Background(), make([]int64, n), Sum)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if total == 0 {
		t.Fatal("no events streamed")
	}
	if informed != res.Informed {
		t.Errorf("streamed %d informed events, result says %d", informed, res.Informed)
	}
	// Events emitted after the final slot are stamped with the budget end.
	if maxSlot > res.BudgetSlots {
		t.Errorf("event slot %d outside budget %d", maxSlot, res.BudgetSlots)
	}
}

// TestChannelUtilization: the contention phase must use every available
// channel on a dense crowd.
func TestChannelUtilization(t *testing.T) {
	const n = 48
	nw, err := New(n, Channels(4), Seed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Aggregate(context.Background(), make([]int64, n), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChannelUtilization) != 4 {
		t.Fatalf("len(ChannelUtilization) = %d, want 4", len(res.ChannelUtilization))
	}
	for ch, u := range res.ChannelUtilization {
		if u < 0 || u > 1 {
			t.Errorf("channel %d utilization %v out of [0,1]", ch, u)
		}
		if u == 0 {
			t.Errorf("channel %d never used on a dense crowd", ch)
		}
	}
}

// TestStageReports: stage windows tile the budget and the follower stage
// observes acknowledgement events.
func TestStageReports(t *testing.T) {
	const n = 48
	nw, err := New(n, Channels(4), Seed(42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Aggregate(context.Background(), make([]int64, n), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 9 {
		t.Fatalf("len(Stages) = %d, want 9", len(res.Stages))
	}
	prev := 0
	for _, st := range res.Stages {
		if st.Start != prev {
			t.Errorf("stage %s starts at %d, want %d (stages must tile)", st.Name, st.Start, prev)
		}
		if st.End < st.Start {
			t.Errorf("stage %s window [%d, %d) inverted", st.Name, st.Start, st.End)
		}
		if st.LastEvent >= 0 && (st.LastEvent < st.Start || st.LastEvent > st.End) {
			t.Errorf("stage %s LastEvent %d outside window [%d, %d]", st.Name, st.LastEvent, st.Start, st.End)
		}
		prev = st.End
	}
	if prev != res.BudgetSlots {
		t.Errorf("stages end at %d, budget is %d", prev, res.BudgetSlots)
	}
	var followers StageReport
	for _, st := range res.Stages {
		if st.Name == "followers" {
			followers = st
		}
	}
	if followers.Events == 0 {
		t.Error("follower stage observed no acknowledgement events")
	}
}

// TestColorRun: the coloring verb yields a conflict-free palette on the
// dense crowd and the TDMA check delivers the links.
func TestColorRun(t *testing.T) {
	const n = 40
	nw, err := New(n, Channels(4), Seed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Color(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 {
		t.Errorf("Conflicts = %d, want 0", res.Conflicts)
	}
	if res.Uncolored > n/10 {
		t.Errorf("Uncolored = %d/%d, want ≤ 10%%", res.Uncolored, n)
	}
	if res.Palette < n-res.Uncolored {
		// On a clique-like crowd every colored node needs its own color.
		t.Errorf("Palette = %d with %d colored nodes on a crowd", res.Palette, n-res.Uncolored)
	}
	if res.ColorSlots <= 0 {
		t.Errorf("ColorSlots = %d, want > 0", res.ColorSlots)
	}

	rep, err := nw.VerifyTDMA(res.Colors())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Links == 0 || rep.Delivered < rep.Links*8/10 {
		t.Errorf("TDMA delivered %d/%d links, want ≥ 80%%", rep.Delivered, rep.Links)
	}
}

// TestColorBackendsViaFacade: each pluggable backend runs through the
// Colorer option, stamps its name on the result, and on the clique-like
// crowd yields a proper, complete coloring whose TDMA replay delivers every
// link.
func TestColorBackendsViaFacade(t *testing.T) {
	const n = 36
	for _, backend := range ColorerNames() {
		nw, err := New(n, Channels(4), Seed(13), Colorer(backend))
		if err != nil {
			t.Fatalf("%s: New: %v", backend, err)
		}
		res, err := nw.Color(context.Background())
		if err != nil {
			t.Fatalf("%s: Color: %v", backend, err)
		}
		if res.Backend != backend {
			t.Errorf("Backend = %q, want %q", res.Backend, backend)
		}
		if res.Conflicts != 0 {
			t.Errorf("%s: Conflicts = %d, want 0", backend, res.Conflicts)
		}
		if backend != "sec7" && res.Uncolored != 0 {
			t.Errorf("%s: Uncolored = %d, want 0", backend, res.Uncolored)
		}
		if res.Cycle <= 0 || res.Rounds <= 0 || res.ColorSlots <= 0 {
			t.Errorf("%s: implausible stats cycle=%d rounds=%d colorSlots=%d",
				backend, res.Cycle, res.Rounds, res.ColorSlots)
		}
		if backend == "hsb" && res.Cycle >= res.Palette {
			// F colors share each TDMA slot: the whole point of the backend.
			t.Errorf("hsb: Cycle = %d not shorter than palette %d", res.Cycle, res.Palette)
		}
		if res.Uncolored == 0 {
			rep, err := nw.VerifyTDMA(res.Colors())
			if err != nil {
				t.Fatalf("%s: VerifyTDMA: %v", backend, err)
			}
			if rep.Delivered != rep.Links {
				t.Errorf("%s: TDMA delivered %d/%d links", backend, rep.Delivered, rep.Links)
			}
		}
	}
}

// TestColorerOptionValidation: unknown backend names are rejected at New
// time with the valid set.
func TestColorerOptionValidation(t *testing.T) {
	_, err := New(16, Colorer("rainbow"))
	if err == nil {
		t.Fatal("Colorer(\"rainbow\") accepted")
	}
	if !strings.Contains(err.Error(), "rainbow") || !strings.Contains(err.Error(), "sec7") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestColorCancellation: Color honors context cancellation too.
func TestColorCancellation(t *testing.T) {
	nw, err := New(32, Seed(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nw.Color(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestColorMidRunCancellation cancels a running Color from a Network.Events
// observer at the first colored event (the end of procedure 3) and requires
// context.Canceled. No wall-clock deadline is involved: the cancel is
// observed between slots, so procedure 4 never colors the followers.
func TestColorMidRunCancellation(t *testing.T) {
	const n = 64
	nw, err := New(n, Channels(2), Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu          sync.Mutex
		first, last = -1, -1
		colored     int
	)
	nw.Events(func(ev Event) {
		if ev.Name != EventColored {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if first < 0 {
			first = ev.Slot
			cancel()
		}
		last = ev.Slot
		colored++
	})
	_, err = nw.Color(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if first < 0 {
		t.Fatal("no colored event before the run ended")
	}
	if last > first+1 || colored >= n {
		t.Errorf("%d nodes colored through slot %d after a cancel at slot %d", colored, last, first)
	}
}

// TestNewValidation rejects malformed construction options.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		opts []Option
	}{
		{"tiny n", 1, nil},
		{"zero channels", 16, []Option{Channels(0)}},
		{"nil topology", 16, []Option{WithTopology(nil)}},
		{"bad line spacing", 16, []Option{WithTopology(Line(0))}},
		{"bad ring spacing", 16, []Option{WithTopology(Ring(1.5))}},
		{"bad corridor length", 16, []Option{WithTopology(Corridor(0))}},
		{"bad hotspot shape", 16, []Option{WithTopology(Hotspot(0, 16, 6, 0.07))}},
	}
	for _, tc := range cases {
		if _, err := New(tc.n, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestCustomAggregator: user-supplied operators plug in like built-ins.
func TestCustomAggregator(t *testing.T) {
	const n = 32
	or := NewAggregator("or", 0, func(a, b int64) int64 { return a | b })
	nw, err := New(n, Channels(4), Seed(13))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = 1 << (i % 8)
	}
	res, err := nw.Aggregate(context.Background(), values, or)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0xff {
		t.Errorf("Value = %#x, want 0xff", res.Value)
	}
	if res.Exact < n*9/10 {
		t.Errorf("Exact = %d/%d, want ≥ 90%%", res.Exact, n)
	}
}
