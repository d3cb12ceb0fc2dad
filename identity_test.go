package mcnet

import (
	"context"
	"sync"
	"testing"

	"mcnet/internal/golden"
)

// runAggregateGolden runs Aggregate on an n-node network built with opts and
// checks its result and event stream against the golden.
func runAggregateGolden(t *testing.T, name string, n int, opts ...Option) {
	t.Helper()
	values := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		values = append(values, int64(2*i+1))
	}
	facadeGolden(t, name, n, func(nw *Network) (*AggregateResult, error) {
		return nw.Aggregate(context.Background(), values[:nw.N()], Sum)
	}, opts...)
}

// runColorGolden is runAggregateGolden for Color.
func runColorGolden(t *testing.T, name string, n int, opts ...Option) {
	t.Helper()
	facadeGolden(t, name, n, func(nw *Network) (*ColorResult, error) {
		return nw.Color(context.Background())
	}, opts...)
}

// facadeGolden runs verb on an n-node network built with opts and checks
// everything a caller can observe — per-node results, stage reports,
// channel utilization, fault reports, slot count and the milestone event
// stream — against the digest the goroutine engine recorded (testdata).
// The facade exposes no slot trace; the pipeline's transcripts are pinned
// by internal/core's TestRunSteppedIdentity.
func facadeGolden[R any](t *testing.T, name string, n int, verb func(*Network) (R, error), opts ...Option) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		nw, err := New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rec := golden.NewRecorder()
		var mu sync.Mutex
		nw.Events(func(ev Event) {
			mu.Lock()
			rec.Event(ev.Slot, ev.Node, ev.Name, ev.Value)
			mu.Unlock()
		})
		res, err := verb(nw)
		if err != nil {
			t.Fatal(err)
		}
		d := rec.Digest(t, res)
		switch r := any(res).(type) {
		case *AggregateResult:
			d.Slots = r.Slots
		case *ColorResult:
			d.Slots = r.Slots
		}
		golden.Check(t, "", d)
	})
}

// TestAggregateExecIdentity pins Aggregate's results and event streams to
// the ones the goroutine engine produced, across topologies, seeds and
// fault layers. Run under -cpu 1,2,8 in CI so worker-count schedulings are
// covered too.
func TestAggregateExecIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		runAggregateGolden(t, "crowd", 48, Seed(seed), Channels(4))
	}
	runAggregateGolden(t, "uniform", 72, Seed(5), Channels(8), WithTopology(Uniform(12)))
	runAggregateGolden(t, "faults", 56, Seed(9), Channels(4),
		Loss(0.02),
		Jamming(1, JamOblivious),
		Churn(ChurnSpec{CrashAt: map[int]int{7: 40}, Rate: 0.05, From: 100}))
	runAggregateGolden(t, "byzantine", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzEquivocate),
		Jamming(1, JamReactive))
	// Crash one of the Byzantine nodes mid-run (slot 40 falls inside the
	// build phase, where nodes spend most slots asleep in IdleFor): the
	// crash hook, the corruption hook and the reactive jammer must compose
	// identically. The membership is discovered from a
	// scout run so the test stays honest if the seeded selection changes.
	scout, err := New(56, Seed(13), Channels(4), Byzantine(0.2, ByzCorrupt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scout.Aggregate(context.Background(), seqValues(56), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || len(res.Faults.ByzantineNodes) == 0 {
		t.Fatal("scout run reported no Byzantine nodes")
	}
	byzNode := res.Faults.ByzantineNodes[0]
	runAggregateGolden(t, "byzantine-crash", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzCorrupt),
		Jamming(1, JamAdaptive),
		Churn(ChurnSpec{CrashAt: map[int]int{byzNode: 40}}))
	if !testing.Short() {
		runAggregateGolden(t, "grid", 100, Seed(11), Channels(8), WithTopology(Grid))
	}
}

// TestColorExecIdentity is TestAggregateExecIdentity for the default sec7
// Color, across the topology suite and the fault layers. Run under -cpu
// 1,2,8 in CI.
func TestColorExecIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		runColorGolden(t, "crowd", 48, Seed(seed), Channels(4))
	}
	runColorGolden(t, "uniform", 72, Seed(5), Channels(8), WithTopology(Uniform(12)))
	runColorGolden(t, "grid", 49, Seed(5), Channels(2), WithTopology(Grid))
	runColorGolden(t, "line", 32, Seed(7), Channels(4), WithTopology(Line(0.7)))
	runColorGolden(t, "ring", 32, Seed(9), Channels(2), WithTopology(Ring(0.7)))
	// Node 7 crashes at slot 40, inside structure construction.
	runColorGolden(t, "faults", 56, Seed(9), Channels(4),
		Loss(0.02),
		Jamming(1, JamOblivious),
		Churn(ChurnSpec{CrashAt: map[int]int{7: 40}, Rate: 0.05, From: 100}))
	runColorGolden(t, "byzantine", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzEquivocate),
		Jamming(1, JamReactive))
}
