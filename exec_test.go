package mcnet

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// runExecIdentity builds the same network once per forced execution mode,
// runs Aggregate on identical inputs, and requires the results and the full
// event stream to match exactly. Everything a caller can observe — per-node
// results, stage reports, channel utilization, fault reports, milestone
// events — must be independent of the execution mode.
func runExecIdentity(t *testing.T, name string, n int, opts ...Option) {
	t.Helper()
	values := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		values = append(values, int64(2*i+1))
	}
	execIdentity(t, name, n, func(nw *Network) (*AggregateResult, error) {
		return nw.Aggregate(context.Background(), values[:nw.N()], Sum)
	}, opts...)
}

// runColorExecIdentity is runExecIdentity for Color: identical ColorResults
// and event streams under both execution modes.
func runColorExecIdentity(t *testing.T, name string, n int, opts ...Option) {
	t.Helper()
	execIdentity(t, name, n, func(nw *Network) (*ColorResult, error) {
		return nw.Color(context.Background())
	}, opts...)
}

// execIdentity runs verb on an n-node network built with opts once per
// forced execution mode and requires equal results and equal event streams
// (sorted, since goroutine-mode emission order is scheduling-dependent).
func execIdentity[R any](t *testing.T, name string, n int, verb func(*Network) (R, error), opts ...Option) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		run := func(mode ExecMode) (R, []Event) {
			nw, err := New(n, append([]Option{Exec(mode)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			var (
				mu     sync.Mutex
				events []Event
			)
			nw.Events(func(ev Event) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			})
			res, err := verb(nw)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(events, func(a, b int) bool {
				if events[a].Slot != events[b].Slot {
					return events[a].Slot < events[b].Slot
				}
				if events[a].Node != events[b].Node {
					return events[a].Node < events[b].Node
				}
				if events[a].Name != events[b].Name {
					return events[a].Name < events[b].Name
				}
				return events[a].Value < events[b].Value
			})
			return res, events
		}
		gRes, gEvents := run(ExecGoroutines)
		sRes, sEvents := run(ExecStepped)
		if !reflect.DeepEqual(gRes, sRes) {
			t.Fatalf("results differ:\n goroutines %+v\n stepped    %+v", gRes, sRes)
		}
		if !reflect.DeepEqual(gEvents, sEvents) {
			t.Fatalf("event streams differ: %d goroutine vs %d stepped events", len(gEvents), len(sEvents))
		}
	})
}

// TestAggregateExecIdentity is the facade-level golden of the execution-mode
// guarantee: ExecGoroutines and ExecStepped produce identical AggregateResults
// and event streams on the same network, across topologies, seeds and fault
// layers. Run under -cpu 1,2,8 in CI so worker-count schedulings are covered
// too.
func TestAggregateExecIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		runExecIdentity(t, "crowd", 48, Seed(seed), Channels(4))
	}
	runExecIdentity(t, "uniform", 72, Seed(5), Channels(8), WithTopology(Uniform(12)))
	runExecIdentity(t, "faults", 56, Seed(9), Channels(4),
		Loss(0.02),
		Jamming(1, JamOblivious),
		Churn(ChurnSpec{CrashAt: map[int]int{7: 40}, Rate: 0.05, From: 100}))
	runExecIdentity(t, "byzantine", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzEquivocate),
		Jamming(1, JamReactive))
	// Crash one of the Byzantine nodes mid-run (slot 40 falls inside the
	// build phase, where nodes spend most slots asleep in IdleFor): the
	// crash hook, the corruption hook and the reactive jammer must compose
	// identically in both engines. The membership is discovered from a
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
	runExecIdentity(t, "byzantine-crash", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzCorrupt),
		Jamming(1, JamAdaptive),
		Churn(ChurnSpec{CrashAt: map[int]int{byzNode: 40}}))
	if !testing.Short() {
		runExecIdentity(t, "grid", 100, Seed(11), Channels(8), WithTopology(Grid))
	}
}

// TestColorExecIdentity is TestAggregateExecIdentity for the default sec7
// Color: ExecGoroutines and ExecStepped give identical ColorResults and
// event streams across the topology suite and the fault layers. Run under
// -cpu 1,2,8 in CI.
func TestColorExecIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		runColorExecIdentity(t, "crowd", 48, Seed(seed), Channels(4))
	}
	runColorExecIdentity(t, "uniform", 72, Seed(5), Channels(8), WithTopology(Uniform(12)))
	runColorExecIdentity(t, "grid", 49, Seed(5), Channels(2), WithTopology(Grid))
	runColorExecIdentity(t, "line", 32, Seed(7), Channels(4), WithTopology(Line(0.7)))
	runColorExecIdentity(t, "ring", 32, Seed(9), Channels(2), WithTopology(Ring(0.7)))
	// Node 7 crashes at slot 40, inside structure construction.
	runColorExecIdentity(t, "faults", 56, Seed(9), Channels(4),
		Loss(0.02),
		Jamming(1, JamOblivious),
		Churn(ChurnSpec{CrashAt: map[int]int{7: 40}, Rate: 0.05, From: 100}))
	runColorExecIdentity(t, "byzantine", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzEquivocate),
		Jamming(1, JamReactive))
}

// TestParseExecMode pins the CLI/spec name mapping both ways.
func TestParseExecMode(t *testing.T) {
	for name, want := range map[string]ExecMode{
		"":           ExecAuto,
		"auto":       ExecAuto,
		"goroutines": ExecGoroutines,
		"stepped":    ExecStepped,
	} {
		got, err := ParseExecMode(name)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseExecMode("threads"); err == nil {
		t.Error("ParseExecMode accepted an unknown mode")
	}
	for _, m := range []ExecMode{ExecAuto, ExecGoroutines, ExecStepped} {
		back, err := ParseExecMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip of %v via %q failed: %v, %v", m, m.String(), back, err)
		}
	}
	if err := func() error { _, err := New(2, Exec(ExecMode(99))); return err }(); err == nil {
		t.Error("Exec accepted an out-of-range mode")
	}
}
