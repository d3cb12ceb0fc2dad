package expt

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/model"
)

// TestFaultSweepsQuick: each fault experiment runs in quick mode and
// renders a table with its headline column.
func TestFaultSweepsQuick(t *testing.T) {
	o := Options{Seeds: 1, Quick: true}
	cases := []struct {
		id, col string
	}{
		{"f1", "loss"},
		{"f2", "jammed"},
		{"f3", "crash_rate"},
	}
	for _, tc := range cases {
		runner, ok := ByName(tc.id)
		if !ok {
			t.Fatalf("experiment %q not registered", tc.id)
		}
		tb, err := runner(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if !strings.Contains(tb.CSV(), tc.col) {
			t.Errorf("%s: missing column %q:\n%s", tc.id, tc.col, tb.CSV())
		}
		if len(tb.Rows) < 2 {
			t.Errorf("%s: only %d sweep rows", tc.id, len(tb.Rows))
		}
	}
}

// TestRunAggFaultsDeterminism: equal (seed, spec) pairs reproduce identical
// summaries and fault reports; a zero spec matches the fault-free runner.
func TestRunAggFaultsDeterminism(t *testing.T) {
	const n, f = 40, 4
	ctx := context.Background()
	p := model.Default(f, n)
	pos := Crowd(p, n, 3)
	values, _ := sequentialValues(n)
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2

	spec := fault.Spec{LossProb: 0.1, JamChannels: 1, JamModel: fault.JamRoundRobin, CrashRate: 0.1}
	m1, err := RunAggFaults(ctx, pos, p, cfg, values, agg.Sum, 99, spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunAggFaults(ctx, pos, p, cfg, values, agg.Sum, 99, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("same seed+spec diverged:\n%+v\n%+v", m1, m2)
	}

	plain, err := aggregate(ctx, pos, p, cfg, values, 99)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := RunAggFaults(ctx, pos, p, cfg, values, agg.Sum, 99, fault.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	zrep := *zero.Faults
	if zrep.Lost != 0 || zrep.JammedSlotChannels != 0 || len(zrep.CrashedNodes) != 0 {
		t.Errorf("zero spec reported faults: %+v", zrep)
	}
	if tl := zero.Survivors; tl.Survivors != n || tl.Informed != zero.Informed || tl.Exact != zero.Exact {
		t.Errorf("zero spec survivor tally %+v: every node must survive", tl)
	}
	zero.Faults, zero.Survivors = nil, fault.SurvivorTally{}
	if !reflect.DeepEqual(plain, zero) {
		t.Errorf("zero spec diverged from fault-free run:\n%+v\n%+v", plain, zero)
	}

	if _, err := RunAggFaults(ctx, pos, p, cfg, values, agg.Sum, 1, fault.Spec{LossProb: 2}); err == nil {
		t.Error("invalid spec accepted")
	}
}
