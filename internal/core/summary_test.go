package core

import (
	"context"
	"reflect"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/fault"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// summaryCrowd returns a single-cluster crowd, its plan and input values.
func summaryCrowd(n int) ([]int64, *Plan, *phy.Field) {
	p := model.Default(4, n)
	pos := topology.Crowd(topology.LayoutRand(3), n, p.ClusterRadius())
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i + 1)
	}
	return values, NewPlan(p, cfg), phy.NewField(p, pos)
}

// TestRunSummaryCrowd checks the summary of a fault-free crowd against the
// per-node results and the engine's event log.
func TestRunSummaryCrowd(t *testing.T) {
	const n = 40
	values, pl, field := summaryCrowd(n)
	e := sim.NewEngine(field, 7)
	s, err := RunSummary(context.Background(), e, pl, values, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if s.Want != n*(n+1)/2 {
		t.Errorf("Want = %d, want %d", s.Want, n*(n+1)/2)
	}
	doms, reps := 0, 0
	for _, r := range s.Results {
		if r.IsDominator {
			doms++
		} else if r.IsReporter {
			reps++
		}
	}
	if s.Dominators != doms || s.Reporters != reps || s.Followers != n-doms-reps {
		t.Errorf("roles %d/%d/%d, results say %d/%d/%d",
			s.Dominators, s.Reporters, s.Followers, doms, reps, n-doms-reps)
	}
	if s.Informed != n || s.Exact != n {
		t.Errorf("informed %d, exact %d of %d", s.Informed, s.Exact, n)
	}

	events := e.Events()
	acked, lastAck, lastResult, rootAgg := 0, -1, -1, -1
	for _, ev := range events {
		switch ev.Name {
		case EventAcked:
			acked++
			lastAck = max(lastAck, ev.Slot)
		case backbone.EventResult:
			lastResult = max(lastResult, ev.Slot)
		case backbone.EventAgg:
			rootAgg = max(rootAgg, ev.Slot)
		}
	}
	if acked == 0 || rootAgg < 0 {
		t.Fatalf("crowd run emitted %d acks and backbone-agg at %d", acked, rootAgg)
	}
	if s.FollowersAcked != acked || acked != s.Followers {
		t.Errorf("FollowersAcked = %d, %d acked events, %d followers", s.FollowersAcked, acked, s.Followers)
	}
	o := pl.Offsets
	if s.AckSlots != lastAck-o.Followers || s.AckSlots <= 0 || s.AckSlots >= o.Tree-o.Followers {
		t.Errorf("AckSlots = %d, last ack at %d, followers window [%d, %d)", s.AckSlots, lastAck, o.Followers, o.Tree)
	}
	if s.AggSlots != max(lastResult, rootAgg)-o.Followers || s.AggSlots < s.AckSlots {
		t.Errorf("AggSlots = %d, last result at %d, root aggregate at %d", s.AggSlots, lastResult, rootAgg)
	}
	castStart := o.Backbone + pl.Tree.PhiMax*(pl.Tree.BuildBlocks+pl.Tree.ChildBlocks)
	if s.CastDelay != rootAgg-castStart || s.CastDelay < 0 {
		t.Errorf("CastDelay = %d, root aggregate at %d, convergecast from %d", s.CastDelay, rootAgg, castStart)
	}

	total := 0
	for i, st := range s.Stages {
		total += st.Events
		if st.Start != pl.Stages()[i].Start || st.End != pl.Stages()[i].End {
			t.Errorf("stage %s window [%d, %d) differs from the plan's", st.Name, st.Start, st.End)
		}
	}
	if len(s.Stages) != 9 || total != len(events) {
		t.Errorf("%d stages hold %d events, log has %d", len(s.Stages), total, len(events))
	}
	if s.Faults != nil || s.Survivors != (fault.SurvivorTally{}) {
		t.Errorf("fault-free run reported faults %+v, tally %+v", s.Faults, s.Survivors)
	}
}

// TestRunSummaryCrashExcluded: a follower that crashes right after its
// value was acknowledged drops out of the survivor tally, while the
// survivors still learn the full fold it contributed to.
func TestRunSummaryCrashExcluded(t *testing.T) {
	const n = 30
	values, pl, field := summaryCrowd(n)
	run := func(crashAt map[int]int) (*Summary, *sim.Engine) {
		t.Helper()
		e := sim.NewEngine(field, 11)
		spec := fault.Spec{CrashAt: crashAt}
		e.Faults = fault.NewInjector(spec, 11, n, pl.Params.Channels, pl.Offsets.End)
		s, err := RunSummary(context.Background(), e, pl, values, agg.Sum)
		if err != nil {
			t.Fatal(err)
		}
		return s, e
	}

	base, e := run(nil)
	if base.Survivors.Survivors != n || base.Survivors.Exact != n {
		t.Fatalf("crash-free tally %+v, want all %d nodes exact survivors", base.Survivors, n)
	}
	victim, ackedAt := -1, 0
	for _, ev := range e.Events() {
		if ev.Name == EventAcked {
			victim, ackedAt = ev.Node, ev.Slot
			break
		}
	}
	if victim < 0 {
		t.Fatal("no follower was acknowledged")
	}

	s, _ := run(map[int]int{victim: ackedAt + 1})
	if s.Faults == nil || !reflect.DeepEqual(s.Faults.CrashedNodes, []int{victim}) {
		t.Fatalf("crash report %+v, want node %d crashed", s.Faults, victim)
	}
	informed, exact := 0, 0
	for i, r := range s.Results {
		if i != victim && r.Ok {
			informed++
			if r.Value == s.Want {
				exact++
			}
		}
	}
	want := fault.SurvivorTally{Survivors: n - 1, Informed: informed, Exact: exact, Agreeing: exact}
	if s.Survivors != want || exact != n-1 {
		t.Errorf("survivor tally %+v, want %+v with all %d survivors exact", s.Survivors, want, n-1)
	}
}

// TestObserveStagesClampsTrailing: events landing strictly past the final
// stage's budget end must be clamped into the final stage so per-stage
// totals agree with the engine's event log.
func TestObserveStagesClampsTrailing(t *testing.T) {
	stages := []StageWindow{
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

// TestMilestonesAtTheirSlot: milestone events carry the slot at which the
// milestone happens, not the end of the stage window that contains it. On
// a 30-node crowd the reporter-tree root's cluster-agg lands inside the
// tree window, the dominator's informed inside the backbone window, and a
// member's informed when it decodes the result, before Offsets.End.
func TestMilestonesAtTheirSlot(t *testing.T) {
	const n = 30
	values, pl, field := summaryCrowd(n)
	e := sim.NewEngine(field, 5)
	s, err := RunSummary(context.Background(), e, pl, values, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if s.Informed != n || s.Dominators != 1 {
		t.Fatalf("crowd informed %d of %d with %d dominators", s.Informed, n, s.Dominators)
	}
	o := pl.Offsets
	clusterAgg, informed, atEnd := 0, 0, 0
	for _, ev := range e.Events() {
		switch ev.Name {
		case EventClusterAgg:
			clusterAgg++
			if ev.Slot < o.Tree || ev.Slot >= o.Backbone {
				t.Errorf("cluster-agg at slot %d, outside the tree window [%d, %d)", ev.Slot, o.Tree, o.Backbone)
			}
		case EventInformed:
			informed++
			if ev.Slot < o.Backbone || ev.Slot > o.End {
				t.Errorf("informed at slot %d, outside [%d, %d]", ev.Slot, o.Backbone, o.End)
			}
			if ev.Slot == o.End {
				atEnd++
			}
		}
	}
	if clusterAgg != s.Dominators || informed != n {
		t.Errorf("%d cluster-agg and %d informed events, want %d and %d", clusterAgg, informed, s.Dominators, n)
	}
	if atEnd == informed {
		t.Errorf("all %d informed events sit at Offsets.End = %d", informed, o.End)
	}
	if tree := s.Stages[6]; tree.Name != "tree" || tree.Events == 0 {
		t.Errorf("tree window %+v holds no milestone event", tree)
	}
}
