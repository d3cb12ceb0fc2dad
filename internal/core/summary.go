package core

import (
	"context"

	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/fault"
	"mcnet/internal/sim"
)

// Summary is the outcome of one pipeline run, measured from the per-node
// results and the engine's event log. It is the one place a run's metrics
// are derived: the mcnet facade and the experiment suite both read it.
type Summary struct {
	// Results holds the per-node outcomes.
	Results []Result
	// Want is op.Fold(values), the aggregate every node should learn.
	Want int64
	// Dominators, Reporters and Followers count structure roles.
	Dominators, Reporters, Followers int
	// Informed counts nodes that learned some aggregate, Exact those that
	// learned Want.
	Informed, Exact int
	// FollowersAcked counts the followers whose value was acknowledged.
	FollowersAcked int
	// AckSlots is when the last follower was acknowledged (the Δ/F
	// mechanism of Lemma 21) and AggSlots when the last dominator knew the
	// final aggregate (Theorem 22's quantity up to the fixed intra-cluster
	// announce), both measured from Offsets.Followers; 0 if unobserved.
	AckSlots, AggSlots int
	// CastDelay is when the backbone root completed the aggregate,
	// measured from the start of the backbone convergecast phase (the
	// D-sensitive part); 0 if unobserved.
	CastDelay int
	// Stages pairs every stage's budgeted window with the events observed
	// inside it.
	Stages []StageWindow
	// Faults is the report of the engine's *fault.Injector, nil when none
	// is attached. Survivors then restricts Informed and Exact to the
	// honest nodes alive at run end; it is zero without an injector.
	Faults    *fault.Report
	Survivors fault.SurvivorTally
}

// StageWindow pairs one pipeline stage's budgeted slot window
// [Start, End) with the milestone events observed inside it.
type StageWindow struct {
	// Name is the stage (dominate, color, announce, csa, elect, followers,
	// tree, backbone, inform).
	Name string
	// Start and End delimit the budgeted window.
	Start, End int
	// Events is how many milestone events fired within the window.
	Events int
	// LastEvent is the slot of the window's last milestone event, or -1 if
	// none fired.
	LastEvent int
}

// Stages lists the budgeted slot window of every pipeline stage, with no
// events observed.
func (pl *Plan) Stages() []StageWindow {
	o := pl.Offsets
	mk := func(name string, start, end int) StageWindow {
		return StageWindow{Name: name, Start: start, End: end, LastEvent: -1}
	}
	return []StageWindow{
		mk("dominate", o.Dominate, o.Color),
		mk("color", o.Color, o.Announce),
		mk("announce", o.Announce, o.CSA),
		mk("csa", o.CSA, o.Elect),
		mk("elect", o.Elect, o.Followers),
		mk("followers", o.Followers, o.Tree),
		mk("tree", o.Tree, o.Backbone),
		mk("backbone", o.Backbone, o.Inform),
		mk("inform", o.Inform, o.End),
	}
}

// RunSummary runs the pipeline on a prepared engine, like RunContext, and
// summarizes the run. When e.Faults is a *fault.Injector, its report and
// survivor tally are part of the summary.
func RunSummary(ctx context.Context, e *sim.Engine, pl *Plan, values []int64, op agg.Op) (*Summary, error) {
	res, err := RunContext(ctx, e, pl, values, op, 0)
	if err != nil {
		return nil, err
	}
	events := e.Events()
	s := &Summary{Results: res, Want: op.Fold(values), Stages: observeStages(pl.Stages(), events)}
	for _, r := range res {
		switch {
		case r.IsDominator:
			s.Dominators++
		case r.IsReporter:
			s.Reporters++
		default:
			s.Followers++
		}
		if r.Ok {
			s.Informed++
			if r.Value == s.Want {
				s.Exact++
			}
		}
	}

	lastAck, lastResult, rootAgg := 0, 0, 0
	for _, ev := range events {
		switch ev.Name {
		case EventAcked:
			s.FollowersAcked++
			lastAck = max(lastAck, ev.Slot)
		case backbone.EventResult:
			lastResult = max(lastResult, ev.Slot)
		case backbone.EventAgg:
			rootAgg = max(rootAgg, ev.Slot)
		}
	}
	aggStart := pl.Offsets.Followers
	if lastAck > 0 {
		s.AckSlots = lastAck - aggStart
	}
	if done := max(lastResult, rootAgg); done > 0 {
		s.AggSlots = done - aggStart
	}
	if rootAgg > 0 {
		castStart := pl.Offsets.Backbone + pl.Tree.PhiMax*(pl.Tree.BuildBlocks+pl.Tree.ChildBlocks)
		s.CastDelay = rootAgg - castStart
	}

	if inj, ok := e.Faults.(*fault.Injector); ok {
		rep := inj.Report()
		s.Faults = &rep
		s.Survivors = rep.TallySurvivors(len(res), func(i int) (bool, int64) {
			return res[i].Ok, res[i].Value
		}, s.Want)
	}
	return s, nil
}

// observeStages fills each stage window with the milestone events that
// fired inside it. Events whose slot lands at or beyond the final stage's
// budget end — nodes that consumed their whole schedule — are clamped into
// the final stage, so the per-stage event totals always sum to the
// engine's event log.
func observeStages(stages []StageWindow, events []sim.Event) []StageWindow {
	for _, ev := range events {
		for i := range stages {
			last := i == len(stages)-1
			if ev.Slot >= stages[i].Start && (ev.Slot < stages[i].End || last) {
				stages[i].Events++
				stages[i].LastEvent = max(stages[i].LastEvent, ev.Slot)
				break
			}
		}
	}
	return stages
}
