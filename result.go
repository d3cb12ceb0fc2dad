package mcnet

import (
	"mcnet/internal/backbone"
	"mcnet/internal/coloring"
	"mcnet/internal/core"
)

// Event is a progress record streamed from a run: a node reached a named
// milestone at a slot. Observers registered via Network.Events receive
// every event as it happens; results also summarize them per stage.
type Event struct {
	// Slot is the global slot timestamp.
	Slot int
	// Node is the emitting node's index.
	Node int
	// Name is the milestone (see the Event* constants).
	Name string
	// Value is milestone-specific (e.g. the color for EventColored).
	Value int
}

// Milestone names carried by Event (aliases of the emitting stages'
// constants, so facade and pipeline cannot drift apart).
const (
	// EventAcked fires when a follower's value is first acknowledged by a
	// reporter (the Δ/F contention mechanism).
	EventAcked = core.EventAcked
	// EventClusterAgg fires at a dominator once its cluster aggregate is
	// complete, in the tree stage.
	EventClusterAgg = core.EventClusterAgg
	// EventBackboneAgg fires when the backbone root completes the
	// network-wide aggregate.
	EventBackboneAgg = backbone.EventAgg
	// EventBackboneResult fires when a dominator learns the final result
	// over the backbone.
	EventBackboneResult = backbone.EventResult
	// EventInformed fires when a node learns the final aggregate: a
	// dominator in the backbone stage, a member in the inform stage.
	EventInformed = core.EventInformed
	// EventColored fires when a node learns its final color (Color runs).
	EventColored = coloring.EventColored
)

// StageReport pairs one pipeline stage's slot budget with the completion
// events observed inside it.
type StageReport struct {
	// Name is the stage (dominate, color, announce, csa, elect, followers,
	// tree, backbone, inform).
	Name string
	// Start and End delimit the stage's budgeted slot window [Start, End).
	Start, End int
	// Events is how many milestone events fired within the window.
	Events int
	// LastEvent is the slot of the window's last milestone event, or -1 if
	// none fired: the observed completion time vs. the budgeted End.
	LastEvent int
}

// NodeResult is one node's outcome of an Aggregate run.
type NodeResult struct {
	// Value is the aggregate the node learned; Informed reports whether it
	// learned one.
	Value    int64
	Informed bool
	// IsDominator and IsReporter describe the node's structure role;
	// Dominator is its cluster head's index.
	IsDominator, IsReporter bool
	Dominator               int
	// ClusterColor is the cluster's TDMA color, SizeEstimate the cluster's
	// CSA size estimate, Channel the node's elected channel (-1 for
	// dominators).
	ClusterColor, SizeEstimate, Channel int
}

// AggregateResult is the outcome of Network.Aggregate.
type AggregateResult struct {
	// Value is the true fold of the inputs (the reference the network is
	// expected to learn).
	Value int64
	// Nodes holds the per-node outcomes.
	Nodes []NodeResult

	// Informed counts nodes that learned some aggregate, Exact those that
	// learned Value.
	Informed, Exact int
	// Dominators, Reporters and Followers count structure roles.
	Dominators, Reporters, Followers int

	// Slots is the number of slots the run actually consumed; BudgetSlots
	// is the schedule's conservative envelope; BuildSlots is the envelope
	// of structure construction (stages 1–5).
	Slots, BudgetSlots, BuildSlots int
	// AckSlots is when the last follower's value was acknowledged and
	// AggSlots when the last dominator knew the final aggregate, both
	// measured from the start of the aggregation phase (0 if unobserved):
	// the event-measured quantities the budgets envelope.
	AckSlots, AggSlots int

	// Stages reports per-stage budgets vs. observed completion events.
	Stages []StageReport
	// ChannelUtilization is, per channel, the fraction of consumed slots in
	// which at least one node transmitted on it.
	ChannelUtilization []float64

	// Faults reports what the fault layer did, when the network was built
	// with a fault option (Loss, Jamming, Churn) — nil on fault-free runs.
	Faults *FaultReport
}

// FaultReport summarizes the fault layer's activity during one Aggregate
// run. Present on AggregateResult only when the Network was built with a
// fault option; a zero-intensity option yields a report whose loss, jam and
// crash counts are all zero while the run replays the fault-free transcript.
type FaultReport struct {
	// Delivered counts decoded receptions handed to listeners; Lost counts
	// decoded receptions suppressed by the loss process. Their sum is every
	// successful decode of the SINR layer (after jamming). Both count only
	// receptions at nodes that listened in the slot: a node that has stopped
	// listening because nothing it could hear would change it (see the
	// listening rule in internal/sim) receives, and is counted, nothing.
	Delivered, Lost int
	// JammedSlotChannels counts (slot, channel) pairs the adversary jammed.
	JammedSlotChannels int
	// CrashedNodes lists the nodes whose crash slot fell inside the run,
	// ascending.
	CrashedNodes []int
	// ByzantineNodes lists the seeded Byzantine membership (the Byzantine
	// option), ascending; Corrupted counts payloads its members rewrote and
	// Dropped the transmissions they silently discarded.
	ByzantineNodes     []int
	Corrupted, Dropped int
	// Survivors counts honest nodes alive at the end of the run;
	// SurvivorsInformed and SurvivorsExact restrict the result's Informed
	// and Exact counts to them — the surviving-node aggregate correctness
	// under churn (crashed nodes legitimately never learn the aggregate).
	// Byzantine nodes are excluded from all survivor counts: the metrics
	// measure honest correctness, which is what degrades as the Byzantine
	// fraction grows.
	Survivors                         int
	SurvivorsInformed, SurvivorsExact int
	// SurvivorsAgreeing is the size of the largest set of informed honest
	// survivors that learned the same value. Under churn the full-input
	// fold is unreachable when nodes die before contributing, so exactness
	// degrades to consensus: survivors should still agree on one aggregate
	// of the values that made it in.
	SurvivorsAgreeing int
}

// NodeColor is one node's outcome of a Color run. Index and ClusterColor
// are backend-specific decompositions of Color: under sec7 the final color
// is Index·φ + ClusterColor mod φ (within-cluster index, cluster TDMA
// color); under hsb they are the multi-channel pair (slot Color/F, channel
// Color mod F); dplus1 sets Index = Color and ClusterColor = -1.
type NodeColor struct {
	// Color is the final color, or -1 if the node ended uncolored.
	Color int
	// Index and ClusterColor decompose Color per backend (see above).
	Index, ClusterColor int
	// IsDominator and IsReporter describe the node's structure role under
	// sec7; hsb marks its MIS leaders as dominators, dplus1 sets neither.
	IsDominator, IsReporter bool
}

// ColorResult is the outcome of Network.Color.
type ColorResult struct {
	// Backend names the coloring backend that produced the result (the
	// Colorer option; "sec7" by default).
	Backend string
	// Nodes holds the per-node outcomes.
	Nodes []NodeColor
	// Palette is the number of distinct colors used; Conflicts the number
	// of communication-graph edges whose endpoints share a color (0 for a
	// proper coloring); Uncolored the number of nodes without a color.
	Palette, Conflicts, Uncolored int
	// Slots is the number of slots the run consumed; ColorSlots is when the
	// last node was colored, measured from the end of the backend's setup
	// phase (structure construction for sec7 — the Theorem 24 quantity —
	// or the discovery sweep for dplus1/hsb).
	Slots, ColorSlots int
	// Rounds is the backend's native rounds-to-stabilize measure: slots for
	// sec7 (equal to ColorSlots), TDMA sweep epochs for dplus1 and hsb.
	Rounds int
	// Cycle is the TDMA cycle length the coloring induces: max color + 1
	// for the single-channel schedules of sec7 and dplus1, max slot + 1 for
	// hsb, whose F colors share each slot on distinct channels.
	Cycle int
}

// Colors returns the per-node final colors (-1 for uncolored nodes).
func (r *ColorResult) Colors() []int {
	out := make([]int, len(r.Nodes))
	for i, nc := range r.Nodes {
		out[i] = nc.Color
	}
	return out
}

// TDMAReport is the outcome of Network.VerifyTDMA: how well a coloring
// works as a collision-free broadcast schedule over the SINR layer.
type TDMAReport struct {
	// Cycle is the schedule length (max color + 1).
	Cycle int
	// Delivered counts directed communication-graph links over which the
	// scheduled broadcast was decoded; Links is the total, including the
	// outgoing edges of unscheduled nodes (which can never deliver).
	Delivered, Links int
	// Unscheduled counts nodes with a negative color: the cycle never
	// schedules them, so they only listen. A nonzero value explains a
	// Delivered < Links gap that is the palette's fault rather than the
	// SINR layer's.
	Unscheduled int
}

// GraphStats summarizes the communication graph induced by a network's
// layout at radius R_ε.
type GraphStats struct {
	MaxDegree int
	AvgDegree float64
	Connected bool
	// Diameter is a 2-approximation of the hop diameter, or -1 if the
	// graph is disconnected.
	Diameter int
}

// PlanInfo exposes the derived pipeline sizing of a Network.
type PlanInfo struct {
	// DeltaHat, PhiMax and HopBound are the resolved sizing parameters
	// (topology-derived unless overridden by options).
	DeltaHat, PhiMax, HopBound int
	// BuildSlots and BudgetSlots are the structure-construction and total
	// schedule envelopes.
	BuildSlots, BudgetSlots int
	// Stages lists the budgeted slot window of every pipeline stage.
	Stages []StageReport
}
