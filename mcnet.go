package mcnet

import (
	"context"
	"fmt"
	"sync"

	"mcnet/internal/coloring"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/graph"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Network is the public entry point: a fixed node deployment under the SINR
// model, ready to run the paper's protocols. Build one with New, then call
// Aggregate or Color; every run is a deterministic function of the
// construction options (topology, channels, seed, faults).
//
// A Network is safe for concurrent use; each run simulates on its own
// engine.
type Network struct {
	settings // the options New was called with
	// deploy holds the positions and model parameters. Every run (and
	// every withFaults copy) resolves over it, so its link-gain table is
	// built once, on the first run rather than in New.
	deploy *phy.Deployment
	cfg    core.Config
	plan   *core.Plan

	mu        sync.Mutex
	observers []func(Event)
	// dispatchMu serializes observer calls across concurrent runs, so one
	// registered observer never runs reentrantly even when two Aggregate
	// calls (each with its own engine) overlap.
	dispatchMu sync.Mutex
}

// New builds a network of n nodes. Defaults: 4 channels, the Crowd
// topology and seed 1. The model is fixed: the paper's standard SINR
// parameters (α=3, β=1.5, ε=0.3, R_T=1), the size estimate n̂ = n, and
// pipeline sizing (Δ̂, φ, hop bound) from the topology's Defaults.
// Topologies with an intrinsic size (e.g. Hotspot) may override n; N
// reports the actual count.
func New(n int, opts ...Option) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("mcnet: n = %d must be ≥ 2", n)
	}
	s := defaultSettings()
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if v, ok := s.topo.(topologyValidator); ok {
		if err := v.validate(); err != nil {
			return nil, err
		}
	}

	p := model.Default(s.channels, n)
	g := geometryOf(p)
	pts := s.topo.Layout(n, s.seed, g)
	if len(pts) < 2 {
		return nil, fmt.Errorf("mcnet: topology %q produced %d nodes, need ≥ 2", s.topo.Name(), len(pts))
	}
	n = len(pts)
	p.NEstimate = n

	// Sizing: topology-derived defaults, generic fallbacks for zero fields.
	d := s.topo.Defaults(n, g)
	if d.DeltaHat <= 0 {
		d.DeltaHat = n
	}
	if d.PhiMax <= 0 {
		d.PhiMax = 10
	}
	if d.HopBound <= 0 {
		d.HopBound = 8
	}
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = min(d.DeltaHat, n)
	cfg.PhiMax = d.PhiMax
	cfg.HopBound = d.HopBound

	// The fault spec can only be validated once the deployment's true n and
	// channel count are fixed (crash sets name node IDs, jamming must leave
	// a usable channel).
	if s.faulted {
		if err := s.faults.Validate(n, p.Channels); err != nil {
			return nil, fmt.Errorf("mcnet: %w", err)
		}
	}

	return &Network{
		settings: s,
		deploy:   phy.NewDeployment(p, toGeo(pts)),
		cfg:      cfg,
		plan:     core.NewPlan(p, cfg),
	}, nil
}

// N returns the node count.
func (nw *Network) N() int { return nw.deploy.N() }

// Channels returns the channel count F.
func (nw *Network) Channels() int { return nw.deploy.Params().Channels }

// Seed returns the run seed.
func (nw *Network) Seed() uint64 { return nw.seed }

// TopologyName returns the topology's name.
func (nw *Network) TopologyName() string { return nw.topo.Name() }

// Positions returns the node coordinates.
func (nw *Network) Positions() []Point { return fromGeo(nw.deploy.Positions()) }

// Geometry returns the radii derived from the SINR parameters.
func (nw *Network) Geometry() Geometry { return geometryOf(nw.deploy.Params()) }

// geometryOf is the single params → Geometry mapping, shared by New (for
// topology layout/sizing) and Network.Geometry.
func geometryOf(p model.Params) Geometry {
	return Geometry{
		TransmissionRange: p.RT(),
		CommRadius:        p.REps(),
		ClusterRadius:     p.ClusterRadius(),
	}
}

// Stats measures the communication graph induced by the layout at R_ε.
func (nw *Network) Stats() GraphStats {
	g := graph.Build(nw.deploy.Positions(), nw.deploy.Params().REps())
	return GraphStats{
		MaxDegree: g.MaxDegree(),
		AvgDegree: g.AvgDegree(),
		Connected: g.Connected(),
		Diameter:  g.DiameterApprox(),
	}
}

// Plan exposes the derived pipeline sizing and stage budgets.
func (nw *Network) Plan() PlanInfo {
	return PlanInfo{
		DeltaHat:    nw.cfg.DeltaHat,
		PhiMax:      nw.cfg.PhiMax,
		HopBound:    nw.cfg.HopBound,
		BuildSlots:  nw.plan.Offsets.Followers,
		BudgetSlots: nw.plan.Offsets.End,
		Stages:      stageWindows(nw.plan),
	}
}

// Events registers an observer that receives every milestone Event as runs
// emit them. Calls are serialized but arrive on the simulator's step
// workers; the observer must be fast and must not call back into the
// Network.
func (nw *Network) Events(fn func(Event)) {
	if fn == nil {
		return
	}
	nw.mu.Lock()
	nw.observers = append(nw.observers, fn)
	nw.mu.Unlock()
}

// newEngine builds a per-run engine with event streaming and (when fault
// options were given) a fresh fault injector attached; callers install
// their own Trace for slot and channel accounting. The injector is returned
// so runs can surface its Report — nil when the network is fault-free.
func (nw *Network) newEngine() (*sim.Engine, *fault.Injector) {
	e := sim.NewEngine(nw.deploy.NewField(), nw.seed)
	if nw.maxSlots > 0 {
		e.MaxSlots = nw.maxSlots
	}
	var inj *fault.Injector
	if nw.faulted {
		inj = fault.NewInjector(nw.faults, nw.seed, nw.N(), nw.Channels(), nw.plan.Offsets.End)
		e.Faults = inj
	}
	nw.mu.Lock()
	observers := make([]func(Event), len(nw.observers))
	copy(observers, nw.observers)
	nw.mu.Unlock()
	if len(observers) > 0 {
		e.EventSink = func(ev sim.Event) {
			pub := Event{Slot: ev.Slot, Node: ev.Node, Name: ev.Name, Value: ev.Value}
			nw.dispatchMu.Lock()
			defer nw.dispatchMu.Unlock()
			for _, fn := range observers {
				fn(pub)
			}
		}
	}
	return e, inj
}

// Aggregate runs the full multichannel pipeline: structure construction
// followed by data aggregation of values (one per node) under op. The run
// aborts promptly with ctx.Err() if ctx is cancelled.
func (nw *Network) Aggregate(ctx context.Context, values []int64, op Aggregator) (*AggregateResult, error) {
	n := nw.N()
	if len(values) != n {
		return nil, fmt.Errorf("mcnet: %d values for %d nodes", len(values), n)
	}
	if op == nil {
		return nil, fmt.Errorf("mcnet: nil aggregator")
	}

	busySlots := make([]int, nw.Channels())
	seen := make([]bool, nw.Channels())
	slots := 0
	e, inj := nw.newEngine()
	e.Trace = func(_ int, txs []phy.Tx, _ []phy.Rx, _ []phy.Reception) {
		slots++
		for i := range seen {
			seen[i] = false
		}
		for _, tx := range txs {
			if tx.Channel >= 0 && tx.Channel < len(seen) && !seen[tx.Channel] {
				seen[tx.Channel] = true
				busySlots[tx.Channel]++
			}
		}
	}

	aop := toOp(op)
	res, err := core.RunContext(ctx, e, nw.plan, values, aop, nw.seed)
	if err != nil {
		return nil, err
	}

	out := &AggregateResult{
		Value:       aop.Fold(values),
		Nodes:       make([]NodeResult, n),
		Slots:       slots,
		BudgetSlots: nw.plan.Offsets.End,
		BuildSlots:  nw.plan.Offsets.Followers,
	}
	for i, r := range res {
		out.Nodes[i] = NodeResult{
			Value:        r.Value,
			Informed:     r.Ok,
			IsDominator:  r.IsDominator,
			IsReporter:   r.IsReporter,
			Dominator:    r.Dominator,
			ClusterColor: r.Color,
			SizeEstimate: r.SizeEst,
			Channel:      r.Channel,
		}
		switch {
		case r.IsDominator:
			out.Dominators++
		case r.IsReporter:
			out.Reporters++
		default:
			out.Followers++
		}
		if r.Ok {
			out.Informed++
			if r.Value == out.Value {
				out.Exact++
			}
		}
	}

	events := e.Events()
	aggStart := nw.plan.Offsets.Followers
	lastAck, lastDone := 0, 0
	for _, ev := range events {
		switch ev.Name {
		case EventAcked:
			if ev.Slot > lastAck {
				lastAck = ev.Slot
			}
		case EventBackboneAgg, EventBackboneResult:
			if ev.Slot > lastDone {
				lastDone = ev.Slot
			}
		}
	}
	if lastAck > 0 {
		out.AckSlots = lastAck - aggStart
	}
	if lastDone > 0 {
		out.AggSlots = lastDone - aggStart
	}
	out.Stages = observeStages(stageWindows(nw.plan), events)
	out.ChannelUtilization = make([]float64, len(busySlots))
	if slots > 0 {
		for i, b := range busySlots {
			out.ChannelUtilization[i] = float64(b) / float64(slots)
		}
	}
	if inj != nil {
		out.Faults = faultReportOf(inj.Report(), out)
	}
	return out, nil
}

// faultReportOf converts an injector's run summary into the public report,
// restricting the informed/exact counts to the nodes that survived.
func faultReportOf(rep fault.Report, out *AggregateResult) *FaultReport {
	tally := rep.TallySurvivors(len(out.Nodes), func(i int) (bool, int64) {
		return out.Nodes[i].Informed, out.Nodes[i].Value
	}, out.Value)
	return &FaultReport{
		Delivered:          rep.Delivered,
		Lost:               rep.Lost,
		JammedSlotChannels: rep.JammedSlotChannels,
		CrashedNodes:       rep.CrashedNodes,
		ByzantineNodes:     rep.ByzantineNodes,
		Corrupted:          rep.Corrupted,
		Dropped:            rep.Dropped,
		Survivors:          tally.Survivors,
		SurvivorsInformed:  tally.Informed,
		SurvivorsExact:     tally.Exact,
		SurvivorsAgreeing:  tally.Agreeing,
	}
}

// Color runs the configured coloring backend (the Colorer option; default
// the paper's Sec. 7 procedures): every node receives a color such that no
// two communication-graph neighbors share one. The run aborts promptly with
// ctx.Err() if ctx is cancelled.
func (nw *Network) Color(ctx context.Context) (*ColorResult, error) {
	backend, err := coloring.ByName(nw.colorer)
	if err != nil {
		return nil, fmt.Errorf("mcnet: %w", err)
	}
	n := nw.N()
	slots := 0
	e, _ := nw.newEngine()
	e.Trace = func(int, []phy.Tx, []phy.Rx, []phy.Reception) { slots++ }

	res, st, err := backend.Color(ctx, e, nw.plan)
	if err != nil {
		return nil, err
	}
	out := &ColorResult{
		Backend: backend.Name(),
		Nodes:   make([]NodeColor, n),
		Slots:   slots,
		Rounds:  st.Rounds,
		Cycle:   st.Cycle,
	}
	for i, r := range res {
		out.Nodes[i] = NodeColor{
			Color:        r.Color,
			Index:        r.Index,
			ClusterColor: r.ClusterColor,
			IsDominator:  r.IsDominator,
			IsReporter:   r.IsReporter,
		}
	}
	out.Conflicts, out.Uncolored, out.Palette = coloring.Validate(nw.deploy.Positions(), nw.deploy.Params().REps(), res)
	out.ColorSlots = st.ColorSlots
	return out, nil
}

// VerifyTDMA uses a coloring as a TDMA broadcast schedule — in cycle slot
// t, nodes with color t transmit on one channel — and resolves every slot
// over the SINR layer, reporting how many directed communication-graph
// links decoded their neighbor's broadcast. A proper coloring delivers
// every link in one cycle.
//
// Nodes with a negative color are unscheduled: the cycle never reaches
// them, so they only listen and their outgoing links cannot deliver. The
// report counts them in Unscheduled while Links still includes their
// edges, so Delivered < Links whenever a partially uncolored palette is
// verified — the gap is the schedule's fault, not the SINR layer's.
func (nw *Network) VerifyTDMA(colors []int) (TDMAReport, error) {
	n := nw.N()
	if len(colors) != n {
		return TDMAReport{}, fmt.Errorf("mcnet: %d colors for %d nodes", len(colors), n)
	}
	// maxColor starts below every valid color so an all-unscheduled
	// palette reports a zero-length cycle instead of a phantom one-slot
	// schedule.
	maxColor := -1
	unscheduled := 0
	for _, c := range colors {
		if c > maxColor {
			maxColor = c
		}
		if c < 0 {
			unscheduled++
		}
	}
	rep := TDMAReport{Cycle: maxColor + 1, Unscheduled: unscheduled}
	rep.Delivered, rep.Links = coloring.VerifyTDMA(nw.deploy.Positions(), nw.deploy.Params(), colors)
	return rep, nil
}

// stageWindows lists the budgeted slot window of every pipeline stage.
func stageWindows(pl *core.Plan) []StageReport {
	o := pl.Offsets
	mk := func(name string, start, end int) StageReport {
		return StageReport{Name: name, Start: start, End: end, LastEvent: -1}
	}
	return []StageReport{
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

// observeStages fills each stage window with the milestone events that
// fired inside it. Events whose slot lands at or beyond the final stage's
// budget end — programs that consumed their whole schedule, or instrumented
// epilogues past the budget — are clamped into the final stage, so the
// per-stage event totals always sum to the engine's event log.
func observeStages(stages []StageReport, events []sim.Event) []StageReport {
	for _, ev := range events {
		for i := range stages {
			last := i == len(stages)-1
			if ev.Slot >= stages[i].Start && (ev.Slot < stages[i].End || last) {
				stages[i].Events++
				if ev.Slot > stages[i].LastEvent {
					stages[i].LastEvent = ev.Slot
				}
				break
			}
		}
	}
	return stages
}
