package mcnet

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mcnet/internal/coloring"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
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
	gpts, err := geoPoints(s.topo.Name(), pts)
	if err != nil {
		return nil, err
	}
	n = len(pts)
	p.NEstimate = n

	// Sizing: the pipeline defaults, overridden by the topology's positive
	// fields (NewPlan clamps Δ̂ to n̂).
	cfg := core.DefaultConfig(p)
	d := s.topo.Defaults(n, g)
	if d.DeltaHat > 0 {
		cfg.DeltaHat = d.DeltaHat
	}
	if d.PhiMax > 0 {
		cfg.PhiMax = d.PhiMax
	}
	if d.HopBound > 0 {
		cfg.HopBound = d.HopBound
	}

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
		deploy:   phy.NewDeployment(p, gpts),
		plan:     core.NewPlan(p, cfg),
	}, nil
}

// maxCoord bounds layout coordinates, so that the difference of any two,
// and with it the extent every spatial grid indexes, stays finite.
const maxCoord = math.MaxFloat64 / 2

// geoPoints converts a layout to geo points, rejecting a coordinate that
// is NaN, infinite or beyond ±maxCoord: the spatial grid behind every
// graph measure cannot index it.
func geoPoints(topo string, pts []Point) ([]geo.Point, error) {
	out := make([]geo.Point, len(pts))
	for i, q := range pts {
		if !(math.Abs(q.X) <= maxCoord && math.Abs(q.Y) <= maxCoord) { // NaN included
			return nil, fmt.Errorf("mcnet: topology %q placed node %d at (%v, %v); coordinates must be finite and within ±%v", topo, i, q.X, q.Y, maxCoord)
		}
		out[i] = geo.Point{X: q.X, Y: q.Y}
	}
	return out, nil
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
		DeltaHat:    nw.plan.Cfg.DeltaHat,
		PhiMax:      nw.plan.Cfg.PhiMax,
		HopBound:    nw.plan.Cfg.HopBound,
		BuildSlots:  nw.plan.Offsets.Followers,
		BudgetSlots: nw.plan.Offsets.End,
		Stages:      stageReports(nw.plan.Stages()),
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
// their own Trace for slot and channel accounting.
func (nw *Network) newEngine() *sim.Engine {
	e := sim.NewEngine(nw.deploy.NewField(), nw.seed)
	if nw.maxSlots > 0 {
		e.MaxSlots = nw.maxSlots
	}
	if nw.faulted {
		e.Faults = fault.NewInjector(nw.faults, nw.seed, nw.N(), nw.Channels(), nw.plan.Offsets.End)
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
	return e
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
	e := nw.newEngine()
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

	sum, err := core.RunSummary(ctx, e, nw.plan, values, toOp(op))
	if err != nil {
		return nil, err
	}

	out := &AggregateResult{
		Value:       sum.Want,
		Nodes:       make([]NodeResult, n),
		Informed:    sum.Informed,
		Exact:       sum.Exact,
		Dominators:  sum.Dominators,
		Reporters:   sum.Reporters,
		Followers:   sum.Followers,
		Slots:       slots,
		BudgetSlots: nw.plan.Offsets.End,
		BuildSlots:  nw.plan.Offsets.Followers,
		AckSlots:    sum.AckSlots,
		AggSlots:    sum.AggSlots,
		Stages:      stageReports(sum.Stages),
	}
	for i, r := range sum.Results {
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
	}
	out.ChannelUtilization = make([]float64, len(busySlots))
	if slots > 0 {
		for i, b := range busySlots {
			out.ChannelUtilization[i] = float64(b) / float64(slots)
		}
	}
	if sum.Faults != nil {
		out.Faults = faultReportOf(sum)
	}
	return out, nil
}

// faultReportOf converts a faulted run's summary into the public report.
func faultReportOf(sum *core.Summary) *FaultReport {
	rep, tally := sum.Faults, sum.Survivors
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
	e := nw.newEngine()
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

// stageReports copies core's stage windows into the public type.
func stageReports(ws []core.StageWindow) []StageReport {
	out := make([]StageReport, len(ws))
	for i, w := range ws {
		out[i] = StageReport(w)
	}
	return out
}
