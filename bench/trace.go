package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"mcnet"
	"mcnet/internal/agg"
	"mcnet/internal/coloring"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// The traced run rebuilds the facade's run from the layer packages and
// splits its wall time from the outside: a sim.FaultInjector decorator
// (probe) timestamps BeginSlot, every FilterTransmission and the first
// FilterReception of each slot, and Engine.Trace closes the slot. Per slot:
//
//	previous Trace exit → BeginSlot entry          sim   (node stepping, barrier, delivery)
//	BeginSlot entry → last FilterTransmission exit fault (jamming set-up, Byzantine filter)
//	last FilterTransmission exit → first
//	FilterReception entry (or Trace entry)         phy   (Field.Resolve)
//	first FilterReception entry → Trace entry      fault (loss filter)
//	Trace entry → Trace exit                       the probe's own counting
//
// The intervals tile the run, so sim + phy + fault + probe = wall time.
// Time before the first slot (program set-up) is stepping in the first
// slot's stage; time after the last slot (teardown) is stepping in the last
// stage.

// window is one pipeline stage's budgeted slot range [start, end).
type window struct{ start, end int }

// stageOf returns the index of the window holding slot. Windows are
// contiguous and ascending; slots at or beyond the last window's end (runs
// that outlast the budget) clamp into the last stage.
func stageOf(ws []window, slot int) int {
	for i, w := range ws {
		if slot < w.end {
			return i
		}
	}
	return len(ws) - 1
}

// countPairs returns Σ over channels of transmitters × listeners on that
// channel: the listener-transmitter pairs an exact resolver would evaluate.
// perTx and perRx are per-channel scratch of the channel count.
func countPairs(txs []phy.Tx, rxs []phy.Rx, perTx, perRx []int64) int64 {
	clear(perTx)
	clear(perRx)
	for _, tx := range txs {
		perTx[tx.Channel]++
	}
	for _, rx := range rxs {
		perRx[rx.Channel]++
	}
	var pairs int64
	for c := range perTx {
		pairs += perTx[c] * perRx[c]
	}
	return pairs
}

// stageLedger is one stage window's share of a traced run.
type stageLedger struct {
	slots, active, pairs, ns int64
}

// ledger accumulates the per-layer time and work of traced runs.
type ledger struct {
	wallNS                     int64
	stepNS, resolveNS, faultNS int64
	nodeSlots                  int64
	active, actions            int64
	tx, rx, pairs, decodes     int64
	stages                     [len(stageNames)]stageLedger

	lost, jammed, corrupted, crashed int
	colors                           coloring.Stats
}

// probe is the traced run's fault-hook decorator and slot observer. It
// forwards every hook to the run's real injector (inner), or passes
// through on fault-free runs, and records the timestamps that split the
// slot into layers.
type probe struct {
	inner  sim.FaultInjector
	led    *ledger
	stages []window

	base    time.Time
	prevEnd int64 // previous Trace exit; run start before the first slot
	step    int64 // stepping time of the slot in progress
	begin   int64 // BeginSlot entry
	txEnd   int64 // last FilterTransmission exit, BeginSlot exit if none
	rxStart int64 // first FilterReception entry, -1 until one
	offered int64 // transmissions offered to the filter this slot
	decodes int64 // SINR decodes this slot, before the loss filter
	slots   int64 // slots the run has consumed

	perTx, perRx []int64
}

func newProbe(inner sim.FaultInjector, led *ledger, stages []window, channels int) *probe {
	return &probe{
		inner: inner, led: led, stages: stages,
		perTx: make([]int64, channels), perRx: make([]int64, channels),
	}
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// start marks the run's beginning; call it right before the engine runs.
func (p *probe) start() {
	p.base = time.Now()
	p.prevEnd = 0
}

// finish closes the run over n nodes: the teardown after the last slot is
// stepping, booked to the last stage.
func (p *probe) finish(n int) {
	t := p.now()
	tail := t - p.prevEnd
	p.led.stepNS += tail
	p.led.stages[len(p.led.stages)-1].ns += tail
	p.led.wallNS += t
	p.led.nodeSlots += int64(n) * p.slots
}

func (p *probe) BeginSlot(slot int, field *phy.Field) {
	t := p.now()
	p.step = t - p.prevEnd
	p.begin, p.txEnd = t, t
	if p.inner != nil {
		p.inner.BeginSlot(slot, field)
		p.txEnd = p.now()
	}
	p.rxStart = -1
	p.offered, p.decodes = 0, 0
}

func (p *probe) FilterTransmission(slot int, tx phy.Tx) (phy.Tx, bool) {
	p.offered++
	ok := true
	if p.inner != nil {
		tx, ok = p.inner.FilterTransmission(slot, tx)
	}
	p.txEnd = p.now()
	return tx, ok
}

func (p *probe) FilterReception(slot, node, channel int, rec phy.Reception) phy.Reception {
	if p.rxStart < 0 {
		p.rxStart = p.now()
	}
	if rec.Decoded {
		p.decodes++
	}
	if p.inner != nil {
		rec = p.inner.FilterReception(slot, node, channel, rec)
	}
	return rec
}

func (p *probe) CrashSlot(node int) int {
	if p.inner != nil {
		return p.inner.CrashSlot(node)
	}
	return math.MaxInt
}

// trace is the engine's Trace hook: it closes the slot's intervals and
// books them, with the slot's work counts, to the slot's stage window.
func (p *probe) trace(slot int, txs []phy.Tx, rxs []phy.Rx, _ []phy.Reception) {
	t := p.now()
	rxStart := p.rxStart
	if rxStart < 0 {
		rxStart = t
	}
	resolve := rxStart - p.txEnd
	faultNS := (p.txEnd - p.begin) + (t - rxStart)
	pairs := countPairs(txs, rxs, p.perTx, p.perRx)
	actions := p.offered + int64(len(rxs))

	p.slots++
	l := p.led
	l.stepNS += p.step
	l.resolveNS += resolve
	l.faultNS += faultNS
	l.actions += actions
	l.tx += int64(len(txs))
	l.rx += int64(len(rxs))
	l.pairs += pairs
	l.decodes += p.decodes
	st := &l.stages[stageOf(p.stages, slot)]
	st.slots++
	st.pairs += pairs
	st.ns += p.step + resolve + faultNS
	if actions > 0 {
		l.active++
		st.active++
	}
	p.prevEnd = p.now()
}

// layerRun rebuilds one facade deployment's run from the layer packages:
// model.Default, core.DefaultConfig with the facade plan's sizing,
// core.NewPlan, phy.NewField and sim.NewEngine.
type layerRun struct {
	params model.Params
	plan   *core.Plan
	pos    []geo.Point
	seed   uint64
	stages []window
}

func newLayerRun(nw *mcnet.Network) (*layerRun, error) {
	p := model.Default(nw.Channels(), nw.N())
	info := nw.Plan()
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat, cfg.PhiMax, cfg.HopBound = info.DeltaHat, info.PhiMax, info.HopBound
	pl := core.NewPlan(p, cfg)
	if pl.Offsets.End != info.BudgetSlots || pl.Offsets.Followers != info.BuildSlots {
		return nil, fmt.Errorf("layer plan budget %d/%d differs from the facade's %d/%d",
			pl.Offsets.Followers, pl.Offsets.End, info.BuildSlots, info.BudgetSlots)
	}
	if len(info.Stages) != len(stageNames) {
		return nil, fmt.Errorf("facade plan has %d stages, want %d", len(info.Stages), len(stageNames))
	}
	stages := make([]window, len(info.Stages))
	for i, s := range info.Stages {
		if s.Name != stageNames[i] {
			return nil, fmt.Errorf("facade stage %d is %q, want %q", i, s.Name, stageNames[i])
		}
		stages[i] = window{s.Start, s.End}
	}
	pts := nw.Positions()
	pos := make([]geo.Point, len(pts))
	for i, q := range pts {
		pos[i] = geo.Point{X: q.X, Y: q.Y}
	}
	return &layerRun{params: p, plan: pl, pos: pos, seed: nw.Seed(), stages: stages}, nil
}

// engine builds the run's engine with the probe installed as fault hook and
// slot trace.
func (lr *layerRun) engine(pr *probe) *sim.Engine {
	e := sim.NewEngine(phy.NewField(lr.params, lr.pos), lr.seed)
	e.Faults = pr
	e.Trace = pr.trace
	return e
}

// aggregate runs the aggregation pipeline traced, with inner as the real
// fault injector (nil for a fault-free run), and folds it into o.
func (lr *layerRun) aggregate(ctx context.Context, values []int64, inner sim.FaultInjector, led *ledger, o *outcome) error {
	pr := newProbe(inner, led, lr.stages, lr.params.Channels)
	e := lr.engine(pr)
	pr.start()
	res, err := core.RunContext(ctx, e, lr.plan, values, agg.Sum, lr.seed)
	pr.finish(len(lr.pos))
	if err != nil {
		return err
	}
	vals := make([]int64, len(res))
	informed := make([]bool, len(res))
	for i, r := range res {
		vals[i], informed[i] = r.Value, r.Ok
	}
	o.addRun(int(pr.slots), aggDigest(int(pr.slots), vals, informed), len(res))
	return nil
}

// color runs the default sec7 coloring backend traced and folds it into o.
func (lr *layerRun) color(ctx context.Context, led *ledger, o *outcome) error {
	backend, err := coloring.ByName("sec7")
	if err != nil {
		return err
	}
	pr := newProbe(nil, led, lr.stages, lr.params.Channels)
	e := lr.engine(pr)
	pr.start()
	res, st, err := backend.Color(ctx, e, lr.plan)
	pr.finish(len(lr.pos))
	if err != nil {
		return err
	}
	colors := make([]int, len(res))
	for i, r := range res {
		colors[i] = r.Color
	}
	led.colors = st
	o.addRun(int(pr.slots), colorDigest(int(pr.slots), colors), len(res))
	return nil
}

// faultSpecOf maps a batch run's public fault fields onto the fault
// layer's spec, as the facade's Loss, Jamming, Churn and Byzantine options
// do.
func faultSpecOf(rs mcnet.RunSpec) fault.Spec {
	return fault.Spec{
		LossProb:    rs.Loss,
		JamChannels: rs.Jam,
		JamModel:    fault.JamModel(rs.JamModel),
		CrashAt:     rs.Churn.CrashAt,
		CrashRate:   rs.Churn.Rate,
		CrashFrom:   rs.Churn.From,
		CrashUntil:  rs.Churn.Until,
		Byz:         fault.ByzSpec{Fraction: rs.Byz, Strategy: fault.ByzStrategy(rs.ByzStrategy)},
	}
}

// runTraced performs the workload's operation traced, one run at a time,
// and returns its outcome (for the transcript comparison) and ledger.
func (in *instance) runTraced(ctx context.Context) (outcome, *ledger, error) {
	led := &ledger{}
	var o outcome
	runs := make([]*layerRun, len(in.nets))
	for i, nw := range in.nets {
		lr, err := newLayerRun(nw)
		if err != nil {
			return o, nil, err
		}
		runs[i] = lr
	}
	switch in.w.kind {
	case opAggregate:
		return o, led, runs[0].aggregate(ctx, in.values[0], nil, led, &o)
	case opColor:
		return o, led, runs[0].color(ctx, led, &o)
	}
	for i, rs := range in.specs() {
		lr := runs[i/len(in.w.cases)]
		inj := fault.NewInjector(faultSpecOf(rs), lr.seed, len(lr.pos), lr.params.Channels, lr.plan.Offsets.End)
		if err := lr.aggregate(ctx, rs.Values, inj, led, &o); err != nil {
			return o, nil, err
		}
		rep := inj.Report()
		led.lost += rep.Lost
		led.jammed += rep.JammedSlotChannels
		led.corrupted += rep.Corrupted
		led.crashed += len(rep.CrashedNodes)
	}
	return o, led, nil
}

// metrics derives the per-layer metrics from the ledger. serialS is the
// untraced time of the same runs executed one at a time, runS the
// operation's untraced time with workers in its pool.
func (l *ledger) metrics(serialS, runS float64, workers int) map[string]float64 {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m := map[string]float64{
		"sim.step_s":           sec(l.stepNS),
		"sim.ns_per_node_slot": ratio(float64(l.stepNS), float64(l.nodeSlots)),
		"sim.active_slots":     float64(l.active),
		"sim.actions":          float64(l.actions),
		"phy.resolve_s":        sec(l.resolveNS),
		"phy.tx":               float64(l.tx),
		"phy.rx":               float64(l.rx),
		"phy.pairs":            float64(l.pairs),
		"phy.decodes":          float64(l.decodes),
		"phy.decode_ratio":     ratio(float64(l.decodes), float64(l.rx)),
		"phy.ns_per_pair":      ratio(float64(l.resolveNS), float64(l.pairs)),
		"fault.s":              sec(l.faultNS),
		"fault.lost":           float64(l.lost),
		"fault.jammed":         float64(l.jammed),
		"fault.corrupted":      float64(l.corrupted),
		"fault.crashed":        float64(l.crashed),
		"coloring.rounds":      float64(l.colors.Rounds),
		"coloring.palette":     float64(l.colors.Palette),
		"coloring.cycle":       float64(l.colors.Cycle),
		"coloring.color_slots": float64(l.colors.ColorSlots),
		"batch.serial_s":       serialS,
		"batch.efficiency":     ratio(serialS, float64(max(workers, 1))*runS),
		"trace.overhead":       ratio(sec(l.wallNS), serialS) - 1,
	}
	for i, s := range stageNames {
		st := l.stages[i]
		m["core."+s+".slots"] = float64(st.slots)
		m["core."+s+".active_slots"] = float64(st.active)
		m["core."+s+".s"] = sec(st.ns)
		m["core."+s+".pairs"] = float64(st.pairs)
	}
	return m
}

// covered is the share of the traced wall time the three layers account
// for; the rest is the probe's own counting.
func (l *ledger) covered() float64 {
	return ratio(float64(l.stepNS+l.resolveNS+l.faultNS), float64(l.wallNS))
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
