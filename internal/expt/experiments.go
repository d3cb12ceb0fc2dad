package expt

import (
	"context"
	"fmt"
	"math"

	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/baseline"
	"mcnet/internal/coloring"
	"mcnet/internal/core"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/ruling"
	"mcnet/internal/sim"
	"mcnet/internal/stats"
	"mcnet/internal/topology"
)

// Options sizes an experiment.
type Options struct {
	// Seeds is the number of independent repetitions (medians reported).
	Seeds int
	// Quick shrinks the sweep for tests and smoke runs.
	Quick bool
	// Parallel sizes the worker pool the sweep's (axis × seed) runs execute
	// across: 0 (the default) uses GOMAXPROCS, 1 forces the serial sweep.
	// Tables are byte-identical at every setting.
	Parallel int
	// Ctx, when non-nil, cancels the sweep (Ctrl-C on the CLIs): queued
	// runs never start and in-flight runs abort mid-schedule. Nil means
	// context.Background().
	Ctx context.Context
	// Colorers restricts the c-series head-to-heads to a subset of coloring
	// backend names; empty means every registered backend. Other experiment
	// families ignore it.
	Colorers []string
	// Byz overrides the Byzantine-fraction axis of the f4 and f6 sweeps;
	// empty means each experiment's default axis. Values must be in [0, 1].
	Byz []float64
	// JamModels restricts the jamming adversaries the f4 and f5 sweeps pit
	// against the pipeline; empty means each experiment's default set.
	JamModels []fault.JamModel
}

// ctx resolves the sweep context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultOptions is the full-size configuration used by the benchmarks.
var DefaultOptions = Options{Seeds: 3}

func (o Options) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

// E1SpeedupVsChannels measures aggregation latency on a single-cluster
// crowd while sweeping the channel count F: the headline linear-speedup
// claim (Theorem 22, the Δ/F term).
func E1SpeedupVsChannels(o Options) (*stats.Table, error) {
	n := 192
	fs := []int{1, 2, 4, 8, 16}
	if o.Quick {
		n = 64
		fs = []int{1, 4}
	}
	rows, err := aggSweep(o, len(fs), func(fi, s int) aggCase {
		f := fs[fi]
		return crowdCase(f, n, uint64(s+1), uint64(100*f+s))
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E1: aggregation vs channels (crowd n=%d, Δ=n-1)", n),
		"F", "ack_slots", "agg_slots", "speedup", "informed", "exact")
	base := rows[0].ack
	for fi, r := range rows {
		speedup := 0.0
		if r.ack > 0 {
			speedup = base / r.ack
		}
		t.AddRow(stats.I(fs[fi]), stats.F1(r.ack), stats.F1(r.agg), stats.F(speedup),
			stats.Pct(r.informed, r.nodes), stats.Pct(r.exact, r.nodes))
	}
	t.AddNote("seeds=%d; ack_slots = last follower acknowledged (Δ/F mechanism); speedup relative to F=%d", o.seeds(), fs[0])
	return t, nil
}

// E2AggVsN measures aggregation latency as the crowd grows at fixed F.
func E2AggVsN(o Options) (*stats.Table, error) {
	ns := []int{64, 128, 256, 384}
	if o.Quick {
		ns = []int{48, 96}
	}
	const f = 8
	rows, err := aggSweep(o, len(ns), func(ni, s int) aggCase {
		n := ns[ni]
		return crowdCase(f, n, uint64(s+11), uint64(1000*n+s))
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E2: aggregation vs n (crowd, F=%d)", f),
		"n", "Delta", "ack_slots", "agg_slots", "exact")
	for ni, r := range rows {
		n := ns[ni]
		t.AddRow(stats.I(n), stats.I(n-1), stats.F1(r.ack), stats.F1(r.agg), stats.Pct(r.exact, r.nodes))
	}
	t.AddNote("seeds=%d; expect ack_slots ≈ a + b·Δ/F (linear in n at fixed F)", o.seeds())
	return t, nil
}

// E3Baselines compares the multichannel pipeline against the single-channel
// comparators on the same field. One sweep job covers all four algorithms
// for one seed — they share the seed's layout, so the comparison stays
// within-seed while seeds run in parallel.
func E3Baselines(o Options) (*stats.Table, error) {
	n := 128
	if o.Quick {
		n = 48
	}
	const algos = 4
	type e3Run struct {
		slots [algos]float64
		exact [algos]int
	}
	runs, err := sweep(o, o.seeds(), func(ctx context.Context, s int) (e3Run, error) {
		var r e3Run
		seed := uint64(s + 21)
		values, want := sequentialValues(n)

		for idx, f := range []int{8, 1} {
			m, err := crowdCase(f, n, seed, seed*7+uint64(idx)).run(ctx)
			if err != nil {
				return r, err
			}
			r.slots[idx] = float64(m.AggSlots)
			r.exact[idx] = m.Exact
		}

		p := model.Default(1, n)
		pos := Crowd(p, n, seed)
		e := sim.NewEngine(phy.NewField(p, pos), seed*13)
		out, err := baseline.SingleChannelTree(e, values, agg.Sum, n-1, 3)
		if err != nil {
			return r, err
		}
		last := 0
		for _, ev := range e.Events() {
			switch ev.Name {
			case backbone.EventAgg, backbone.EventResult, backbone.EventAggUpdate:
				if ev.Slot > last {
					last = ev.Slot
				}
			}
		}
		r.slots[2] = float64(last)
		for _, res := range out {
			if res.Done && res.Value == want {
				r.exact[2]++
			}
		}

		e = sim.NewEngine(phy.NewField(p, pos), seed*17)
		tout, err := baseline.TDMAByID(e, pos, values, agg.Sum)
		if err != nil {
			return r, err
		}
		r.slots[3] = float64(2 * n)
		for _, res := range tout {
			if res.Done && res.Value == want {
				r.exact[3]++
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E3: aggregation vs baselines (crowd n=%d)", n),
		"algorithm", "slots", "exact")
	names := []string{
		"multichannel F=8",
		"multichannel F=1",
		"single-channel tree",
		"TDMA by ID (centralized)",
	}
	for idx, name := range names {
		var slots []float64
		exact := 0
		for _, r := range runs {
			slots = append(slots, r.slots[idx])
			exact += r.exact[idx]
		}
		t.AddRow(name, stats.F1(stats.Median(slots)), stats.Pct(exact, n*len(runs)))
	}
	t.AddNote("seeds=%d; slots = event-measured completion of the aggregate", o.seeds())
	return t, nil
}

// E4Coloring measures the Sec. 7 coloring: time, palette size and
// correctness, against the centralized greedy palette.
func E4Coloring(o Options) (*stats.Table, error) {
	n := 96
	fs := []int{1, 4, 8}
	if o.Quick {
		n = 40
		fs = []int{1, 4}
	}
	type e4Run struct {
		time                                  float64
		palette, greedy, conflicts, uncolored int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(fs)*seeds, func(ctx context.Context, i int) (e4Run, error) {
		f, s := fs[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+31))
		pl := core.NewPlan(p, crowdSizing(n).config(p))
		e := sim.NewEngine(phy.NewField(p, pos), uint64(300*f+s))
		res, err := coloring.RunContext(ctx, e, pl)
		if err != nil {
			return e4Run{}, err
		}
		c, u, pal := coloring.Validate(pos, p.REps(), res)
		last := 0
		for _, ev := range e.Events() {
			if ev.Name == coloring.EventColored && ev.Slot > last {
				last = ev.Slot
			}
		}
		return e4Run{
			time:      float64(last - pl.Offsets.Followers),
			palette:   pal,
			greedy:    baseline.MaxColor(baseline.GreedyColors(pos, p.REps())),
			conflicts: c,
			uncolored: u,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E4: node coloring (crowd n=%d, Δ=n-1)", n),
		"F", "color_slots", "palette", "greedy_ref", "conflicts", "uncolored")
	for fi, f := range fs {
		var times []float64
		palette, conflicts, uncolored, greedyRef := 0, 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[fi*seeds+s]
			conflicts += r.conflicts
			uncolored += r.uncolored
			if r.palette > palette {
				palette = r.palette
			}
			if r.greedy > greedyRef {
				greedyRef = r.greedy
			}
			times = append(times, r.time)
		}
		t.AddRow(stats.I(f), stats.F1(stats.Median(times)), stats.I(palette),
			stats.I(greedyRef), stats.I(conflicts), stats.I(uncolored))
	}
	t.AddNote("seeds=%d; color_slots measured from the end of structure construction", o.seeds())
	return t, nil
}

// E5RulingSet measures the Sec. 4 ruling-set algorithm: completion rounds
// (expect ∝ log n) and validity.
func E5RulingSet(o Options) (*stats.Table, error) {
	ns := []int{64, 128, 256, 512}
	if o.Quick {
		ns = []int{64, 128}
	}
	const r = 0.06
	type e5Run struct {
		rounds      float64
		viol, undom int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(ns)*seeds, func(ctx context.Context, i int) (e5Run, error) {
		n, s := ns[i/seeds], i%seeds
		p := model.Default(1, n)
		rnd := topology.LayoutRand(uint64(500*n + s))
		// Constant areal density (the regime the pipeline invokes ruling
		// sets in), with one in eight nodes placed as a close "twin" of
		// an earlier node so the HELLO/ACK/IN resolution is exercised.
		side := 0.35 * math.Sqrt(float64(n))
		pos := topology.Uniform(rnd, n-n/8, side, side)
		for len(pos) < n {
			base := pos[rnd.Intn(len(pos))]
			pos = append(pos, geo.Point{
				X: base.X + (rnd.Float64()*2-1)*r/3,
				Y: base.Y + (rnd.Float64()*2-1)*r/3,
			})
		}
		cfg := ruling.DefaultConfig(r, 0)
		e := sim.NewEngine(phy.NewField(p, pos), uint64(s+1))
		out := make([]ruling.Outcome, n)
		steppers := make([]sim.Stepper, n)
		for i := range steppers {
			f := &ruling.RunFrag{Cfg: cfg}
			steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { out[i] = f.Out }}
		}
		if _, err := e.RunContext(ctx, steppers); err != nil {
			return e5Run{}, err
		}
		maxRound := 0
		part := make([]bool, n)
		inset := make([]bool, n)
		for i, oc := range out {
			part[i] = true
			inset[i] = oc.InSet
			if oc.JoinRound > maxRound && oc.JoinRound < cfg.Rounds(p) {
				maxRound = oc.JoinRound
			}
		}
		v, u := ruling.Validate(pos, part, inset, r)
		return e5Run{rounds: float64(maxRound + 1), viol: v, undom: u}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E5: ruling set (sparse fields)",
		"n", "rounds_done", "budget_rounds", "violations", "undominated")
	for ni, n := range ns {
		var rounds []float64
		viol, undom := 0, 0
		for s := 0; s < seeds; s++ {
			run := runs[ni*seeds+s]
			viol += run.viol
			undom += run.undom
			rounds = append(rounds, run.rounds)
		}
		p := model.Default(1, n)
		t.AddRow(stats.I(n), stats.F1(stats.Median(rounds)),
			stats.I(ruling.DefaultConfig(r, 0).Rounds(p)), stats.I(viol), stats.I(undom))
	}
	t.AddNote("seeds=%d; rounds_done = last decision round; expect growth ∝ log n", o.seeds())
	return t, nil
}

// E6CSA measures cluster-size approximation accuracy and cost for both
// variants (Lemmas 12–14).
func E6CSA(o Options) (*stats.Table, error) {
	sizes := []int{16, 64, 192}
	if o.Quick {
		sizes = []int{16, 48}
	}
	variants := []string{"large", "small"}
	type e6Run struct {
		ratio  float64
		budget int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(sizes)*len(variants)*seeds, func(ctx context.Context, i int) (e6Run, error) {
		size := sizes[i/(len(variants)*seeds)]
		variant := variants[i/seeds%len(variants)]
		s := i % seeds
		f := 8
		p := model.Default(f, 256)
		pos := Crowd(p, size, uint64(600*size+s))
		e := sim.NewEngine(phy.NewField(p, pos), uint64(700*size+s))
		est := 0
		budget := 0
		memberR := 2 * p.ClusterRadius()
		steppers := make([]sim.Stepper, size)
		if variant == "large" {
			cfg := csa.DefaultConfig(256, memberR)
			budget = cfg.SlotBudget(p)
			dom := &csa.DominatorFrag{Cfg: cfg}
			steppers[0] = &sim.FragStepper{Frag: dom, Finish: func(*sim.StepCtx) { est = dom.Estimate + 1 }}
			for i := 1; i < size; i++ {
				steppers[i] = &sim.FragStepper{Frag: &csa.DominateeFrag{Cfg: cfg}}
			}
		} else {
			cfg := csa.DefaultSmallConfig(p, memberR)
			budget = cfg.SlotBudget(p)
			dom := &csa.SmallDominatorFrag{Cfg: cfg}
			steppers[0] = &sim.FragStepper{Frag: dom, Finish: func(*sim.StepCtx) { est = dom.Estimate }}
			for i := 1; i < size; i++ {
				steppers[i] = &sim.FragStepper{Frag: &csa.SmallDominateeFrag{Cfg: cfg}}
			}
		}
		if _, err := e.RunContext(ctx, steppers); err != nil {
			return e6Run{}, err
		}
		return e6Run{ratio: float64(est) / float64(size), budget: budget}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E6: cluster-size approximation",
		"cluster_size", "variant", "est/truth", "budget_slots")
	for si, size := range sizes {
		for vi, variant := range variants {
			var ratios []float64
			budget := 0
			for s := 0; s < seeds; s++ {
				run := runs[(si*len(variants)+vi)*seeds+s]
				ratios = append(ratios, run.ratio)
				budget = run.budget
			}
			t.AddRow(stats.I(size), variant, stats.F(stats.Median(ratios)), stats.I(budget))
		}
	}
	t.AddNote("seeds=%d; est/truth should sit in a constant band; small variant budget beats large when Δ̂ ≤ F·polylog n", o.seeds())
	return t, nil
}

// E7StructureBuild reports structure-construction cost and quality as n
// grows (Theorem 10's O(log² n) shape, plus backbone quality).
func E7StructureBuild(o Options) (*stats.Table, error) {
	ns := []int{64, 128, 256, 512}
	if o.Quick {
		ns = []int{48, 96}
	}
	type e7Run struct {
		offsets core.StageOffsets
		covered string
	}
	runs, err := sweep(o, len(ns), func(ctx context.Context, i int) (e7Run, error) {
		n := ns[i]
		p := model.Default(8, n)
		def := core.DefaultConfig(p)
		pl := core.NewPlan(p, sizing{n, def.PhiMax, def.HopBound}.config(p))
		covered := "-"
		// One live run for coverage (cheap at small n, skipped at large).
		if n <= 128 {
			pos := Crowd(p, n, uint64(n))
			e := sim.NewEngine(phy.NewField(p, pos), uint64(n)*3)
			sum, err := core.RunSummary(ctx, e, pl, make([]int64, n), agg.Sum)
			if err != nil {
				return e7Run{}, err
			}
			good := 0
			for i, r := range sum.Results {
				if r.Dominator >= 0 && pos[i].Dist(pos[r.Dominator]) <= p.ClusterRadius() {
					good++
				}
			}
			covered = stats.Pct(good, n)
		}
		return e7Run{offsets: pl.Offsets, covered: covered}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E7: structure construction",
		"n", "build_slots", "dominate", "color", "csa", "elect", "covered")
	for ni, n := range ns {
		o1 := runs[ni].offsets
		t.AddRow(stats.I(n), stats.I(o1.Followers),
			stats.I(o1.Color-o1.Dominate), stats.I(o1.Announce-o1.Color),
			stats.I(o1.Elect-o1.CSA), stats.I(o1.Followers-o1.Elect), runs[ni].covered)
	}
	t.AddNote("build_slots = stages 1-5 budget; expect polylog growth in n")
	return t, nil
}

// E8ExponentialChain verifies the Sec. 1 lower-bound instance: on the
// exponential chain with uniform power, transmissions along the chain
// toward the sink (the aggregation direction) serialize — any lower sender
// injects interference at least equal to the signal at every higher
// receiver, so at most one addressed link can decode per slot — while a
// uniform line enjoys Θ(n) spatial reuse.
func E8ExponentialChain(o Options) (*stats.Table, error) {
	n := 24
	slots := 400
	if o.Quick {
		n, slots = 16, 120
	}
	type e8Case struct {
		name string
		pos  []geo.Point
		span float64
	}
	cases := []e8Case{
		{"exponential chain x_i=2^i", topology.ExponentialChain(n, 1), math.Pow(2, float64(n+1))},
		// Control: a uniform line under the default range-1 power, where
		// spatial reuse allows many parallel successes.
		{"uniform line (control)", topology.Line(n, 0.5), 1},
	}
	type e8Run struct {
		maxPar, total int
	}
	runs, err := sweep(o, len(cases), func(ctx context.Context, i int) (e8Run, error) {
		c := cases[i]
		p := model.Default(1, n)
		// β = 1.5 ≥ 2^{1/3} ≈ 1.26: the lemma's condition holds. The
		// uniform power is raised so R_T covers the whole instance (the
		// paper's chain assumes every pair is in range absent interference).
		p.Power = p.Beta * p.Noise * math.Pow(c.span, p.Alpha)
		e := sim.NewEngine(phy.NewField(p, c.pos), 9)
		maxPar, total := 0, 0
		e.Trace = func(_ int, _ []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
			// Count links whose ADDRESSED receiver decoded the sender.
			links := 0
			for k, r := range recs {
				if m, ok := r.Msg.(linkMsg); r.Decoded && ok && m.To == rxs[k].Node {
					links++
				}
			}
			total += links
			if links > maxPar {
				maxPar = links
			}
		}
		steppers := make([]sim.Stepper, n)
		for i := range steppers {
			steppers[i] = &chainStepper{slots: slots}
		}
		if _, err := e.RunContext(ctx, steppers); err != nil {
			return e8Run{}, err
		}
		return e8Run{maxPar: maxPar, total: total}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E8: exponential chain serialization (sink-directed links)",
		"topology", "slots", "max_parallel_links", "mean_links")
	for i, c := range cases {
		t.AddRow(c.name, stats.I(slots), stats.I(runs[i].maxPar),
			stats.F(float64(runs[i].total)/float64(slots)))
	}
	t.AddNote("sink-directed links on the chain serialize to ≤ 1 per slot ([25]): aggregating n values needs Ω(n) = Ω(Δ) slots at F=1, the term that F channels divide")
	return t, nil
}

// linkMsg is E8's sink-directed transmission.
type linkMsg struct{ To int }

// chainStepper is one E8 node: each slot it sends to its sink-side
// neighbor with probability 1/2 and listens otherwise; the sink only
// listens.
type chainStepper struct {
	slots, s int
}

// Step implements sim.Stepper.
func (c *chainStepper) Step(sc *sim.StepCtx) {
	if c.s >= c.slots {
		sc.Done()
		return
	}
	c.s++
	if sc.ID() > 0 && sc.Rand.Float64() < 0.5 {
		sc.Transmit(0, linkMsg{To: sc.ID() - 1})
	} else {
		sc.Listen(0)
	}
}

// E9Backbone measures dominating-set and cluster-coloring quality on sparse
// fields (Lemmas 7–8: constant density, O(1) colors).
func E9Backbone(o Options) (*stats.Table, error) {
	ns := []int{64, 128, 256}
	if o.Quick {
		ns = []int{48, 96}
	}
	type e9Run struct {
		doms, dens, selfs, uncov, colors, confl float64
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(ns)*seeds, func(ctx context.Context, i int) (e9Run, error) {
		n, s := ns[i/seeds], i%seeds
		p := model.Default(4, n)
		rnd := topology.LayoutRand(uint64(900*n + s))
		pos := topology.UniformDegree(rnd, n, p.REps(), 12)
		rc := p.ClusterRadius()
		dcfg := dominate.DefaultConfig(rc, 0)
		e := sim.NewEngine(phy.NewField(p, pos), uint64(s+41))
		dout := make([]dominate.Outcome, n)
		steppers := make([]sim.Stepper, n)
		for i := range steppers {
			f := &dominate.RunFrag{Cfg: dcfg}
			steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { dout[i] = f.Out }}
		}
		if _, err := e.RunContext(ctx, steppers); err != nil {
			return e9Run{}, err
		}
		st := dominate.Analyze(pos, dout, rc)

		// Color the dominators.
		ccfg := backbone.DefaultColorConfig(p, 32)
		e2 := sim.NewEngine(phy.NewField(p, pos), uint64(s+61))
		cout := make([]backbone.ColorOutcome, n)
		for i := range steppers {
			if dout[i].IsDominator {
				f := &backbone.ColorFrag{Cfg: ccfg}
				steppers[i] = &sim.FragStepper{Frag: f, Finish: func(*sim.StepCtx) { cout[i] = f.Out }}
			} else {
				steppers[i] = &sim.FragStepper{Frag: &sim.IdleFrag{K: ccfg.SlotBudget(p)}}
			}
		}
		if _, err := e2.RunContext(ctx, steppers); err != nil {
			return e9Run{}, err
		}
		maxColor, conflicts := 0, 0
		for i := range pos {
			if !dout[i].IsDominator {
				continue
			}
			if cout[i].Color+1 > maxColor {
				maxColor = cout[i].Color + 1
			}
			for j := i + 1; j < n; j++ {
				if dout[j].IsDominator && cout[i].Color == cout[j].Color &&
					pos[i].Dist(pos[j]) <= ccfg.Radius {
					conflicts++
				}
			}
		}
		return e9Run{
			doms:   float64(st.Dominators),
			dens:   float64(st.MaxDensity),
			selfs:  float64(st.SelfAppointed),
			uncov:  float64(st.Uncovered),
			colors: float64(maxColor),
			confl:  float64(conflicts),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E9: backbone quality (sparse fields, target degree 12)",
		"n", "dominators", "density", "self_appointed", "uncovered", "colors", "conflicts")
	for ni, n := range ns {
		var doms, dens, selfs, uncov, colors, confl []float64
		for s := 0; s < seeds; s++ {
			r := runs[ni*seeds+s]
			doms = append(doms, r.doms)
			dens = append(dens, r.dens)
			selfs = append(selfs, r.selfs)
			uncov = append(uncov, r.uncov)
			colors = append(colors, r.colors)
			confl = append(confl, r.confl)
		}
		t.AddRow(stats.I(n), stats.F1(stats.Median(doms)), stats.F1(stats.Median(dens)),
			stats.F1(stats.Median(selfs)), stats.F1(stats.Median(uncov)),
			stats.F1(stats.Median(colors)), stats.F1(stats.Median(confl)))
	}
	t.AddNote("seeds=%d; density and colors should stay flat (O(1)) as n grows", o.seeds())
	return t, nil
}

// E10DiameterTerm measures aggregation latency on corridors of growing
// diameter: the D term of Theorem 22.
func E10DiameterTerm(o Options) (*stats.Table, error) {
	lengths := []int{3, 6, 9, 12}
	if o.Quick {
		lengths = []int{3, 5}
	}
	seeds := o.seeds()
	diams := make([]int, len(lengths)*seeds) // per run, indexed like the sweep
	rows, err := aggSweep(o, len(lengths), func(li, s int) aggCase {
		L := lengths[li]
		n := 8 * L
		p := model.Default(4, n)
		pos := topology.Corridor(topology.LayoutRand(uint64(1100*L+s)), n, float64(L)*p.REps(), 0.6*p.REps())
		g := graph.Build(pos, p.REps())
		if !g.Connected() {
			return aggCase{} // disconnected layout: excluded from the row
		}
		diams[li*seeds+s] = g.DiameterApprox()
		return aggCase{p: p, pos: pos, cfg: sizing{24, 24, 3*L + 6}.config(p), seed: uint64(1200*L + s)}
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E10: diameter term (corridors, F=4)",
		"length", "n", "diam", "cast_delay", "agg_slots", "informed", "exact")
	for li, r := range rows {
		L := lengths[li]
		diam := 0
		for _, d := range diams[li*seeds : (li+1)*seeds] {
			diam = max(diam, d)
		}
		t.AddRow(stats.I(L), stats.I(8*L), stats.I(diam), stats.F1(r.cast), stats.F1(r.agg),
			stats.Pct(r.informed, r.nodes), stats.Pct(r.exact, r.nodes))
	}
	t.AddNote("seeds=%d; cast_delay = backbone convergecast completion, expect ≈ linear in diam", o.seeds())
	return t, nil
}

// All runs every experiment and returns the tables in order.
func All(o Options) ([]*stats.Table, error) {
	runners := []func(Options) (*stats.Table, error){
		E1SpeedupVsChannels, E2AggVsN, E3Baselines, E4Coloring, E5RulingSet,
		E6CSA, E7StructureBuild, E8ExponentialChain, E9Backbone, E10DiameterTerm,
	}
	var out []*stats.Table
	for _, r := range runners {
		tb, err := r(o)
		if err != nil {
			return out, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// ByName returns the runner for an experiment ID ("e1".."e10", "a1".."a3",
// "f1".."f6", "c1".."c3").
func ByName(name string) (func(Options) (*stats.Table, error), bool) {
	m := map[string]func(Options) (*stats.Table, error){
		"e1": E1SpeedupVsChannels, "e2": E2AggVsN, "e3": E3Baselines,
		"e4": E4Coloring, "e5": E5RulingSet, "e6": E6CSA,
		"e7": E7StructureBuild, "e8": E8ExponentialChain,
		"e9": E9Backbone, "e10": E10DiameterTerm,
		"a1": A1BackoffAblation, "a2": A2TDMAAblation,
		"a3": A3ChannelSpreadAblation,
		"f1": F1LossSweep, "f2": F2JamSweep, "f3": F3ChurnSweep,
		"f4": F4ByzantineSweep, "f5": F5JamHeadToHead, "f6": F6ByzChurnSweep,
		"c1": C1ColorHeadToHead, "c2": C2ColorScaling, "c3": C3ColorChurn,
	}
	f, ok := m[name]
	return f, ok
}
