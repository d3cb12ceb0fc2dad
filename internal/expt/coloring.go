package expt

// The c-series compares the pluggable coloring backends head-to-head: the
// paper's Sec. 7 procedures against the degree+1 list coloring and the
// hypergraph-symmetry-breaking multi-channel assignment, on the same
// engine, deployments and seeds. C1 sweeps the topology suite, C2 scales
// the node count, C3 injects churn.

import (
	"context"
	"fmt"

	"mcnet/internal/coloring"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/stats"
	"mcnet/internal/topology"
)

// colorBackends resolves the run's backend subset (default: every
// registered backend, sec7 first).
func (o Options) colorBackends() []string {
	if len(o.Colorers) == 0 {
		return coloring.Names()
	}
	return o.Colorers
}

// colorCase is one deployment of the c-series, with the structure sizing
// the sec7 backend derives its schedule from.
type colorCase struct {
	name     string
	pos      []geo.Point
	deltaHat int
	phiMax   int
	hopBound int
}

// colorSuite spans the topology families at one node count.
func colorSuite(n int, seed uint64) []colorCase {
	g := model.Default(4, n) // geometry only
	return []colorCase{
		{"crowd", topology.Crowd(newRand(seed), n, g.ClusterRadius()), n, 4, 2},
		{"uniform", topology.UniformDegree(newRand(seed+1), n, g.REps(), 12), 32, 24, 12},
		{"grid", topology.PerturbedGrid(newRand(seed+2), n, 0.5*g.REps(), 0.1*g.REps()), 16, 24, 12},
		{"line", topology.Line(n, 0.5), 6, 24, 12},
	}
}

// colorMetrics is one backend run's fold into a c-series row.
type colorMetrics struct {
	palette, cycle, rounds, colorSlots int
	conflicts, uncolored               int
	delivered, links                   int
	crashed                            int
	survConflicts, survUncolored       int
}

// runColorer executes one backend over a deployment, optionally under a
// fault spec, and extracts the comparable metrics. The structure plan is
// always built (it is cheap and only sec7 consumes it), so every backend
// sees an identical engine.
func runColorer(goctx context.Context, name string, tc colorCase, p model.Params, seed uint64, spec *fault.Spec) (colorMetrics, error) {
	var m colorMetrics
	b, err := coloring.ByName(name)
	if err != nil {
		return m, err
	}
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat = tc.deltaHat
	cfg.PhiMax = tc.phiMax
	cfg.HopBound = tc.hopBound
	pl := core.NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewField(p, tc.pos), seed)
	var inj *fault.Injector
	if spec != nil {
		if err := spec.Validate(len(tc.pos), p.Channels); err != nil {
			return m, err
		}
		inj = fault.NewInjector(*spec, seed, len(tc.pos), p.Channels, pl.Offsets.End)
		e.Faults = inj
	}
	res, st, err := b.Color(goctx, e, pl)
	if err != nil {
		return m, err
	}
	m.palette, m.cycle, m.rounds, m.colorSlots = st.Palette, st.Cycle, st.Rounds, st.ColorSlots
	m.conflicts, m.uncolored, _ = coloring.Validate(tc.pos, p.REps(), res)
	colors := make([]int, len(res))
	for i, r := range res {
		colors[i] = r.Color
	}
	m.delivered, m.links = coloring.VerifyTDMA(tc.pos, p, colors)
	if inj != nil {
		rep := inj.Report()
		m.crashed = len(rep.CrashedNodes)
		dead := make(map[int]bool, m.crashed)
		for _, id := range rep.CrashedNodes {
			dead[id] = true
		}
		g := graph.Build(tc.pos, p.REps())
		for i, r := range res {
			if dead[i] {
				continue
			}
			if r.Color < 0 {
				m.survUncolored++
				continue
			}
			for _, j := range g.Neighbors(i) {
				if int(j) > i && !dead[int(j)] && res[j].Color == r.Color {
					m.survConflicts++
				}
			}
		}
	}
	return m, nil
}

// C1ColorHeadToHead races every backend over the topology suite: palette,
// induced TDMA cycle, rounds to stabilize, slots to the last color, and the
// verified single-channel delivery of the resulting schedule. The
// acceptance claim lives here: dplus1 and hsb use strictly smaller palettes
// than sec7's k·φ + i sequence, and hsb's F-packed pairs shorten the cycle
// further.
func C1ColorHeadToHead(o Options) (*stats.Table, error) {
	n, f := 64, 4
	if o.Quick {
		n = 36
	}
	suite := colorSuite(n, 41)
	backends := o.colorBackends()
	seeds := o.seeds()
	runs, err := sweep(o, len(suite)*len(backends)*seeds, func(ctx context.Context, i int) (colorMetrics, error) {
		tc := suite[i/(len(backends)*seeds)]
		b := backends[i/seeds%len(backends)]
		s := i % seeds
		return runColorer(ctx, b, tc, model.Default(f, n), uint64(700+s), nil)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("C1: coloring backends head-to-head (n=%d, F=%d)", n, f),
		"topo", "backend", "palette", "cycle", "rounds", "color_slots", "tdma_delivered", "conflicts", "uncolored")
	for ti, tc := range suite {
		for bi, b := range backends {
			agg := foldColorRuns(runs[(ti*len(backends)+bi)*seeds : (ti*len(backends)+bi+1)*seeds])
			t.AddRow(tc.name, b, stats.I(agg.palette), stats.I(agg.cycle),
				stats.I(agg.rounds), stats.I(agg.colorSlots),
				pct(agg.delivered, agg.links), stats.I(agg.conflicts), stats.I(agg.uncolored))
		}
	}
	t.AddNote("seeds=%d; palette/cycle are per-seed maxima, rounds/color_slots medians", seeds)
	t.AddNote("cycle counts TDMA slots: hsb packs F colors per slot on distinct channels")
	t.AddNote("tdma_delivered verifies the schedule single-channel over the SINR layer")
	t.AddNote("sec7 conflicts are cross-cluster (clusters within interference range drawing one palette) — present pre-refactor, see the golden transcripts")
	return t, nil
}

// C2ColorScaling scales the node count on the bounded-degree uniform field:
// palettes should track the (constant) degree, not n, while rounds grow
// slowly with n.
func C2ColorScaling(o Options) (*stats.Table, error) {
	ns := []int{32, 64, 96}
	if o.Quick {
		ns = []int{24, 48}
	}
	f := 4
	backends := o.colorBackends()
	seeds := o.seeds()
	type c2case struct {
		n  int
		tc colorCase
	}
	cases := make([]c2case, len(ns))
	for i, n := range ns {
		g := model.Default(f, n)
		cases[i] = c2case{n, colorCase{"uniform", topology.UniformDegree(newRand(uint64(50+i)), n, g.REps(), 12), 32, 24, 12}}
	}
	runs, err := sweep(o, len(cases)*len(backends)*seeds, func(ctx context.Context, i int) (colorMetrics, error) {
		c := cases[i/(len(backends)*seeds)]
		b := backends[i/seeds%len(backends)]
		s := i % seeds
		return runColorer(ctx, b, c.tc, model.Default(f, c.n), uint64(800+s), nil)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("C2: backend scaling on uniform degree-12 fields (F=%d)", f),
		"n", "backend", "palette", "cycle", "rounds", "color_slots", "conflicts", "uncolored")
	for ci, c := range cases {
		for bi, b := range backends {
			agg := foldColorRuns(runs[(ci*len(backends)+bi)*seeds : (ci*len(backends)+bi+1)*seeds])
			t.AddRow(stats.I(c.n), b, stats.I(agg.palette), stats.I(agg.cycle),
				stats.I(agg.rounds), stats.I(agg.colorSlots),
				stats.I(agg.conflicts), stats.I(agg.uncolored))
		}
	}
	t.AddNote("seeds=%d; a degree-bound palette stays flat in n while sec7's φ-strided palette tracks its cluster sizing", seeds)
	return t, nil
}

// C3ColorChurn crashes a random node fraction mid-run and scores what each
// backend leaves behind for the survivors: conflicts and uncolored nodes
// among live pairs only, since a crashed node's half-finished color is
// nobody's schedule.
func C3ColorChurn(o Options) (*stats.Table, error) {
	n, f := 48, 4
	rates := []float64{0, 0.1, 0.2}
	if o.Quick {
		n = 32
		rates = []float64{0, 0.2}
	}
	g := model.Default(f, n)
	tc := colorCase{"crowd", topology.Crowd(newRand(61), n, g.ClusterRadius()), n, 4, 2}
	backends := o.colorBackends()
	seeds := o.seeds()
	runs, err := sweep(o, len(rates)*len(backends)*seeds, func(ctx context.Context, i int) (colorMetrics, error) {
		rate := rates[i/(len(backends)*seeds)]
		b := backends[i/seeds%len(backends)]
		s := i % seeds
		spec := fault.Spec{CrashRate: rate}
		return runColorer(ctx, b, tc, model.Default(f, n), uint64(900+s), &spec)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("C3: backend robustness under churn (crowd n=%d, F=%d)", n, f),
		"crash_rate", "backend", "crashed", "surv_conflicts", "surv_uncolored", "palette")
	for ri, rate := range rates {
		for bi, b := range backends {
			sl := runs[(ri*len(backends)+bi)*seeds : (ri*len(backends)+bi+1)*seeds]
			agg := foldColorRuns(sl)
			crashed, survConf, survUnc := 0, 0, 0
			for _, r := range sl {
				crashed += r.crashed
				survConf += r.survConflicts
				survUnc += r.survUncolored
			}
			t.AddRow(stats.F(rate), b, stats.I(crashed), stats.I(survConf),
				stats.I(survUnc), stats.I(agg.palette))
		}
	}
	t.AddNote("seeds=%d; crashed/surv_* are totals across seeds; survivors exclude crashed nodes and their edges", seeds)
	return t, nil
}

// foldColorRuns folds per-seed metrics into one row: maxima for palette and
// cycle (worst case is the claim), medians for the latency measures, sums
// for the correctness counters, minima-preserving sums for delivery.
func foldColorRuns(sl []colorMetrics) colorMetrics {
	var agg colorMetrics
	var rounds, slots []int
	for _, r := range sl {
		if r.palette > agg.palette {
			agg.palette = r.palette
		}
		if r.cycle > agg.cycle {
			agg.cycle = r.cycle
		}
		rounds = append(rounds, r.rounds)
		slots = append(slots, r.colorSlots)
		agg.conflicts += r.conflicts
		agg.uncolored += r.uncolored
		agg.delivered += r.delivered
		agg.links += r.links
	}
	agg.rounds = stats.MedianInt(rounds)
	agg.colorSlots = stats.MedianInt(slots)
	return agg
}
