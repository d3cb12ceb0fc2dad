package expt

import (
	"fmt"

	"mcnet/internal/fault"
	"mcnet/internal/model"
	"mcnet/internal/stats"
	"mcnet/internal/topology"
)

// faultCrowd is the shared deployment of the fault sweeps: a single-cluster
// crowd, the workload whose Δ/F contention the fault layer stresses most.
func faultCrowd(o Options) (n, f int) {
	if o.Quick {
		return 48, 4
	}
	return 96, 4
}

// F1LossSweep measures pipeline robustness against probabilistic message
// loss: informed/exact rates and acknowledgement latency as the
// per-reception loss probability grows.
func F1LossSweep(o Options) (*stats.Table, error) {
	n, f := faultCrowd(o)
	losses := []float64{0, 0.02, 0.05, 0.1, 0.2}
	if o.Quick {
		losses = []float64{0, 0.1}
	}
	rows, err := aggSweep(o, len(losses), func(li, s int) aggCase {
		c := crowdCase(f, n, uint64(s+71), uint64(2000+s))
		c.spec = &fault.Spec{LossProb: losses[li]}
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F1: aggregation vs message loss (crowd n=%d, F=%d)", n, f),
		"loss", "informed", "exact", "acked", "lost", "ack_slots", "agg_slots")
	for li, r := range rows {
		t.AddRow(stats.F(losses[li]), stats.Pct(r.informed, r.nodes), stats.Pct(r.exact, r.nodes),
			stats.I(r.acked/r.runs), stats.I(r.lost/r.runs),
			stats.F1(r.ack), stats.F1(r.agg))
	}
	t.AddNote("seeds=%d; loss = per-reception Bernoulli suppression; the ACK handshake retries, so informed%% should degrade gracefully", o.seeds())
	return t, nil
}

// F2JamSweep measures robustness against adversarial channel jamming, for
// both the oblivious and round-robin adversaries.
func F2JamSweep(o Options) (*stats.Table, error) {
	models := []fault.JamModel{fault.JamOblivious, fault.JamRoundRobin}
	if o.Quick {
		models = []fault.JamModel{fault.JamRoundRobin}
	}
	return jamSweep(o, "F2: aggregation vs jamming", models, 81, 3000,
		"adversary jams k of F=%d channels per slot; channel diversity should absorb small k")
}

// jamSweep is the body F2 and F5 share: the fault crowd at F = 8, jammed
// on k of its channels by each adversary in models. Layout and engine
// seeds are offset by the run's seed index; note is formatted with F.
func jamSweep(o Options, title string, models []fault.JamModel, layout, seed uint64, note string) (*stats.Table, error) {
	n, _ := faultCrowd(o)
	const f = 8
	ks := []int{0, 1, 2, 4}
	if o.Quick {
		ks = []int{0, 2}
	}
	type point struct {
		k  int
		jm fault.JamModel
	}
	var points []point
	for _, k := range ks {
		for _, jm := range models {
			if k == 0 && jm != models[0] {
				continue // k=0 rows are identical across adversaries
			}
			points = append(points, point{k, jm})
		}
	}
	rows, err := aggSweep(o, len(points), func(pi, s int) aggCase {
		c := crowdCase(f, n, layout+uint64(s), seed+uint64(s))
		c.spec = &fault.Spec{JamChannels: points[pi].k, JamModel: points[pi].jm}
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("%s (crowd n=%d, F=%d)", title, n, f),
		"jammed", "adversary", "informed", "exact", "ack_slots", "agg_slots")
	for pi, r := range rows {
		pt := points[pi]
		name := pt.jm.String()
		if pt.k == 0 {
			name = "-"
		}
		t.AddRow(stats.I(pt.k), name, stats.Pct(r.informed, r.nodes), stats.Pct(r.exact, r.nodes),
			stats.F1(r.ack), stats.F1(r.agg))
	}
	t.AddNote("seeds=%d; "+note, o.seeds(), f)
	return t, nil
}

// byzFractions resolves the Byzantine-fraction axis of a sweep: the -byz
// override when given, the experiment's default axis otherwise.
func byzFractions(o Options, def []float64) []float64 {
	if len(o.Byz) > 0 {
		return o.Byz
	}
	return def
}

// jamAdversaries resolves the jam-model axis of a sweep: the -jam-model
// override when given, the experiment's default set otherwise.
func jamAdversaries(o Options, def []fault.JamModel) []fault.JamModel {
	if len(o.JamModels) > 0 {
		return o.JamModels
	}
	return def
}

// F3ChurnSweep measures robustness against node churn: surviving-node
// aggregate correctness as the crash rate grows.
func F3ChurnSweep(o Options) (*stats.Table, error) {
	n, f := faultCrowd(o)
	rates := []float64{0, 0.05, 0.1, 0.2}
	if o.Quick {
		rates = []float64{0, 0.1}
	}
	rows, err := aggSweep(o, len(rates), func(ri, s int) aggCase {
		c := crowdCase(f, n, uint64(s+91), uint64(4000+s))
		c.spec = &fault.Spec{CrashRate: rates[ri]}
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F3: aggregation vs churn (crowd n=%d, F=%d)", n, f),
		"crash_rate", "crashed", "informed", "surv_informed", "surv_agree", "surv_exact", "agg_slots")
	for ri, r := range rows {
		sv := r.surv
		t.AddRow(stats.F(rates[ri]), stats.I(r.crashed/r.runs), stats.Pct(r.informed, r.nodes),
			stats.Pct(sv.Informed, sv.Survivors), stats.Pct(sv.Agreeing, sv.Survivors),
			stats.Pct(sv.Exact, sv.Survivors), stats.F1(r.agg))
	}
	t.AddNote("seeds=%d; crash slots drawn uniformly over the schedule; surv_agree = consensus among informed survivors (exactness vs the full fold is unreachable when nodes die before contributing)", o.seeds())
	return t, nil
}

// F4ByzantineSweep is the headline degradation sweep: honest-survivor
// correctness (SurvivorsExact/Agreeing) and delivery as the Byzantine
// fraction grows, for each lying strategy, under an oblivious and a
// round-robin jammer (the reactive/adaptive jammers fragment agreement so
// thoroughly on their own that they drown the Byzantine signal — F5 ranks
// them head-to-head; -jam-model swaps them in here for the brave).
// Byzantine nodes are excluded from every survivor count, so the columns
// measure what the honest population can still guarantee.
func F4ByzantineSweep(o Options) (*stats.Table, error) {
	// A sparse multi-cluster field (the A2 deployment), not the crowd: with
	// many clusters a lying dominator poisons only its own cluster, so
	// honest-survivor correctness degrades with the Byzantine fraction
	// instead of cliffing at the first liar.
	n := 80
	if o.Quick {
		n = 48
	}
	const f = 4
	fractions := byzFractions(o, []float64{0, 0.1, 0.2, 0.3})
	strategies := []fault.ByzStrategy{fault.ByzCorrupt, fault.ByzEquivocate, fault.ByzSilent}
	models := jamAdversaries(o, []fault.JamModel{fault.JamOblivious, fault.JamRoundRobin})
	if o.Quick {
		fractions = byzFractions(o, []float64{0, 0.2})
		strategies = []fault.ByzStrategy{fault.ByzCorrupt, fault.ByzEquivocate}
	}
	type f4Point struct {
		frac float64
		st   fault.ByzStrategy
		jm   fault.JamModel
	}
	var points []f4Point
	for _, jm := range models {
		for _, st := range strategies {
			for _, frac := range fractions {
				if frac == 0 && st != strategies[0] {
					continue // no Byzantine nodes: the strategy is moot
				}
				points = append(points, f4Point{frac, st, jm})
			}
		}
	}
	rows, err := aggSweep(o, len(points), func(pi, s int) aggCase {
		pt := points[pi]
		p := model.Default(f, 2*n)
		pos := topology.UniformDegree(topology.LayoutRand(uint64(5100*n+s)), n, p.REps(), 14)
		return aggCase{p: p, pos: pos, cfg: fieldSizing(24).config(p), seed: uint64(5000 + s),
			spec: &fault.Spec{
				JamChannels: 1,
				JamModel:    pt.jm,
				Byz:         fault.ByzSpec{Fraction: pt.frac, Strategy: pt.st},
			}}
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F4: aggregation vs Byzantine nodes (sparse field n=%d, F=%d, 1 jammed channel)", n, f),
		"byz", "strategy", "adversary", "byz_nodes", "informed", "surv_exact", "surv_agree", "agg_slots")
	for pi, r := range rows {
		pt := points[pi]
		name := pt.st.String()
		if pt.frac == 0 {
			name = "-"
		}
		t.AddRow(stats.F(pt.frac), name, pt.jm.String(), stats.I(r.byz/r.runs),
			stats.Pct(r.informed, r.nodes), stats.Pct(r.surv.Exact, r.surv.Survivors),
			stats.Pct(r.surv.Agreeing, r.surv.Survivors), stats.F1(r.agg))
	}
	t.AddNote("seeds=%d; surv_* counts exclude the Byzantine nodes themselves: corrupt/equivocate poison the fold (surv_exact falls, surv_agree tracks the largest lie-consistent bloc), silent starves it", o.seeds())
	return t, nil
}

// F5JamHeadToHead pits all four jamming adversaries against the pipeline at
// equal channel budget k: the reactive and adaptive attackers chase the
// traffic the oblivious ones only stumble onto.
func F5JamHeadToHead(o Options) (*stats.Table, error) {
	models := jamAdversaries(o, []fault.JamModel{
		fault.JamOblivious, fault.JamRoundRobin, fault.JamReactive, fault.JamAdaptive})
	return jamSweep(o, "F5: jamming adversaries head-to-head", models, 111, 6000,
		"all adversaries jam k of F=%d channels per slot; reactive/adaptive target last slot's decoded traffic, oblivious/roundrobin ignore it")
}

// F6ByzChurnSweep composes Byzantine corruption with fail-stop churn: lying
// nodes plus crashing honest ones, the compound failure mode a deployment
// actually sees.
func F6ByzChurnSweep(o Options) (*stats.Table, error) {
	n, f := faultCrowd(o)
	fractions := byzFractions(o, []float64{0, 0.1, 0.2})
	rates := []float64{0, 0.05, 0.1}
	if o.Quick {
		fractions = byzFractions(o, []float64{0, 0.2})
		rates = []float64{0, 0.1}
	}
	type f6Point struct {
		frac, rate float64
	}
	var points []f6Point
	for _, frac := range fractions {
		for _, rate := range rates {
			points = append(points, f6Point{frac, rate})
		}
	}
	rows, err := aggSweep(o, len(points), func(pi, s int) aggCase {
		c := crowdCase(f, n, uint64(s+121), uint64(7000+s))
		c.spec = &fault.Spec{
			CrashRate: points[pi].rate,
			Byz:       fault.ByzSpec{Fraction: points[pi].frac, Strategy: fault.ByzCorrupt},
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F6: Byzantine × churn composition (crowd n=%d, F=%d, strategy=corrupt)", n, f),
		"byz", "crash_rate", "byz_nodes", "crashed", "informed", "surv_exact", "surv_agree", "agg_slots")
	for pi, r := range rows {
		pt := points[pi]
		t.AddRow(stats.F(pt.frac), stats.F(pt.rate), stats.I(r.byz/r.runs), stats.I(r.crashed/r.runs),
			stats.Pct(r.informed, r.nodes), stats.Pct(r.surv.Exact, r.surv.Survivors),
			stats.Pct(r.surv.Agreeing, r.surv.Survivors), stats.F1(r.agg))
	}
	t.AddNote("seeds=%d; survivor counts exclude both crashed and Byzantine nodes; corrupt lies compound with churn losses instead of masking them", o.seeds())
	return t, nil
}
