package expt

import (
	"fmt"

	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/stats"
	"mcnet/internal/topology"
)

// RunAggFaults executes the pipeline once under a fault spec and extracts
// metrics plus the injector's report. The spec must be valid for
// (len(pos), p.Channels); the rate-based crash window defaults to the
// schedule's slot budget.
func RunAggFaults(pos []geo.Point, p model.Params, cfg core.Config, values []int64, op agg.Op, seed uint64, spec fault.Spec) (AggMetrics, fault.Report, error) {
	if err := spec.Validate(len(pos), p.Channels); err != nil {
		return AggMetrics{}, fault.Report{}, err
	}
	pl := core.NewPlan(p, cfg)
	inj := fault.NewInjector(spec, seed, len(pos), p.Channels, pl.Offsets.End)
	return runAgg(pos, p, cfg, values, op, seed, inj)
}

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
	type f1Run struct {
		ack, agg                            float64
		informed, exact, acked, lost, total int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(losses)*seeds, func(i int) (f1Run, error) {
		lp, s := losses[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+71))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		m, rep, err := RunAggFaults(pos, p, cfg, values, agg.Sum,
			uint64(2000+s), fault.Spec{LossProb: lp})
		if err != nil {
			return f1Run{}, err
		}
		return f1Run{float64(m.AckSlots), float64(m.AggSlots),
			m.Informed, m.Exact, m.FollowersAcked, rep.Lost, m.N}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F1: aggregation vs message loss (crowd n=%d, F=%d)", n, f),
		"loss", "informed", "exact", "acked", "lost", "ack_slots", "agg_slots")
	for li, lp := range losses {
		var acks, aggs []float64
		informed, exact, acked, lost, total := 0, 0, 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[li*seeds+s]
			informed += r.informed
			exact += r.exact
			acked += r.acked
			lost += r.lost
			total += r.total
			acks = append(acks, r.ack)
			aggs = append(aggs, r.agg)
		}
		t.AddRow(stats.F(lp), pct(informed, total), pct(exact, total),
			stats.I(acked/o.seeds()), stats.I(lost/o.seeds()),
			stats.F1(stats.Median(acks)), stats.F1(stats.Median(aggs)))
	}
	t.AddNote("seeds=%d; loss = per-reception Bernoulli suppression; the ACK handshake retries, so informed%% should degrade gracefully", o.seeds())
	return t, nil
}

// F2JamSweep measures robustness against adversarial channel jamming, for
// both the oblivious and round-robin adversaries.
func F2JamSweep(o Options) (*stats.Table, error) {
	n, _ := faultCrowd(o)
	const f = 8
	ks := []int{0, 1, 2, 4}
	models := []fault.JamModel{fault.JamOblivious, fault.JamRoundRobin}
	if o.Quick {
		ks = []int{0, 2}
		models = []fault.JamModel{fault.JamRoundRobin}
	}
	type f2Point struct {
		k  int
		jm fault.JamModel
	}
	var points []f2Point
	for _, k := range ks {
		for _, jm := range models {
			if k == 0 && jm != models[0] {
				continue // k=0 rows are identical across adversaries
			}
			points = append(points, f2Point{k, jm})
		}
	}
	type f2Run struct {
		ack, agg               float64
		informed, exact, total int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(points)*seeds, func(i int) (f2Run, error) {
		pt, s := points[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+81))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		m, _, err := RunAggFaults(pos, p, cfg, values, agg.Sum,
			uint64(3000+s), fault.Spec{JamChannels: pt.k, JamModel: pt.jm})
		if err != nil {
			return f2Run{}, err
		}
		return f2Run{float64(m.AckSlots), float64(m.AggSlots), m.Informed, m.Exact, m.N}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F2: aggregation vs jamming (crowd n=%d, F=%d)", n, f),
		"jammed", "adversary", "informed", "exact", "ack_slots", "agg_slots")
	for pi, pt := range points {
		var acks, aggs []float64
		informed, exact, total := 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[pi*seeds+s]
			informed += r.informed
			exact += r.exact
			total += r.total
			acks = append(acks, r.ack)
			aggs = append(aggs, r.agg)
		}
		name := pt.jm.String()
		if pt.k == 0 {
			name = "-"
		}
		t.AddRow(stats.I(pt.k), name, pct(informed, total), pct(exact, total),
			stats.F1(stats.Median(acks)), stats.F1(stats.Median(aggs)))
	}
	t.AddNote("seeds=%d; adversary jams k of F=%d channels per slot; channel diversity should absorb small k", o.seeds(), f)
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
	type f3Run struct {
		agg                                           float64
		crashed, informed, total                      int
		survivors, survInformed, survAgree, survExact int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(rates)*seeds, func(i int) (f3Run, error) {
		cr, s := rates[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+91))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		m, rep, err := RunAggFaults(pos, p, cfg, values, agg.Sum,
			uint64(4000+s), fault.Spec{CrashRate: cr})
		if err != nil {
			return f3Run{}, err
		}
		return f3Run{
			agg:          float64(m.AggSlots),
			crashed:      len(rep.CrashedNodes),
			informed:     m.Informed,
			total:        m.N,
			survivors:    m.Survivors,
			survInformed: m.SurvivorsInformed,
			survAgree:    m.SurvivorsAgreeing,
			survExact:    m.SurvivorsExact,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F3: aggregation vs churn (crowd n=%d, F=%d)", n, f),
		"crash_rate", "crashed", "informed", "surv_informed", "surv_agree", "surv_exact", "agg_slots")
	for ri, cr := range rates {
		var aggs []float64
		crashed, informed, total := 0, 0, 0
		survInformed, survAgree, survExact, survivors := 0, 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[ri*seeds+s]
			crashed += r.crashed
			informed += r.informed
			total += r.total
			survivors += r.survivors
			survInformed += r.survInformed
			survAgree += r.survAgree
			survExact += r.survExact
			aggs = append(aggs, r.agg)
		}
		t.AddRow(stats.F(cr), stats.I(crashed/o.seeds()), pct(informed, total),
			pct(survInformed, survivors), pct(survAgree, survivors), pct(survExact, survivors),
			stats.F1(stats.Median(aggs)))
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
	type f4Run struct {
		agg                             float64
		byz, informed, total            int
		survivors, survExact, survAgree int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(points)*seeds, func(i int) (f4Run, error) {
		pt, s := points[i/seeds], i%seeds
		p := model.Default(f, 2*n)
		pos := topology.UniformDegree(newRand(uint64(5100*n+s)), n, p.REps(), 14)
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = 32
		cfg.PhiMax = 24
		cfg.HopBound = 14
		m, rep, err := RunAggFaults(pos, p, cfg, values, agg.Sum,
			uint64(5000+s), fault.Spec{
				JamChannels: 1,
				JamModel:    pt.jm,
				Byz:         fault.ByzSpec{Fraction: pt.frac, Strategy: pt.st},
			})
		if err != nil {
			return f4Run{}, err
		}
		return f4Run{
			agg:       float64(m.AggSlots),
			byz:       len(rep.ByzantineNodes),
			informed:  m.Informed,
			total:     m.N,
			survivors: m.Survivors,
			survExact: m.SurvivorsExact,
			survAgree: m.SurvivorsAgreeing,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F4: aggregation vs Byzantine nodes (sparse field n=%d, F=%d, 1 jammed channel)", n, f),
		"byz", "strategy", "adversary", "byz_nodes", "informed", "surv_exact", "surv_agree", "agg_slots")
	for pi, pt := range points {
		var aggs []float64
		byz, informed, total := 0, 0, 0
		survivors, survExact, survAgree := 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[pi*seeds+s]
			byz += r.byz
			informed += r.informed
			total += r.total
			survivors += r.survivors
			survExact += r.survExact
			survAgree += r.survAgree
			aggs = append(aggs, r.agg)
		}
		name := pt.st.String()
		if pt.frac == 0 {
			name = "-"
		}
		t.AddRow(stats.F(pt.frac), name, pt.jm.String(), stats.I(byz/seeds),
			pct(informed, total), pct(survExact, survivors), pct(survAgree, survivors),
			stats.F1(stats.Median(aggs)))
	}
	t.AddNote("seeds=%d; surv_* counts exclude the Byzantine nodes themselves: corrupt/equivocate poison the fold (surv_exact falls, surv_agree tracks the largest lie-consistent bloc), silent starves it", o.seeds())
	return t, nil
}

// F5JamHeadToHead pits all four jamming adversaries against the pipeline at
// equal channel budget k: the reactive and adaptive attackers chase the
// traffic the oblivious ones only stumble onto.
func F5JamHeadToHead(o Options) (*stats.Table, error) {
	n, _ := faultCrowd(o)
	const f = 8
	ks := []int{0, 1, 2, 4}
	models := jamAdversaries(o, []fault.JamModel{
		fault.JamOblivious, fault.JamRoundRobin, fault.JamReactive, fault.JamAdaptive})
	if o.Quick {
		ks = []int{0, 2}
	}
	type f5Point struct {
		k  int
		jm fault.JamModel
	}
	var points []f5Point
	for _, k := range ks {
		for _, jm := range models {
			if k == 0 && jm != models[0] {
				continue // k=0 rows are identical across adversaries
			}
			points = append(points, f5Point{k, jm})
		}
	}
	type f5Run struct {
		ack, agg               float64
		informed, exact, total int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(points)*seeds, func(i int) (f5Run, error) {
		pt, s := points[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+111))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		m, _, err := RunAggFaults(pos, p, cfg, values, agg.Sum,
			uint64(6000+s), fault.Spec{JamChannels: pt.k, JamModel: pt.jm})
		if err != nil {
			return f5Run{}, err
		}
		return f5Run{float64(m.AckSlots), float64(m.AggSlots), m.Informed, m.Exact, m.N}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F5: jamming adversaries head-to-head (crowd n=%d, F=%d)", n, f),
		"jammed", "adversary", "informed", "exact", "ack_slots", "agg_slots")
	for pi, pt := range points {
		var acks, aggs []float64
		informed, exact, total := 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[pi*seeds+s]
			informed += r.informed
			exact += r.exact
			total += r.total
			acks = append(acks, r.ack)
			aggs = append(aggs, r.agg)
		}
		name := pt.jm.String()
		if pt.k == 0 {
			name = "-"
		}
		t.AddRow(stats.I(pt.k), name, pct(informed, total), pct(exact, total),
			stats.F1(stats.Median(acks)), stats.F1(stats.Median(aggs)))
	}
	t.AddNote("seeds=%d; all adversaries jam k of F=%d channels per slot; reactive/adaptive target last slot's decoded traffic, oblivious/roundrobin ignore it", o.seeds(), f)
	return t, nil
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
	type f6Run struct {
		agg                             float64
		byz, crashed, informed, total   int
		survivors, survExact, survAgree int
	}
	seeds := o.seeds()
	runs, err := sweep(o, len(points)*seeds, func(i int) (f6Run, error) {
		pt, s := points[i/seeds], i%seeds
		p := model.Default(f, n)
		pos := Crowd(p, n, uint64(s+121))
		values, _ := sequentialValues(n)
		cfg := core.DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		m, rep, err := RunAggFaults(pos, p, cfg, values, agg.Sum,
			uint64(7000+s), fault.Spec{
				CrashRate: pt.rate,
				Byz:       fault.ByzSpec{Fraction: pt.frac, Strategy: fault.ByzCorrupt},
			})
		if err != nil {
			return f6Run{}, err
		}
		return f6Run{
			agg:       float64(m.AggSlots),
			byz:       len(rep.ByzantineNodes),
			crashed:   len(rep.CrashedNodes),
			informed:  m.Informed,
			total:     m.N,
			survivors: m.Survivors,
			survExact: m.SurvivorsExact,
			survAgree: m.SurvivorsAgreeing,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("F6: Byzantine × churn composition (crowd n=%d, F=%d, strategy=corrupt)", n, f),
		"byz", "crash_rate", "byz_nodes", "crashed", "informed", "surv_exact", "surv_agree", "agg_slots")
	for pi, pt := range points {
		var aggs []float64
		byz, crashed, informed, total := 0, 0, 0, 0
		survivors, survExact, survAgree := 0, 0, 0
		for s := 0; s < seeds; s++ {
			r := runs[pi*seeds+s]
			byz += r.byz
			crashed += r.crashed
			informed += r.informed
			total += r.total
			survivors += r.survivors
			survExact += r.survExact
			survAgree += r.survAgree
			aggs = append(aggs, r.agg)
		}
		t.AddRow(stats.F(pt.frac), stats.F(pt.rate), stats.I(byz/seeds), stats.I(crashed/seeds),
			pct(informed, total), pct(survExact, survivors), pct(survAgree, survivors),
			stats.F1(stats.Median(aggs)))
	}
	t.AddNote("seeds=%d; survivor counts exclude both crashed and Byzantine nodes; corrupt lies compound with churn losses instead of masking them", o.seeds())
	return t, nil
}
