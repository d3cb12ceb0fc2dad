package mcnet

import (
	"context"
	"fmt"

	"mcnet/internal/batch"
	"mcnet/internal/fault"
	"mcnet/internal/stats"
)

// Scenario describes a deterministic fault-intensity sweep: one deployment
// configuration run across a grid of loss probabilities, jammed-channel
// counts and churn rates, with a fixed number of seeded repetitions per grid
// point. RunScenario executes the full cross product and reports medians —
// for a fixed BaseSeed the emitted table is stable across runs and across
// worker counts.
type Scenario struct {
	// Name titles the report (default "scenario").
	Name string
	// N is the node count (≥ 2).
	N int
	// Options are the base construction options applied to every grid
	// point (topology, channels, ...). Per-point Seed, Loss, Jamming and
	// Churn options are appended after them, so leave those to the sweep.
	Options []Option
	// Loss, Jam and Churn are the sweep axes: loss probabilities,
	// jammed-channel counts, and rate-based churn probabilities. An empty
	// axis sweeps the single value 0. RunScenario validates the axes up
	// front: losses and churn rates must lie in [0, 1] and jam counts must
	// leave at least one of the deployment's channels usable.
	Loss  []float64
	Jam   []int
	Churn []float64
	// Byz is the Byzantine-fraction axis: per grid point, the fraction of
	// nodes corrupted as the Byzantine option would (an empty axis sweeps
	// the single value 0). ByzStrategy picks what the corrupted nodes do
	// (default ByzCorrupt).
	Byz         []float64
	ByzStrategy ByzStrategy
	// JamModel picks the jamming adversary (default JamOblivious).
	JamModel JamModel
	// Seeds is the number of repetitions per grid point (default 1);
	// repetition s runs with seed BaseSeed + s. BaseSeed defaults to 1.
	Seeds    int
	BaseSeed uint64
	// Op is the aggregate to compute (default Sum).
	Op Aggregator
	// Workers sizes the run pool: 0 (the default) uses GOMAXPROCS, 1
	// forces the serial sweep. The emitted table is byte-identical at
	// every setting.
	Workers int
	// Progress, when non-nil, is called after each completed run with the
	// number of finished runs and the total (grid points × seeds). Calls
	// are serialized but arrive on worker goroutines; keep it fast.
	Progress func(done, total int)
}

// axes returns the sweep axes with empty ones widened to {0}.
func (sc Scenario) axes() (loss []float64, jam []int, churn, byz []float64) {
	loss, jam, churn, byz = sc.Loss, sc.Jam, sc.Churn, sc.Byz
	if len(loss) == 0 {
		loss = []float64{0}
	}
	if len(jam) == 0 {
		jam = []int{0}
	}
	if len(churn) == 0 {
		churn = []float64{0}
	}
	if len(byz) == 0 {
		byz = []float64{0}
	}
	return loss, jam, churn, byz
}

// validateAxes rejects out-of-range sweep values before any run starts:
// loss and churn are probabilities, and a jam count that covers every
// channel would leave the adversary nothing to spare. channels is the
// deployment's channel count after applying the base options.
func validateAxes(loss []float64, jam []int, churn, byz []float64, channels int) error {
	for _, lp := range loss {
		if lp < 0 || lp > 1 || lp != lp {
			return fmt.Errorf("mcnet: scenario loss probability %v must be in [0, 1]", lp)
		}
	}
	for _, k := range jam {
		if k < 0 {
			return fmt.Errorf("mcnet: scenario jam count %d must be ≥ 0", k)
		}
		if k > 0 && k >= channels {
			return fmt.Errorf("mcnet: scenario jam count %d covers every one of %d channels; leave at least one usable", k, channels)
		}
	}
	for _, cr := range churn {
		if cr < 0 || cr > 1 || cr != cr {
			return fmt.Errorf("mcnet: scenario churn rate %v must be in [0, 1]", cr)
		}
	}
	for _, bf := range byz {
		if bf < 0 || bf > 1 || bf != bf {
			return fmt.Errorf("mcnet: scenario byzantine fraction %v must be in [0, 1]", bf)
		}
	}
	return nil
}

// validJamModel reports whether m names a known jamming adversary, so the
// sweep rejects it up front rather than after the first deployment build.
func validJamModel(m JamModel) bool {
	switch fault.JamModel(m) {
	case fault.JamOblivious, fault.JamRoundRobin, fault.JamReactive, fault.JamAdaptive:
		return true
	}
	return false
}

// validByzStrategy reports whether s names a known Byzantine strategy.
func validByzStrategy(s ByzStrategy) bool {
	switch fault.ByzStrategy(s) {
	case fault.ByzCorrupt, fault.ByzEquivocate, fault.ByzSilent:
		return true
	}
	return false
}

// RunResult is the serializable summary of one sweep run — exactly the
// fields a scenario's table fold consumes, so a table rebuilt from
// persisted RunResults is byte-identical to one folded from the live
// *AggregateResults. The scenario service stores one RunResult per
// completed (grid point × seed) item in its NDJSON result logs.
type RunResult struct {
	// Informed and Exact count nodes that learned some aggregate / the
	// exact fold; Nodes is the deployment size.
	Informed int `json:"informed"`
	Exact    int `json:"exact"`
	Nodes    int `json:"nodes"`
	// AckSlots and AggSlots are the event-measured aggregation latencies
	// (see AggregateResult).
	AckSlots int `json:"ack_slots"`
	AggSlots int `json:"agg_slots"`
	// Faulted records that the run carried a fault layer; the remaining
	// fields summarize its FaultReport and are zero otherwise.
	Faulted           bool `json:"faulted,omitempty"`
	Lost              int  `json:"lost,omitempty"`
	Crashed           int  `json:"crashed,omitempty"`
	Survivors         int  `json:"survivors,omitempty"`
	SurvivorsAgreeing int  `json:"survivors_agreeing,omitempty"`
	// SurvivorsExact counts honest survivors that learned the exact fold;
	// Byzantine, Corrupted and Dropped summarize the Byzantine layer's
	// membership and activity. All additive (omitted when zero), so records
	// persisted by earlier releases fold identically.
	SurvivorsExact int `json:"survivors_exact,omitempty"`
	Byzantine      int `json:"byzantine,omitempty"`
	Corrupted      int `json:"corrupted,omitempty"`
	Dropped        int `json:"dropped,omitempty"`
}

// SummarizeRun condenses an AggregateResult into the RunResult form a
// scenario fold consumes.
func SummarizeRun(res *AggregateResult) RunResult {
	rr := RunResult{
		Informed: res.Informed,
		Exact:    res.Exact,
		Nodes:    len(res.Nodes),
		AckSlots: res.AckSlots,
		AggSlots: res.AggSlots,
	}
	if fr := res.Faults; fr != nil {
		rr.Faulted = true
		rr.Lost = fr.Lost
		rr.Crashed = len(fr.CrashedNodes)
		rr.Survivors = fr.Survivors
		rr.SurvivorsAgreeing = fr.SurvivorsAgreeing
		rr.SurvivorsExact = fr.SurvivorsExact
		rr.Byzantine = len(fr.ByzantineNodes)
		rr.Corrupted = fr.Corrupted
		rr.Dropped = fr.Dropped
	}
	return rr
}

// Sweep is a compiled scenario: the validated, flattened (grid point ×
// seed) work items plus the fold that turns their results into the report
// table. RunScenario and the scenario service share it, which is what
// makes a served sweep's table byte-identical to an in-process run — both
// execute the same Run items in the same index order and fold the same
// RunResult records.
//
// Run is safe for concurrent use from multiple goroutines and may be
// called for any subset of indices in any order (a resumed sweep re-runs
// only the items that never landed); results are pure functions of
// (scenario, index).
type Sweep struct {
	name        string
	n           int
	seeds       int
	baseSeed    uint64
	jamModel    JamModel
	byzStrategy ByzStrategy
	loss        []float64
	jam         []int
	churn       []float64
	byz         []float64
	specs       []RunSpec
	deploy      *deploySet
}

// Compile validates the scenario and expands it into its sweep: one
// RunSpec per (loss, jam, churn, repetition) in nested-loop order. The
// scenario's Workers and Progress fields are execution knobs and are not
// part of the compiled sweep.
func (sc Scenario) Compile() (*Sweep, error) {
	if sc.N < 2 {
		return nil, fmt.Errorf("mcnet: scenario n = %d must be ≥ 2", sc.N)
	}
	name := sc.Name
	if name == "" {
		name = "scenario"
	}
	seeds := sc.Seeds
	if seeds < 1 {
		seeds = 1
	}
	baseSeed := sc.BaseSeed
	if baseSeed == 0 {
		baseSeed = 1
	}
	op := sc.Op
	if op == nil {
		op = Sum
	}
	loss, jam, churn, byz := sc.axes()

	// Resolve the deployment's channel count from the base options so the
	// jam axis can be checked against it before anything runs.
	s := defaultSettings()
	for _, opt := range sc.Options {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	if err := validateAxes(loss, jam, churn, byz, s.channels); err != nil {
		return nil, err
	}
	if !validJamModel(sc.JamModel) {
		return nil, fmt.Errorf("mcnet: scenario jam model %d is unknown (valid: oblivious, roundrobin, reactive, adaptive)", int(sc.JamModel))
	}
	if !validByzStrategy(sc.ByzStrategy) {
		return nil, fmt.Errorf("mcnet: scenario byzantine strategy %d is unknown (valid: corrupt, equivocate, silent)", int(sc.ByzStrategy))
	}

	specs := make([]RunSpec, 0, len(loss)*len(jam)*len(churn)*len(byz)*seeds)
	for _, lp := range loss {
		for _, k := range jam {
			for _, cr := range churn {
				for _, bf := range byz {
					for rep := 0; rep < seeds; rep++ {
						specs = append(specs, RunSpec{
							Seed:        baseSeed + uint64(rep),
							Loss:        lp,
							Jam:         k,
							JamModel:    sc.JamModel,
							Churn:       ChurnSpec{Rate: cr},
							Byz:         bf,
							ByzStrategy: sc.ByzStrategy,
							Faulted:     true,
							Op:          op,
						})
					}
				}
			}
		}
	}
	return &Sweep{
		name:        name,
		n:           sc.N,
		seeds:       seeds,
		baseSeed:    baseSeed,
		jamModel:    sc.JamModel,
		byzStrategy: sc.ByzStrategy,
		loss:        loss,
		jam:         jam,
		churn:       churn,
		byz:         byz,
		specs:       specs,
		deploy:      newDeploySet(sc.N, sc.Options, specs),
	}, nil
}

// Len is the number of work items: grid points × seeds.
func (sw *Sweep) Len() int { return len(sw.specs) }

// Specs returns a copy of the expanded work items, indexed like Run.
func (sw *Sweep) Specs() []RunSpec {
	return append([]RunSpec(nil), sw.specs...)
}

// Run executes work item i and returns its summary. Items are independent
// and deterministic: any execution order, worker count or process restart
// yields the same RunResult for the same index. Deployments are shared per
// seed within one Sweep, so calling Run for many items costs one Network
// construction per distinct seed.
func (sw *Sweep) Run(ctx context.Context, i int) (RunResult, error) {
	if i < 0 || i >= len(sw.specs) {
		return RunResult{}, fmt.Errorf("mcnet: sweep item %d out of range [0, %d)", i, len(sw.specs))
	}
	res, err := sw.deploy.run(ctx, sw.specs[i])
	if err != nil {
		return RunResult{}, err
	}
	return SummarizeRun(res), nil
}

// Fold renders the sweep's report table from one RunResult per item,
// indexed like Run. It is a pure function of (sweep, results): folding
// persisted results after a restart emits exactly the table an
// uninterrupted run would have.
func (sw *Sweep) Fold(results []RunResult) (*Table, error) {
	if len(results) != len(sw.specs) {
		return nil, fmt.Errorf("mcnet: sweep fold got %d results, want %d", len(results), len(sw.specs))
	}
	t := stats.NewTable(
		fmt.Sprintf("%s: fault sweep (n=%d, %d seeds/point)", sw.name, sw.n, sw.seeds),
		"loss", "jam", "churn", "byz", "informed", "exact", "surv_exact", "surv_agree", "lost", "crashed", "ack_slots", "agg_slots")
	idx := 0
	for _, lp := range sw.loss {
		for _, k := range sw.jam {
			for _, cr := range sw.churn {
				for _, bf := range sw.byz {
					var acks, aggs []float64
					informed, exact, total := 0, 0, 0
					survAgree, survExact, survivors := 0, 0, 0
					lost, crashed := 0, 0
					for rep := 0; rep < sw.seeds; rep++ {
						res := results[idx]
						idx++
						informed += res.Informed
						exact += res.Exact
						total += res.Nodes
						acks = append(acks, float64(res.AckSlots))
						aggs = append(aggs, float64(res.AggSlots))
						if res.Faulted {
							survAgree += res.SurvivorsAgreeing
							survExact += res.SurvivorsExact
							survivors += res.Survivors
							lost += res.Lost
							crashed += res.Crashed
						}
					}
					t.AddRow(
						stats.F(lp), stats.I(k), stats.F(cr), stats.F(bf),
						scenarioPct(informed, total), scenarioPct(exact, total),
						scenarioPct(survExact, survivors),
						scenarioPct(survAgree, survivors),
						stats.I(lost), stats.I(crashed),
						stats.F1(stats.Median(acks)), stats.F1(stats.Median(aggs)))
				}
			}
		}
	}
	t.AddNote("jam model: %s; byz strategy: %s; seeds %d..%d; surv_exact/surv_agree over honest survivors",
		fault.JamModel(sw.jamModel), fault.ByzStrategy(sw.byzStrategy),
		sw.baseSeed, sw.baseSeed+uint64(sw.seeds)-1)
	return &Table{t: t}, nil
}

// RunScenario executes the scenario's full fault grid and returns the
// report: one row per (loss, jam, churn) point with median latencies and
// informed / exact / surviving-exact rates across seeds. The sweep is a
// deterministic function of the scenario — two consecutive runs emit
// identical tables, at any Workers setting — and runs execute across a
// worker pool, sharing one deployment construction per seed across all
// grid points. The sweep aborts promptly with ctx.Err() if ctx is
// cancelled, including between the seed repetitions of a single point.
func RunScenario(ctx context.Context, sc Scenario) (*Table, error) {
	if sc.Workers < 0 {
		return nil, fmt.Errorf("mcnet: batch workers = %d must be ≥ 0", sc.Workers)
	}
	sw, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	pool := batch.Pool{Workers: sc.Workers, Progress: sc.Progress}
	results, err := batch.Map(ctx, pool, sw.Len(), sw.Run)
	if err != nil {
		return nil, err
	}
	return sw.Fold(results)
}

func scenarioPct(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(a)/float64(b))
}
