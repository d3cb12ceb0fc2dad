package mcnet

import (
	"context"
	"fmt"

	"mcnet/internal/batch"
	"mcnet/internal/fault"
	"mcnet/internal/stats"
)

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

// Sweep is a compiled ScenarioSpec: the validated, flattened (grid point ×
// seed) work items plus the fold that turns their results into the report
// table. RunScenario and the scenario service share it, which is what
// makes a served sweep's table byte-identical to an in-process run — both
// execute the same Run items in the same index order and fold the same
// RunResult records.
//
// Run is safe for concurrent use from multiple goroutines and may be
// called for any subset of indices in any order (a resumed sweep re-runs
// only the items that never landed); results are pure functions of
// (spec, index).
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
	op          Aggregator
	base        []Option
	specs       []RunSpec
	deploy      *deploySet
}

// Len is the number of work items: grid points × seeds.
func (sw *Sweep) Len() int { return len(sw.specs) }

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
						stats.Pct(informed, total), stats.Pct(exact, total),
						stats.Pct(survExact, survivors),
						stats.Pct(survAgree, survivors),
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

// RunScenario compiles the spec and executes its full fault grid across
// bo's worker pool, returning the report: one row per (loss, jam, churn,
// byz) point with median latencies and informed / exact / surviving-exact
// rates across seeds. The sweep is a deterministic function of the spec —
// two consecutive runs emit identical tables, at any Workers setting — and
// runs share one deployment construction per seed across all grid points.
// The sweep aborts promptly with ctx.Err() if ctx is cancelled, including
// between the seed repetitions of a single point.
func RunScenario(ctx context.Context, sp ScenarioSpec, bo BatchOptions) (*Table, error) {
	if bo.Workers < 0 {
		return nil, fmt.Errorf("mcnet: batch workers = %d must be ≥ 0", bo.Workers)
	}
	sw, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	pool := batch.Pool{Workers: bo.Workers, Progress: bo.Progress}
	results, err := batch.Map(ctx, pool, sw.Len(), sw.Run)
	if err != nil {
		return nil, err
	}
	return sw.Fold(results)
}
