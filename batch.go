package mcnet

import (
	"context"
	"fmt"
	"sync"

	"mcnet/internal/batch"
	"mcnet/internal/fault"
)

// RunSpec selects one aggregation run of a batch: a deployment seed plus
// the fault intensities layered onto the batch's base options. Runs of a
// batch that share a Seed also share their deployment — positions,
// topology-derived sizing, pipeline plan and graph precomputation are
// built once per distinct seed and reused across every fault intensity,
// exactly reproducing what building a fresh Network per run would have
// produced.
type RunSpec struct {
	// Seed is the run seed: it drives the layout and every protocol
	// decision, exactly as the Seed option does.
	Seed uint64

	// Loss, Jam/JamModel and Churn configure the run's fault layer with the
	// semantics of the equally named options. When Faulted is false and all
	// intensities are zero, the fault layer from the batch's base options
	// (if any) applies unchanged; otherwise these fields replace it
	// entirely, as appending the three fault options would.
	Loss     float64
	Jam      int
	JamModel JamModel
	Churn    ChurnSpec
	// Byz and ByzStrategy configure the Byzantine population with the
	// semantics of the Byzantine option: Byz is the fraction of nodes
	// corrupted, ByzStrategy what they do.
	Byz         float64
	ByzStrategy ByzStrategy
	// Faulted forces the fault layer on even at zero intensity — the
	// Loss(0) idiom: the run replays the fault-free transcript bit-for-bit
	// but its result carries a FaultReport.
	Faulted bool

	// Values are the per-node inputs; nil means 1..n (the standard sweep
	// workload). A non-nil slice must hold one value per deployed node.
	Values []int64
	// Op is the aggregate to compute (default Sum).
	Op Aggregator
}

// faultSpec converts the public fault fields to the internal spec, exactly
// as the Loss, Jamming and Churn options would set it.
func (rs RunSpec) faultSpec() fault.Spec {
	var fs fault.Spec
	fs.LossProb = rs.Loss
	fs.JamChannels = rs.Jam
	fs.JamModel = fault.JamModel(rs.JamModel)
	if len(rs.Churn.CrashAt) > 0 {
		fs.CrashAt = make(map[int]int, len(rs.Churn.CrashAt))
		for id, slot := range rs.Churn.CrashAt {
			fs.CrashAt[id] = slot
		}
	}
	fs.CrashRate = rs.Churn.Rate
	fs.CrashFrom, fs.CrashUntil = rs.Churn.From, rs.Churn.Until
	fs.Byz.Fraction = rs.Byz
	fs.Byz.Strategy = fault.ByzStrategy(rs.ByzStrategy)
	return fs
}

// faulted reports whether the spec carries its own fault layer.
func (rs RunSpec) faulted() bool {
	return rs.Faulted || rs.Loss != 0 || rs.Jam != 0 || rs.Churn.Rate != 0 ||
		len(rs.Churn.CrashAt) > 0 || rs.Byz != 0
}

// BatchOptions tunes RunBatch's execution; the zero value uses every core
// and reports no progress.
type BatchOptions struct {
	// Workers is the worker-pool size: 0 (the default) means GOMAXPROCS, 1
	// forces serial execution. Results are identical at every setting.
	Workers int
	// Progress, when non-nil, is called after each completed run with the
	// number of finished runs and the total. Calls are serialized but
	// arrive on worker goroutines; keep the callback fast.
	Progress func(done, total int)
}

// deploySet lazily builds one deployment per distinct spec seed: the first
// run to need a seed constructs it, later runs (any worker) reuse it.
// Errors are cached too, so every run of a broken deployment reports the
// same construction error. It is safe for concurrent use.
type deploySet struct {
	n           int
	base        []Option
	deployments map[uint64]*deployment
}

type deployment struct {
	once sync.Once
	nw   *Network
	err  error
}

// newDeploySet prepares the per-seed cache for the given specs.
func newDeploySet(n int, base []Option, specs []RunSpec) *deploySet {
	ds := &deploySet{n: n, base: base, deployments: make(map[uint64]*deployment, len(specs))}
	for _, rs := range specs {
		if _, ok := ds.deployments[rs.Seed]; !ok {
			ds.deployments[rs.Seed] = &deployment{}
		}
	}
	return ds
}

// run executes one spec's Aggregate against the shared deployment for its
// seed, with the spec's fault layer swapped in.
func (ds *deploySet) run(ctx context.Context, rs RunSpec) (*AggregateResult, error) {
	d := ds.deployments[rs.Seed]
	if d == nil {
		// A spec outside the prepared set still runs; it just pays its own
		// construction instead of sharing one.
		d = &deployment{}
	}
	d.once.Do(func() {
		opts := append(append(make([]Option, 0, len(ds.base)+1), ds.base...), Seed(rs.Seed))
		d.nw, d.err = New(ds.n, opts...)
	})
	if d.err != nil {
		return nil, d.err
	}
	nw := d.nw
	if rs.faulted() {
		var err error
		if nw, err = nw.withFaults(rs.faultSpec()); err != nil {
			return nil, err
		}
	}
	values := rs.Values
	if values == nil {
		values = make([]int64, nw.N())
		for j := range values {
			values[j] = int64(j + 1)
		}
	}
	op := rs.Op
	if op == nil {
		op = Sum
	}
	return nw.Aggregate(ctx, values, op)
}

// RunBatch executes one Aggregate run per spec across a worker pool and
// returns the results indexed like the specs. The batch is a deterministic
// function of (n, base, specs): every worker count yields the same results
// a serial loop over New + Aggregate would have produced, in the same
// order — parallelism trades wall-clock time only.
//
// Deployments are shared: specs with equal Seed reuse one Network
// construction (topology layout, sizing, pipeline plan), with only the
// per-spec fault layer swapped in, so a fault grid over s seeds costs s
// deployment builds instead of gridpoints×s. The base options must not
// include Seed — each spec carries its own.
//
// The first run error aborts the batch and is returned; if ctx is
// cancelled, RunBatch returns ctx.Err() promptly.
func RunBatch(ctx context.Context, n int, base []Option, specs []RunSpec, bo BatchOptions) ([]*AggregateResult, error) {
	if bo.Workers < 0 {
		return nil, fmt.Errorf("mcnet: batch workers = %d must be ≥ 0", bo.Workers)
	}
	ds := newDeploySet(n, base, specs)
	pool := batch.Pool{Workers: bo.Workers, Progress: bo.Progress}
	return batch.Map(ctx, pool, len(specs), func(ctx context.Context, i int) (*AggregateResult, error) {
		return ds.run(ctx, specs[i])
	})
}

// withFaults returns a Network sharing this one's deployment — positions,
// parameters, link-gain table, sizing and plan — with the fault layer
// replaced by spec. The spec is validated against the deployment exactly as
// New validates fault options. The copy starts with no event observers.
func (nw *Network) withFaults(spec fault.Spec) (*Network, error) {
	if err := spec.Validate(nw.N(), nw.Channels()); err != nil {
		return nil, fmt.Errorf("mcnet: %w", err)
	}
	s := nw.settings
	s.faults, s.faulted = spec, true
	return &Network{settings: s, deploy: nw.deploy, cfg: nw.cfg, plan: nw.plan}, nil
}
