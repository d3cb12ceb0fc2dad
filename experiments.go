package mcnet

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"mcnet/internal/coloring"
	"mcnet/internal/expt"
	"mcnet/internal/fault"
	"mcnet/internal/stats"
)

// ErrUnknownExperiment is wrapped by RunExperiment when the id does not
// name an experiment; test with errors.Is.
var ErrUnknownExperiment = errors.New("unknown experiment")

// ExperimentOptions sizes an experiment run.
type ExperimentOptions struct {
	// Seeds is the number of independent repetitions per sweep point
	// (medians reported); values below 1 mean 1.
	Seeds int
	// Quick shrinks the sweeps for tests and smoke runs.
	Quick bool
	// Parallel sizes the worker pool each experiment's (sweep point × seed)
	// runs execute across: 0 (the default) uses GOMAXPROCS, 1 forces the
	// serial sweep. Tables are byte-identical at every setting.
	Parallel int
	// Colorers restricts the c-series coloring head-to-heads (c1..c3) to a
	// subset of backend names (see ColorerNames); empty means every
	// backend. Other experiments ignore it.
	Colorers []string
	// Byz overrides the Byzantine-fraction axis of the f4 and f6 sweeps;
	// empty means each experiment's default axis. Every value must pass the
	// Byzantine option's range rule. Other experiments ignore it.
	Byz []float64
	// JamModels restricts the jamming adversaries of the f4 and f5 sweeps
	// to a subset of JamModelNames(); empty means each experiment's default
	// set. Other experiments ignore it.
	JamModels []string
}

// Table is a rendered experiment result.
type Table struct {
	t *stats.Table
}

// Render returns the aligned human-readable table.
func (t *Table) Render() string { return t.t.Render() }

// CSV returns the machine-readable form.
func (t *Table) CSV() string { return t.t.CSV() }

// ExperimentIDs lists the runnable experiment identifiers: the evaluation
// suite e1..e10 (one per claimed bound of the paper), the ablations a1..a3,
// the fault sweeps f1..f6 (message loss, jamming, churn, Byzantine nodes,
// jam-adversary head-to-head, Byzantine × churn), and the coloring backend
// head-to-heads c1..c3 (topology suite, scaling, churn). Use AllExperiments
// for the whole e-suite in one call.
func ExperimentIDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "a1", "a2", "a3", "f1", "f2", "f3", "f4", "f5", "f6", "c1", "c2", "c3"}
}

// RunExperiment executes one experiment by id (see ExperimentIDs) and
// returns its table. Unknown ids yield a descriptive error wrapping
// ErrUnknownExperiment.
func RunExperiment(id string, o ExperimentOptions) (*Table, error) {
	return RunExperimentContext(context.Background(), id, o)
}

// RunExperimentContext is RunExperiment with cancellation: when ctx is
// done, queued runs never start, in-flight runs abort mid-schedule, and the
// call returns ctx's error.
func RunExperimentContext(ctx context.Context, id string, o ExperimentOptions) (*Table, error) {
	runner, ok := expt.ByName(strings.ToLower(id))
	if !ok {
		return nil, fmt.Errorf("mcnet: %w %q (valid: %s; use AllExperiments for the suite)",
			ErrUnknownExperiment, id, strings.Join(ExperimentIDs(), ", "))
	}
	eo, err := o.expt(ctx)
	if err != nil {
		return nil, err
	}
	tb, err := runner(eo)
	if err != nil {
		return nil, err
	}
	return &Table{t: tb}, nil
}

// Validate checks the backend names, Byzantine fractions and jam-model
// names, naming the offending option; RunExperiment and AllExperiments
// apply the same check before any run starts.
func (o ExperimentOptions) Validate() error {
	_, err := o.expt(context.Background())
	return err
}

// expt validates the options and converts them for the experiment suite.
func (o ExperimentOptions) expt(ctx context.Context) (expt.Options, error) {
	for i, name := range o.Colorers {
		if _, err := coloring.ByName(name); err != nil {
			return expt.Options{}, fmt.Errorf("mcnet: ExperimentOptions.Colorers[%d]: %w", i, err)
		}
	}
	if i, err := firstFault(o.Byz, 0, 1, func(fs *fault.Spec, v float64) { fs.Byz.Fraction = v }); err != nil {
		return expt.Options{}, fmt.Errorf("mcnet: ExperimentOptions.Byz[%d]: %w", i, err)
	}
	var jams []fault.JamModel
	for i, name := range o.JamModels {
		jm, err := fault.ParseJamModel(name)
		if err != nil {
			return expt.Options{}, fmt.Errorf("mcnet: ExperimentOptions.JamModels[%d]: %w", i, err)
		}
		jams = append(jams, jm)
	}
	return expt.Options{Seeds: o.Seeds, Quick: o.Quick, Parallel: o.Parallel, Ctx: ctx, Colorers: o.Colorers, Byz: o.Byz, JamModels: jams}, nil
}

// AllExperiments runs the full e1..e10 suite in order.
func AllExperiments(o ExperimentOptions) ([]*Table, error) {
	return AllExperimentsContext(context.Background(), o)
}

// AllExperimentsContext is AllExperiments with cancellation; the tables of
// experiments that completed before ctx fired are returned alongside the
// error.
func AllExperimentsContext(ctx context.Context, o ExperimentOptions) ([]*Table, error) {
	eo, err := o.expt(ctx)
	if err != nil {
		return nil, err
	}
	ts, err := expt.All(eo)
	out := make([]*Table, len(ts))
	for i, tb := range ts {
		out[i] = &Table{t: tb}
	}
	return out, err
}
