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
	// empty means each experiment's default axis. Every value must be in
	// [0, 1]. Other experiments ignore it.
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

// RunExperimentContext is RunExperiment with cancellation: the sweep stops
// between runs when ctx is done and returns ctx's error.
func RunExperimentContext(ctx context.Context, id string, o ExperimentOptions) (*Table, error) {
	runner, ok := expt.ByName(strings.ToLower(id))
	if !ok {
		return nil, fmt.Errorf("mcnet: %w %q (valid: %s; use AllExperiments for the suite)",
			ErrUnknownExperiment, id, strings.Join(ExperimentIDs(), ", "))
	}
	for _, name := range o.Colorers {
		if _, err := coloring.ByName(name); err != nil {
			return nil, fmt.Errorf("mcnet: %w", err)
		}
	}
	for _, frac := range o.Byz {
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("mcnet: byzantine fraction %v must be in [0, 1]", frac)
		}
	}
	var jams []fault.JamModel
	for _, name := range o.JamModels {
		jm, err := jamModelByName(name)
		if err != nil {
			return nil, fmt.Errorf("mcnet: %w", err)
		}
		jams = append(jams, fault.JamModel(jm))
	}
	tb, err := runner(expt.Options{Seeds: o.Seeds, Quick: o.Quick, Parallel: o.Parallel, Ctx: ctx, Colorers: o.Colorers, Byz: o.Byz, JamModels: jams})
	if err != nil {
		return nil, err
	}
	return &Table{t: tb}, nil
}

// AllExperiments runs the full e1..e10 suite in order.
func AllExperiments(o ExperimentOptions) ([]*Table, error) {
	return AllExperimentsContext(context.Background(), o)
}

// AllExperimentsContext is AllExperiments with cancellation; the tables of
// experiments that completed before ctx fired are returned alongside the
// error.
func AllExperimentsContext(ctx context.Context, o ExperimentOptions) ([]*Table, error) {
	ts, err := expt.All(expt.Options{Seeds: o.Seeds, Quick: o.Quick, Parallel: o.Parallel, Ctx: ctx})
	out := make([]*Table, len(ts))
	for i, tb := range ts {
		out[i] = &Table{t: tb}
	}
	return out, err
}
