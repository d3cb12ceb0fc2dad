package mcnet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcnet/internal/golden"
)

// goldenExperimentsPath holds every experiment's table at -quick -seeds 1,
// in ExperimentIDs order, each as `mcagg -exp <id> -quick -seeds 1 -csv`
// prints it.
var goldenExperimentsPath = filepath.Join("testdata", "golden_experiments_quick.csv")

// quickTables renders every experiment in the golden file's layout.
func quickTables(t *testing.T, o ExperimentOptions) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ExperimentIDs() {
		tb, err := RunExperiment(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(tb.CSV())
		b.WriteString("\n")
	}
	return b.String()
}

// TestExperimentsQuickGolden pins all 22 experiment tables at -quick byte
// for byte, at -seeds 1 and at -seeds 3. One seed makes every median and
// sum trivial; three seeds also pin each sweep's fold: the per-point
// medians, sums and per-seed averages, and the (point, seed) index order.
// Regenerate with -update-golden only for an intentional, explained
// behaviour change.
func TestExperimentsQuickGolden(t *testing.T) {
	for _, tc := range []struct {
		seeds int
		path  string
	}{
		{1, goldenExperimentsPath},
		{3, filepath.Join("testdata", "golden_experiments_quick_seeds3.csv")},
	} {
		t.Run(fmt.Sprintf("seeds=%d", tc.seeds), func(t *testing.T) {
			got := quickTables(t, ExperimentOptions{Seeds: tc.seeds, Quick: true})
			if *golden.Update {
				if err := os.WriteFile(tc.path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatalf("reading golden tables (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("experiment tables differ from %s:\n%s", tc.path, got)
			}
		})
	}
}

// TestRunExperiment: the facade runs a suite experiment and renders its
// table.
func TestRunExperiment(t *testing.T) {
	tb, err := RunExperiment("e8", ExperimentOptions{Seeds: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Render(), "E8") {
		t.Errorf("missing table title:\n%s", tb.Render())
	}
	if !strings.Contains(tb.CSV(), "topology,slots") {
		t.Errorf("missing CSV header:\n%s", tb.CSV())
	}
}

// TestRunExperimentUnknown: unknown ids produce a descriptive sentinel
// error, not a panic or a silent nil.
func TestRunExperimentUnknown(t *testing.T) {
	_, err := RunExperiment("e99", ExperimentOptions{})
	if err == nil {
		t.Fatal("no error for unknown experiment")
	}
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("err = %v, want ErrUnknownExperiment", err)
	}
	if !strings.Contains(err.Error(), "e10") {
		t.Errorf("error does not list valid ids: %v", err)
	}
}

// TestExperimentIDs: the advertised id list is stable and complete.
func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("len(ExperimentIDs) = %d, want 22", len(ids))
	}
	for _, want := range []string{"e1", "e10", "a3", "f1", "f3", "f4", "f5", "f6", "c1", "c3"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing id %q", want)
		}
	}
}

// TestExperimentOptionValidation: a Byzantine fraction outside [0, 1] and
// an unknown jam model are rejected before any sweep runs, with the valid
// names listed — the error the CLIs relay on exit 2.
func TestExperimentOptionValidation(t *testing.T) {
	if _, err := RunExperiment("f4", ExperimentOptions{Quick: true, Byz: []float64{1.5}}); err == nil || !strings.Contains(err.Error(), "[0, 1]") {
		t.Errorf("byz fraction 1.5 accepted or unhelpful: %v", err)
	}
	_, err := RunExperiment("f4", ExperimentOptions{Quick: true, JamModels: []string{"psychic"}})
	if err == nil {
		t.Fatal("unknown jam model accepted")
	}
	for _, name := range JamModelNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("jam-model error does not list %q: %v", name, err)
		}
	}
}

// TestF4ExecIdentity: the Byzantine degradation sweep, run serially,
// reproduces byte for byte the f4 table the goroutine engine froze in the
// golden file (which the default worker pool also reproduces).
func TestF4ExecIdentity(t *testing.T) {
	tb, err := RunExperiment("f4", ExperimentOptions{Seeds: 1, Quick: true, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenExperimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	if out := tb.CSV(); !strings.Contains(string(want), out+"\n") {
		t.Fatalf("f4 table is not the frozen one in %s:\n%s", goldenExperimentsPath, out)
	}
}

// TestRunExperimentContextCanceled: a dead context stops the sweep with
// its cause, the contract behind Ctrl-C in the CLIs.
func TestRunExperimentContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunExperimentContext(ctx, "e1", ExperimentOptions{Seeds: 1, Quick: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunExperimentContext(canceled) err = %v, want context.Canceled", err)
	}
	if _, err := AllExperimentsContext(ctx, ExperimentOptions{Seeds: 1, Quick: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("AllExperimentsContext(canceled) err = %v, want context.Canceled", err)
	}
}
