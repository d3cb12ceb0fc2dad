package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	if !regexp.MustCompile(`^[A-Za-z0-9_.-]+$`).MatchString("core.followers.active_slots") {
		t.Fatal("metric-name pattern rejects a valid name")
	}
	seen := map[string]bool{}
	for _, tab := range [][]metricDef{endToEnd, perLayer, infoDefs} {
		for _, d := range tab {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better = %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is invalid or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if got := len(perLayer); got != 59 {
		t.Errorf("%d per-layer metrics, want 59", got)
	}
	maxBound := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
	}
	if unitOf("setup_s") != "s" || endToEnd[1].Name != "setup_s" || endToEnd[1].Bound != maxBound {
		t.Error("setup_s must be an end-to-end metric in s with the largest bound")
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json and
// the program's own tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", spec.PerLayer, perLayer)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	cases := []struct {
		args []string
		want []string // substrings of stderr
	}{
		{[]string{"-workload", "nope"}, workloadNames()},
		{[]string{}, workloadNames()},
		{[]string{"-workload", "crowd-agg", "-reps", "0"}, []string{"-reps"}},
		{[]string{"-workload", "crowd-agg", "-reps", "-3"}, []string{"-reps"}},
		{[]string{"-workload", "crowd-agg", "-seconds", "0"}, []string{"-seconds"}},
		{[]string{"-workload", "crowd-agg", "-trace", "2"}, []string{"0, 1"}},
		{[]string{"-no-such-flag"}, []string{"no-such-flag"}},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, nil, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) exit %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", c.args, stdout.String())
		}
		for _, s := range c.want {
			if !strings.Contains(stderr.String(), s) {
				t.Errorf("run(%q) stderr %q does not name %q", c.args, stderr.String(), s)
			}
		}
	}
}

func TestListNamesEverything(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d: %s", code, stderr.String())
	}
	for _, name := range workloadNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list omits workload %s", name)
		}
	}
	for _, tab := range [][]metricDef{endToEnd, perLayer, infoDefs} {
		for _, d := range tab {
			if !strings.Contains(stdout.String(), d.Name) {
				t.Errorf("-list omits metric %s", d.Name)
			}
		}
	}
}

func TestSpreadReadsResultLines(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"metric run_s 1 s",
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"run_s":{"value":1,"unit":"s"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"run_s":{"value":3,"unit":"s"}}}`,
		"not json",
	}, "\n"))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spread"}, in, &stdout, &stderr); code != 0 {
		t.Fatalf("-spread exit %d: %s", code, stderr.String())
	}
	// Two samples 1 and 3: median 2, quartiles 0.5 and 3.5, spread 1.5.
	fields := strings.Fields(strings.Split(strings.TrimSpace(stdout.String()), "\n")[1])
	if want := []string{"run_s", "2", "2", "0.5", "3.5", "1.5000"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("-spread row = %q, want %q", fields, want)
	}
}

func TestResultLineKeys(t *testing.T) {
	var out bytes.Buffer
	res := &result{attempted: 3, failed: 1, metrics: map[string]float64{"run_s": 1.25}}
	if code := writeResult(&out, res); code != 0 {
		t.Fatalf("writeResult exit %d", code)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys = %v", keys)
	}
	if string(got["correct"]) != "false" {
		t.Errorf("correct = %s with a failed run", got["correct"])
	}
	if !strings.Contains(string(got["metrics"]), `"run_s":{"value":1.25,"unit":"s"}`) {
		t.Errorf("metrics = %s", got["metrics"])
	}
}

// miniature shrinks a workload to smoke-test size: at most 64 nodes and one
// deployment, with every other setting kept.
func miniature(w workload) workload {
	w.n = min(w.n, 64)
	w.seeds = w.seeds[:1]
	return w
}

// TestSmokeEveryWorkload runs every workload in miniature, untraced and
// traced, through the same measurement code the benchmark uses.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	cfg := config{seed: 7, minReps: 1, setupBursts: 2}
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.name, func(t *testing.T) {
			start := time.Now()
			var out bytes.Buffer
			res, err := measureEndToEnd(ctx, w, cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "end-to-end", res, endToEnd, out.String())
			for _, d := range endToEnd {
				if res.metrics[d.Name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, res.metrics[d.Name])
				}
			}

			out.Reset()
			res, err = measureTraced(ctx, w, cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "traced", res, perLayer, out.String())
			for _, name := range []string{"sim.step_s", "phy.resolve_s", "fault.s", "batch.serial_s", "core.inform.s"} {
				if res.metrics[name] <= 0 {
					t.Errorf("traced %s = %v, want > 0", name, res.metrics[name])
				}
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Logf("miniature %s took %v", w.name, d)
			}
		})
	}
}

func checkResult(t *testing.T, mode string, res *result, defs []metricDef, printed string) {
	t.Helper()
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: %d of %d runs failed: %v", mode, res.failed, res.attempted, res.problems)
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", mode, len(res.metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s = %v (present %v)", mode, d.Name, v, ok)
		}
		if !strings.Contains(printed, "metric "+d.Name+" ") {
			t.Errorf("%s: metric %s not printed", mode, d.Name)
		}
	}
}
