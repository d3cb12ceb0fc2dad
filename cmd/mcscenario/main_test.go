package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcnet/internal/serve"
)

func TestScenarioSweep(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	args := []string{"-n", "32", "-loss", "0,0.1", "-jam", "0,1", "-seeds", "1"}
	run(args, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Fatalf("exit code %d, output:\n%s%s", exitCode, buf.String(), errBuf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "surv_agree") || !strings.Contains(out, "mcscenario") {
		t.Errorf("missing table:\n%s", out)
	}
}

// TestScenarioCSVStable is the acceptance check: a fixed seed emits an
// identical CSV across two consecutive runs.
func TestScenarioCSVStable(t *testing.T) {
	sweep := func() string {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		args := []string{"-n", "32", "-loss", "0,0.1", "-churn", "0,0.2", "-seed", "7", "-seeds", "2", "-csv"}
		run(args, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != -1 {
			t.Fatalf("exit code %d: %s", exitCode, errBuf.String())
		}
		return buf.String()
	}
	first := sweep()
	if second := sweep(); first != second {
		t.Errorf("CSV not stable across runs:\n%s\n---\n%s", first, second)
	}
	if !strings.Contains(first, "loss,jam,churn") {
		t.Errorf("missing CSV header:\n%s", first)
	}
	// 2 loss values × 2 churn rates = 4 grid rows after title and header.
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if rows := len(lines) - 2; rows != 4 {
		t.Errorf("%d grid rows, want 4:\n%s", rows, first)
	}
}

func TestScenarioFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"tiny n", []string{"-n", "1"}, "-n"},
		{"negative n", []string{"-n", "-5"}, "-n"},
		{"negative channels", []string{"-channels", "-1"}, `"channels"`},
		{"too many channels", []string{"-channels", "1025"}, `"channels"`},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds"},
		{"bad topology", []string{"-topo", "moebius"}, "topology"},
		{"bad jam model", []string{"-jam-model", "psychic"}, "jam model"},
		{"bad byz strategy", []string{"-byz-strategy", "gossip"}, "strategy"},
		{"byz out of range", []string{"-byz", "0,1.5"}, "byz[1]"},
		{"byz negative", []string{"-byz", "-0.1"}, "byz[0]"},
		{"byz garbage", []string{"-byz", "lots"}, "-byz"},
		{"loss out of range", []string{"-loss", "0,1.5"}, "loss[1]"},
		{"loss garbage", []string{"-loss", "zero"}, "-loss"},
		{"loss empty", []string{"-loss", ","}, "-loss"},
		{"negative jam", []string{"-jam", "-1"}, "jam[0]"},
		{"jam all channels", []string{"-channels", "2", "-jam", "2"}, "jam[0]"},
		{"churn out of range", []string{"-churn", "2"}, "churn[0]"},
		{"bogus flag", []string{"-bogus"}, ""},
	}
	for _, tc := range cases {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		run(tc.args, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != 2 {
			t.Errorf("%s: exit code %d, want 2", tc.name, exitCode)
			continue
		}
		if tc.frag != "" && !strings.Contains(errBuf.String(), tc.frag) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errBuf.String(), tc.frag)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: error leaked to stdout: %q", tc.name, buf.String())
		}
	}
	// The jam-model rejection must list every valid adversary name.
	var errBuf bytes.Buffer
	run([]string{"-jam-model", "psychic"}, &bytes.Buffer{}, &errBuf, func(int) {})
	for _, name := range []string{"oblivious", "roundrobin", "reactive", "adaptive"} {
		if !strings.Contains(errBuf.String(), name) {
			t.Errorf("jam-model error does not list %q: %q", name, errBuf.String())
		}
	}
}

// TestScenarioZeroChannels: -channels 0 is the spec's "use the default"
// value, so it runs the same sweep as -channels 4.
func TestScenarioZeroChannels(t *testing.T) {
	sweep := func(channels string) string {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		args := []string{"-n", "16", "-channels", channels, "-jam", "0,3", "-seed", "3", "-csv"}
		run(args, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != -1 {
			t.Fatalf("-channels %s: exit code %d: %s", channels, exitCode, errBuf.String())
		}
		return buf.String()
	}
	if zero, four := sweep("0"), sweep("4"); zero != four {
		t.Errorf("-channels 0 differs from -channels 4:\n%s\n---\n%s", zero, four)
	}
}

// TestRunProfiles: -cpuprofile/-memprofile write non-empty pprof files
// around a sweep, and an unwritable path exits 2.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-n", "16", "-seeds", "1", "-quiet", "-cpuprofile", cpu, "-memprofile", mem},
		&buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Fatalf("exit code %d: %s", exitCode, errBuf.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}
	exitCode = -1
	run([]string{"-n", "16", "-quiet", "-memprofile", filepath.Join(dir, "no", "mem.out")},
		&buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Errorf("late mem-profile failure should not exit mid-run; got %d", exitCode)
	}
	if !strings.Contains(errBuf.String(), "prof") {
		t.Errorf("missing stderr diagnostic for failed heap profile: %q", errBuf.String())
	}
}

// TestScenarioSpecFile: running a spec document locally emits the same
// CSV as the equivalent grid flags.
func TestScenarioSpecFile(t *testing.T) {
	doc := `{"name": "specrun", "n": 32, "loss": [0, 0.1], "jam": [0, 1], "seeds": 2, "base_seed": 7}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	sweep := func(args ...string) string {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		run(args, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != -1 {
			t.Fatalf("run(%v): exit code %d: %s", args, exitCode, errBuf.String())
		}
		return buf.String()
	}
	fromSpec := sweep("-spec", path, "-csv", "-quiet")
	fromFlags := sweep("-name", "specrun", "-n", "32", "-loss", "0,0.1", "-jam", "0,1",
		"-seeds", "2", "-seed", "7", "-csv", "-quiet")
	if fromSpec != fromFlags {
		t.Errorf("spec and flag sweeps differ:\n%s---\n%s", fromSpec, fromFlags)
	}

	// Broken documents exit 2 with the offending field named.
	var buf, errBuf bytes.Buffer
	exitCode := -1
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"n": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run([]string{"-spec", bad}, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != 2 || !strings.Contains(errBuf.String(), `"n"`) {
		t.Errorf("bad spec: exit %d, stderr %q", exitCode, errBuf.String())
	}
}

// TestScenarioSubmit: -submit posts the sweep to a daemon and prints the
// accepted job; a refused submission exits 1.
func TestScenarioSubmit(t *testing.T) {
	s, err := serve.NewServer(serve.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Drain(ctx)
	}()

	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-n", "16", "-loss", "0,0.1", "-submit", ts.URL},
		&buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Fatalf("submit: exit code %d: %s", exitCode, errBuf.String())
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatalf("submit output %q: %v", buf.String(), err)
	}
	if st.ID == "" || st.Total != 2 {
		t.Errorf("submit response %+v, want a 2-item job", st)
	}

	exitCode = -1
	errBuf.Reset()
	run([]string{"-n", "16", "-channels", "2", "-jam", "0,1", "-submit", ts.URL + "/nowhere"},
		&bytes.Buffer{}, &errBuf, func(c int) { exitCode = c })
	if exitCode != 1 {
		t.Errorf("submit to a bad endpoint: exit code %d, want 1 (%s)", exitCode, errBuf.String())
	}
}
