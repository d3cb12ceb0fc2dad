package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcnet"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-exp", "e8", "-quick", "-seeds", "1"}, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Fatalf("exit code %d, output:\n%s%s", exitCode, buf.String(), errBuf.String())
	}
	if !strings.Contains(buf.String(), "E8") {
		t.Errorf("missing table:\n%s", buf.String())
	}
}

func TestRunCSV(t *testing.T) {
	var buf, errBuf bytes.Buffer
	run([]string{"-exp", "e8", "-quick", "-csv"}, &buf, &errBuf, func(int) {})
	if !strings.Contains(buf.String(), "topology,slots") {
		t.Errorf("missing CSV header:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-exp", "e99"}, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != 2 {
		t.Errorf("exit code %d, want 2", exitCode)
	}
	msg := errBuf.String()
	if !strings.Contains(msg, "unknown experiment") || !strings.Contains(msg, "e99") {
		t.Errorf("unhelpful error: %q", msg)
	}
	if !strings.Contains(msg, "e10") || !strings.Contains(msg, "a1") {
		t.Errorf("error does not list valid ids: %q", msg)
	}
	for _, id := range []string{"c1", "c2", "c3"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list the c-series id %q: %q", id, msg)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("error leaked to stdout: %q", buf.String())
	}
}

// TestRunColorerValidation: an unknown backend in -colorer exits 2 with the
// valid names; a valid subset runs the c-series restricted to it.
func TestRunColorerValidation(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-exp", "c1", "-colorer", "rainbow"}, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != 2 {
		t.Errorf("exit code %d, want 2", exitCode)
	}
	msg := errBuf.String()
	if !strings.Contains(msg, "rainbow") || !strings.Contains(msg, "sec7") {
		t.Errorf("unhelpful error: %q", msg)
	}
}

// TestRunByzJamFlagValidation: -byz fractions outside [0, 1] (NaN
// included, or garbage) and unknown -jam-model names exit 2 before any run,
// without output on stdout.
func TestRunByzJamFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"byz above one", []string{"-exp", "f4", "-byz", "1.5"}, "[0, 1]"},
		{"byz negative", []string{"-exp", "f4", "-byz", "0,-0.2"}, "[0, 1]"},
		{"byz NaN", []string{"-exp", "f4", "-quick", "-seeds", "1", "-byz", "NaN"}, "NaN"},
		{"byz garbage", []string{"-exp", "f4", "-byz", "lots"}, "-byz"},
		{"unknown jam model", []string{"-exp", "f5", "-jam-model", "psychic"}, "psychic"},
	}
	for _, tc := range cases {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		run(tc.args, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != 2 {
			t.Errorf("%s: exit code %d, want 2", tc.name, exitCode)
			continue
		}
		if !strings.Contains(errBuf.String(), tc.frag) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errBuf.String(), tc.frag)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: error leaked to stdout: %q", tc.name, buf.String())
		}
	}
	// The jam-model error must list every valid name, not just reject.
	var buf, errBuf bytes.Buffer
	run([]string{"-exp", "f5", "-jam-model", "psychic"}, &buf, &errBuf, func(int) {})
	for _, name := range mcnet.JamModelNames() {
		if !strings.Contains(errBuf.String(), name) {
			t.Errorf("jam-model error does not list %q: %q", name, errBuf.String())
		}
	}
}

// TestRunF4PinnedAxes: a quick f4 run with -byz/-jam-model overrides
// sweeps only the requested points.
func TestRunF4PinnedAxes(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-exp", "f4", "-quick", "-seeds", "1", "-byz", "0,0.2", "-jam-model", "roundrobin", "-csv"},
		&buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Fatalf("exit code %d: %s", exitCode, errBuf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "roundrobin") {
		t.Errorf("missing roundrobin rows:\n%s", out)
	}
	for _, banned := range []string{"oblivious", "reactive", "adaptive"} {
		if strings.Contains(out, banned) {
			t.Errorf("axis not pinned: found %q rows:\n%s", banned, out)
		}
	}
}

// TestRunCSeriesSubset runs c1 restricted to one backend: the table must
// contain only that backend's rows.
func TestRunCSeriesSubset(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-exp", "c1", "-quick", "-seeds", "1", "-colorer", "dplus1"},
		&buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != -1 {
		t.Fatalf("exit code %d: %s", exitCode, errBuf.String())
	}
	// Scan table rows only: the explanatory notes may name other backends.
	var rows []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "note:") {
			rows = append(rows, line)
		}
	}
	out := strings.Join(rows, "\n")
	if !strings.Contains(out, "dplus1") {
		t.Errorf("missing dplus1 rows:\n%s", out)
	}
	if strings.Contains(out, "hsb") || strings.Contains(out, "sec7") {
		t.Errorf("table contains unrequested backends:\n%s", out)
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-bogus"}, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != 2 {
		t.Errorf("exit code %d, want 2", exitCode)
	}
}

// TestRunSeedsValidation: a non-positive -seeds exits 2 with a stderr
// message instead of being silently clamped by the experiment harness.
func TestRunSeedsValidation(t *testing.T) {
	for _, seeds := range []string{"0", "-3"} {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		run([]string{"-exp", "e8", "-seeds", seeds}, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != 2 {
			t.Errorf("-seeds %s: exit code %d, want 2", seeds, exitCode)
		}
		if !strings.Contains(errBuf.String(), "-seeds") {
			t.Errorf("-seeds %s: unhelpful error: %q", seeds, errBuf.String())
		}
		if buf.Len() != 0 {
			t.Errorf("-seeds %s: error leaked to stdout: %q", seeds, buf.String())
		}
	}
}

// TestRunProfiles: -cpuprofile/-memprofile write non-empty pprof files
// around a run, and an unwritable path exits 2.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-exp", "e8", "-quick", "-seeds", "1", "-cpuprofile", cpu, "-memprofile", mem},
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
	run([]string{"-exp", "e8", "-quick", "-cpuprofile", filepath.Join(dir, "no", "cpu.out")},
		&buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != 2 {
		t.Errorf("unwritable profile path: exit %d, want 2", exitCode)
	}
}
