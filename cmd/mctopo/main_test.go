package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTopoKinds(t *testing.T) {
	for _, kind := range []string{"uniform", "crowd", "grid", "hotspot", "line", "chain", "corridor", "ring"} {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		run([]string{"-kind", kind, "-n", "32"}, &buf, &errBuf, func(c int) { exitCode = c })
		if exitCode != -1 {
			t.Errorf("%s: exit %d:\n%s%s", kind, exitCode, buf.String(), errBuf.String())
			continue
		}
		if !strings.Contains(buf.String(), "max_degree=") {
			t.Errorf("%s: missing stats:\n%s", kind, buf.String())
		}
		if !strings.Contains(buf.String(), "DeltaHat=") {
			t.Errorf("%s: missing derived sizing:\n%s", kind, buf.String())
		}
	}
}

func TestTopoDump(t *testing.T) {
	var buf, errBuf bytes.Buffer
	run([]string{"-kind", "line", "-n", "4", "-dump"}, &buf, &errBuf, func(int) {})
	if !strings.Contains(buf.String(), "x,y") {
		t.Error("missing CSV header")
	}
	if got := strings.Count(buf.String(), "\n"); got < 7 {
		t.Errorf("expected ≥ 7 lines, got %d", got)
	}
}

func TestTopoUnknownKind(t *testing.T) {
	var buf, errBuf bytes.Buffer
	exitCode := -1
	run([]string{"-kind", "mystery"}, &buf, &errBuf, func(c int) { exitCode = c })
	if exitCode != 2 {
		t.Errorf("exit = %d, want 2", exitCode)
	}
	if !strings.Contains(errBuf.String(), "unknown topology") {
		t.Errorf("unhelpful error: %q", errBuf.String())
	}
}

// TestTopoFlagValidation: malformed flag values exit 2 with a stderr
// message naming the flag, instead of being silently clamped or panicking
// deep in the pipeline.
func TestTopoFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		frag string
	}{
		{"tiny n", []string{"-n", "1"}, "-n"},
		{"negative n", []string{"-n", "-8"}, "-n"},
		{"zero degree", []string{"-kind", "uniform", "-degree", "0"}, "-degree"},
		{"negative degree", []string{"-kind", "uniform", "-degree", "-3"}, "-degree"},
		{"zero length", []string{"-kind", "corridor", "-length", "0"}, "-length"},
		{"NaN degree", []string{"-kind", "uniform", "-degree", "NaN", "-n", "16"}, "-degree"},
		{"infinite degree", []string{"-kind", "uniform", "-degree", "+Inf", "-n", "16"}, "-degree"},
	}
	for _, tc := range cases {
		var buf, errBuf bytes.Buffer
		exitCode := -1
		// A deadline, so a flag value that sends the layout into an endless
		// loop fails the case instead of hanging the suite.
		done := make(chan struct{})
		go func() {
			defer close(done)
			run(tc.args, &buf, &errBuf, func(c int) { exitCode = c })
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10s", tc.name)
		}
		if exitCode != 2 {
			t.Errorf("%s: exit = %d, want 2", tc.name, exitCode)
			continue
		}
		if !strings.Contains(errBuf.String(), tc.frag) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, errBuf.String(), tc.frag)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: error leaked to stdout: %q", tc.name, buf.String())
		}
	}
}
