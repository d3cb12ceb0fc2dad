package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: mcnet
BenchmarkAggregateCrowd/n=1k-8         	       1	 12000000 ns/op
BenchmarkAggregateCrowd/n=4k-8         	       1	 48000000 ns/op
BenchmarkResolve4kSerial-8             	       1	  2000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngine64Nodes100Slots-16      	       2	   900000 ns/op
PASS
`

func fp(v float64) *float64 { return &v }

func TestParseBench(t *testing.T) {
	got := parseBench(sampleBench)
	want := map[string]entry{
		"BenchmarkAggregateCrowd/n=1k":   {NsOp: 12000000},
		"BenchmarkAggregateCrowd/n=4k":   {NsOp: 48000000},
		"BenchmarkResolve4kSerial":       {NsOp: 2000000, AllocsOp: fp(0)},
		"BenchmarkEngine64Nodes100Slots": {NsOp: 900000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseBench = %+v, want %+v", got, want)
	}
	// -count > 1 keeps the minimum ns/op and the maximum allocs/op.
	double := sampleBench +
		"BenchmarkResolve4kSerial-8 1 1500000 ns/op 32 B/op 2 allocs/op\n"
	e := parseBench(double)["BenchmarkResolve4kSerial"]
	if e.NsOp != 1500000 {
		t.Errorf("repeated entry kept %v ns/op, want the minimum 1500000", e.NsOp)
	}
	if e.AllocsOp == nil || *e.AllocsOp != 2 {
		t.Errorf("repeated entry kept %v allocs/op, want the maximum 2", e.AllocsOp)
	}
}

func TestParseBenchSlotNode(t *testing.T) {
	bench := "BenchmarkAggregateCrowd/n=16k-8 1 5000000000 ns/op 1445826 node-slots/s 691.6 ns/slot-node 1028 peak-goroutines 239523 allocs/op\n" +
		"BenchmarkAggregateCrowd/n=16k-8 1 6000000000 ns/op 1200000 node-slots/s 800.0 ns/slot-node 1028 peak-goroutines 239523 allocs/op\n"
	e := parseBench(bench)["BenchmarkAggregateCrowd/n=16k"]
	if e.NsSlotNode == nil || *e.NsSlotNode != 691.6 {
		t.Errorf("ns/slot-node = %v, want the minimum 691.6", e.NsSlotNode)
	}
	if e.AllocsOp == nil || *e.AllocsOp != 239523 {
		t.Errorf("allocs/op = %v, want 239523", e.AllocsOp)
	}
}

func TestCompareShowsSlotNode(t *testing.T) {
	bench := "BenchmarkAggregateCrowd/n=16k-8 1 5000000000 ns/op 691.6 ns/slot-node\n"
	baseline := map[string]entry{
		"BenchmarkAggregateCrowd/n=16k": {NsOp: 5200000000, NsSlotNode: fp(700.0)},
	}
	benchPath, basePath := writeFiles(t, bench, baseline)
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "691.6 vs 700.0 ns/slot-node") {
		t.Errorf("output lacks the ns/slot-node comparison:\n%s", out.String())
	}
}

func writeFiles(t *testing.T, bench string, baseline any) (benchPath, basePath string) {
	t.Helper()
	dir := t.TempDir()
	benchPath = filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchPath, []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	basePath = filepath.Join(dir, "baseline.json")
	if baseline != nil {
		data, err := json.Marshal(baseline)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(basePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return benchPath, basePath
}

func TestCompareWithinThreshold(t *testing.T) {
	benchPath, basePath := writeFiles(t, sampleBench, map[string]entry{
		"BenchmarkAggregateCrowd/n=1k":   {NsOp: 10000000}, // 1.2x: fine
		"BenchmarkAggregateCrowd/n=4k":   {NsOp: 40000000}, // 1.2x: fine
		"BenchmarkResolve4kSerial":       {NsOp: 1500000, AllocsOp: fp(0)},
		"BenchmarkEngine64Nodes100Slots": {NsOp: 880000},
	})
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "within 2.0x") {
		t.Errorf("missing summary:\n%s", out.String())
	}
}

func TestCompareRegression(t *testing.T) {
	benchPath, basePath := writeFiles(t, sampleBench, map[string]entry{
		"BenchmarkAggregateCrowd/n=1k": {NsOp: 12000000},
		"BenchmarkResolve4kSerial":     {NsOp: 900000}, // 2.22x: regressed
	})
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "BenchmarkResolve4kSerial") {
		t.Errorf("regression not reported:\n%s", out.String())
	}
	// Benches missing from the baseline are noted, never fatal.
	if !strings.Contains(out.String(), "NEW") {
		t.Errorf("new benchmarks not noted:\n%s", out.String())
	}
}

// TestCompareAllocRegression: a resolver bench that starts allocating
// fails the run even when its ns/op is fine; the same allocs on a
// non-matching bench only get noted.
func TestCompareAllocRegression(t *testing.T) {
	bench := `BenchmarkResolve4kSerial-8 1 2000000 ns/op 128 B/op 3 allocs/op
BenchmarkEngineThing-8 1 900000 ns/op 128 B/op 3 allocs/op
`
	baseline := map[string]entry{
		"BenchmarkResolve4kSerial": {NsOp: 2000000, AllocsOp: fp(0)},
		"BenchmarkEngineThing":     {NsOp: 900000, AllocsOp: fp(0)},
	}
	benchPath, basePath := writeFiles(t, bench, baseline)
	var out, errOut bytes.Buffer
	code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ALLOCS") {
		t.Errorf("alloc regression not reported:\n%s", out.String())
	}
	if strings.Count(out.String(), "ALLOCS") != 1 {
		t.Errorf("non-resolver bench should not fail on allocs:\n%s", out.String())
	}
	// One stray allocation is tolerated (the +1 slack).
	slack := `BenchmarkResolve4kSerial-8 1 2000000 ns/op 16 B/op 1 allocs/op
BenchmarkEngineThing-8 1 900000 ns/op 0 B/op 0 allocs/op
`
	benchPath, basePath = writeFiles(t, slack, baseline)
	if code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut); code != 0 {
		t.Fatalf("one stray alloc should pass; exit %d:\n%s", code, out.String())
	}
	// -alloc-pattern widens the gate.
	benchPath, basePath = writeFiles(t, bench, baseline)
	if code := run([]string{"-baseline", basePath, "-bench", benchPath, "-alloc-pattern", "."}, &out, &errOut); code != 1 {
		t.Fatalf("widened pattern: exit %d, want 1", code)
	}
	out.Reset()
	if code := run([]string{"-baseline", basePath, "-bench", benchPath, "-alloc-pattern", "("}, &out, &errOut); code != 2 {
		t.Fatalf("bad pattern: exit %d, want 2", code)
	}
	// A bench failing both gates counts once and reports both causes.
	both := `BenchmarkResolve4kSerial-8 1 9000000 ns/op 128 B/op 3 allocs/op
`
	benchPath, basePath = writeFiles(t, both, baseline)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut); code != 1 {
		t.Fatalf("double regression: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "REGRESSED+ALLOCS") {
		t.Errorf("combined status missing:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "1 benchmark(s) regressed") {
		t.Errorf("double-counted summary: %q", errOut.String())
	}
}

// TestCompareMissingBench: a baseline key with no matching bench in the run
// fails the compare — a silently-dropped bench is a disarmed tripwire —
// unless -missing-ok declares the subset deliberate.
func TestCompareMissingBench(t *testing.T) {
	benchPath, basePath := writeFiles(t, sampleBench, map[string]entry{
		"BenchmarkAggregateCrowd/n=1k": {NsOp: 12000000},
		"BenchmarkGone":                {NsOp: 1},
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut); code != 1 {
		t.Fatalf("dropped bench must fail: exit %d, want 1:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "MISSING") || !strings.Contains(out.String(), "BenchmarkGone") {
		t.Errorf("missing baseline entry not noted:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "missing from the run") {
		t.Errorf("missing-bench failure not explained:\n%s", errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", basePath, "-bench", benchPath, "-missing-ok"}, &out, &errOut); code != 0 {
		t.Fatalf("-missing-ok: exit %d, want 0:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("-missing-ok should still note the gap:\n%s", out.String())
	}
}

// TestCompareImprovementHint: a threshold×-or-better improvement is called
// out with a re-baseline reminder, and does not fail the run.
func TestCompareImprovementHint(t *testing.T) {
	benchPath, basePath := writeFiles(t, sampleBench, map[string]entry{
		"BenchmarkAggregateCrowd/n=1k":   {NsOp: 30000000}, // run is 12e6: 2.5x faster
		"BenchmarkAggregateCrowd/n=4k":   {NsOp: 50000000},
		"BenchmarkResolve4kSerial":       {NsOp: 2000000, AllocsOp: fp(0)},
		"BenchmarkEngine64Nodes100Slots": {NsOp: 900000},
	})
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "IMPROVED") || !strings.Contains(out.String(), "update the baseline") {
		t.Errorf("improvement hint missing:\n%s", out.String())
	}
	if strings.Count(out.String(), "IMPROVED") != 1 {
		t.Errorf("only n=1k improved 2x:\n%s", out.String())
	}
}

func TestUpdateWritesBaseline(t *testing.T) {
	benchPath, basePath := writeFiles(t, sampleBench, nil)
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", basePath, "-bench", benchPath, "-update"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := parseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 4 || baseline["BenchmarkResolve4kSerial"].NsOp != 2000000 {
		t.Errorf("baseline = %v", baseline)
	}
	if a := baseline["BenchmarkResolve4kSerial"].AllocsOp; a == nil || *a != 0 {
		t.Errorf("allocs/op not persisted: %v", a)
	}
	// Round-trip: comparing against the freshly written baseline passes.
	if code := run([]string{"-baseline", basePath, "-bench", benchPath}, &out, &errOut); code != 0 {
		t.Fatalf("round-trip exit %d: %s", code, errOut.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{}, &out, &errOut); code != 2 {
		t.Errorf("missing -bench: exit %d, want 2", code)
	}
	if code := run([]string{"-bench", "nope.txt", "-threshold", "0.5"}, &out, &errOut); code != 2 {
		t.Errorf("bad threshold: exit %d, want 2", code)
	}
	if code := run([]string{"-bench", "/does/not/exist.txt"}, &out, &errOut); code != 2 {
		t.Errorf("unreadable bench file: exit %d, want 2", code)
	}
}

// FuzzParseBench fuzzes both input parsers. parseBench must yield only
// well-formed entries — Benchmark-prefixed names without whitespace,
// finite non-negative metrics — and must reproduce its result from its own
// canonical rendering; parseBaseline, when it accepts a document, must
// reproduce its result from the document's re-encoding.
func FuzzParseBench(f *testing.F) {
	f.Add(sampleBench)
	f.Add("BenchmarkAggregateCrowd/n=16k-8 1 5000000000 ns/op 1445826 node-slots/s 691.6 ns/slot-node 1028 peak-goroutines 239523 allocs/op\n")
	f.Add("BenchmarkResolve4kSerial-8 1 1500000 ns/op 32 B/op 2 allocs/op\n")
	f.Add(`{"BenchmarkAggregateCrowd/n=1k": 10000000, "BenchmarkResolve4kSerial": 1500000}`)
	f.Add(`{"BenchmarkAggregateCrowd/n=16k": {"ns_op": 5200000000, "allocs_op": 63453, "ns_slot_node": 700}}`)
	f.Fuzz(func(t *testing.T, s string) {
		got := parseBench(s)
		var b strings.Builder
		for name, e := range got {
			if !strings.HasPrefix(name, "Benchmark") || strings.ContainsAny(name, " \t\r\n\v\f") {
				t.Fatalf("malformed name %q", name)
			}
			for _, v := range []*float64{&e.NsOp, e.AllocsOp, e.NsSlotNode} {
				if v != nil && (*v < 0 || math.IsInf(*v, 0) || math.IsNaN(*v)) {
					t.Fatalf("%s: metric %v out of range", name, *v)
				}
			}
			fmt.Fprintf(&b, "%s-8 1 %s ns/op", name, strconv.FormatFloat(e.NsOp, 'f', -1, 64))
			if e.NsSlotNode != nil {
				fmt.Fprintf(&b, " %s ns/slot-node", strconv.FormatFloat(*e.NsSlotNode, 'f', -1, 64))
			}
			if e.AllocsOp != nil {
				fmt.Fprintf(&b, " %s allocs/op", strconv.FormatFloat(*e.AllocsOp, 'f', -1, 64))
			}
			b.WriteByte('\n')
		}
		if again := parseBench(b.String()); !reflect.DeepEqual(again, got) {
			t.Fatalf("re-parsing the rendering changed the result:\n%+v\nvs\n%+v\nrendering:\n%s", got, again, b.String())
		}

		base, err := parseBaseline([]byte(s))
		if err != nil {
			return
		}
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatalf("re-encoding an accepted baseline: %v", err)
		}
		again, err := parseBaseline(raw)
		if err != nil || !reflect.DeepEqual(again, base) {
			t.Fatalf("baseline round trip: %+v, %v; want %+v", again, err, base)
		}
	})
}
