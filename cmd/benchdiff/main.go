// Command benchdiff compares `go test -bench` output against a committed
// baseline and fails when any benchmark regresses beyond a threshold — the
// CI bench tripwire.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x -benchmem . | tee bench.txt
//	benchdiff -baseline BENCH_baseline.json -bench bench.txt            # compare
//	benchdiff -baseline BENCH_baseline.json -bench bench.txt -update    # rewrite baseline
//
// The baseline maps benchmark names (GOMAXPROCS suffix stripped, so runs
// compare across machines with different core counts) to ns/op, — when
// the bench ran with -benchmem — allocs/op, and — for benches reporting it
// (the crowd benches) — the ns/slot-node metric, printed alongside ns/op so
// per-slot-per-node cost reads directly across sizes. Compare mode exits 1 if any
// current ns/op exceeds threshold × baseline, or if a benchmark matching
// -alloc-pattern (default: the resolver benches, which guarantee an
// allocation-free steady state) allocates more than threshold × baseline
// + 1 per op — the +1 keeps one stray runtime allocation from flapping CI
// while still failing a true 0 → 2 regression.
//
// A baseline key with no matching bench in the run output fails the compare
// (exit 1): a silently-dropped bench is a disarmed tripwire, not a pass.
// Removing a bench on purpose means regenerating the baseline with -update
// (or passing -missing-ok for a run that deliberately executes a subset).
// Benches present in the run but absent from the baseline are only noted.
// Improvements of threshold× or better are called out with a reminder to
// re-baseline, so a real win gets captured instead of masking the next
// regression.
//
// Regenerate with -update.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// entry is one benchmark's baseline record. AllocsOp is nil when the bench
// output carried no -benchmem columns; NsSlotNode is nil unless the bench
// reported the ns/slot-node metric (the crowd benches' per-slot-per-node
// cost, comparable across sizes and slot budgets).
type entry struct {
	NsOp       float64  `json:"ns_op"`
	AllocsOp   *float64 `json:"allocs_op,omitempty"`
	NsSlotNode *float64 `json:"ns_slot_node,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		baselinePath = fs.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		benchPath    = fs.String("bench", "", "go test -bench output to compare (required)")
		threshold    = fs.Float64("threshold", 2.0, "fail when current ns/op (or gated allocs/op) exceeds threshold × baseline")
		allocPat     = fs.String("alloc-pattern", "^BenchmarkResolve|^BenchmarkAggregateCrowd", "regexp of benchmarks whose allocs/op regressions fail the run")
		update       = fs.Bool("update", false, "rewrite the baseline from the bench output instead of comparing")
		missingOK    = fs.Bool("missing-ok", false, "tolerate baseline keys with no matching bench in the run output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *benchPath == "" {
		fmt.Fprintln(errOut, "benchdiff: -bench is required")
		return 2
	}
	if *threshold <= 1 {
		fmt.Fprintf(errOut, "benchdiff: -threshold = %v must be > 1\n", *threshold)
		return 2
	}
	allocRe, err := regexp.Compile(*allocPat)
	if err != nil {
		fmt.Fprintf(errOut, "benchdiff: bad -alloc-pattern: %v\n", err)
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(errOut, "benchdiff:", err)
		return 2
	}
	current := parseBench(string(raw))
	if len(current) == 0 {
		fmt.Fprintf(errOut, "benchdiff: no benchmark results in %s\n", *benchPath)
		return 2
	}

	if *update {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			fmt.Fprintln(errOut, "benchdiff:", err)
			return 2
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(errOut, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(out, "benchdiff: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return 0
	}

	baseRaw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(errOut, "benchdiff:", err)
		return 2
	}
	baseline, err := parseBaseline(baseRaw)
	if err != nil {
		fmt.Fprintf(errOut, "benchdiff: bad baseline %s: %v\n", *baselinePath, err)
		return 2
	}

	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed, improvements := 0, 0
	for _, name := range names {
		cur := current[name]
		base, ok := baseline[name]
		if !ok {
			fmt.Fprintf(out, "NEW        %-44s %12.0f ns/op (not in baseline)\n", name, cur.NsOp)
			continue
		}
		nsBad := cur.NsOp > *threshold*base.NsOp
		allocBad := false
		allocNote := ""
		if cur.AllocsOp != nil && base.AllocsOp != nil {
			allocNote = fmt.Sprintf("  %.0f vs %.0f allocs/op", *cur.AllocsOp, *base.AllocsOp)
			allocBad = allocRe.MatchString(name) && *cur.AllocsOp > *threshold**base.AllocsOp+1
		}
		switch {
		case cur.NsSlotNode != nil && base.NsSlotNode != nil:
			allocNote += fmt.Sprintf("  %.1f vs %.1f ns/slot-node", *cur.NsSlotNode, *base.NsSlotNode)
		case cur.NsSlotNode != nil:
			allocNote += fmt.Sprintf("  %.1f ns/slot-node", *cur.NsSlotNode)
		}
		improved := cur.NsOp**threshold <= base.NsOp
		status := "ok"
		switch {
		case nsBad && allocBad:
			status = "REGRESSED+ALLOCS"
		case nsBad:
			status = "REGRESSED"
		case allocBad:
			status = "ALLOCS"
		case improved:
			status = "IMPROVED"
		}
		if nsBad || allocBad {
			regressed++
		}
		fmt.Fprintf(out, "%-10s %-44s %12.0f ns/op vs %12.0f baseline (%.2fx)%s\n",
			status, name, cur.NsOp, base.NsOp, cur.NsOp/base.NsOp, allocNote)
		if improved {
			improvements++
		}
	}
	missing := 0
	missingNames := make([]string, 0, len(baseline))
	for name := range baseline {
		if _, ok := current[name]; !ok {
			missingNames = append(missingNames, name)
		}
	}
	sort.Strings(missingNames)
	for _, name := range missingNames {
		fmt.Fprintf(out, "MISSING    %-44s (in baseline, not in run)\n", name)
		missing++
	}
	if improvements > 0 {
		fmt.Fprintf(out, "benchdiff: %d benchmark(s) improved %.1fx or better — update the baseline (-update) to lock the win in\n",
			improvements, *threshold)
	}
	fail := false
	if regressed > 0 {
		fmt.Fprintf(errOut, "benchdiff: %d benchmark(s) regressed beyond %.1fx\n", regressed, *threshold)
		fail = true
	}
	if missing > 0 && !*missingOK {
		fmt.Fprintf(errOut, "benchdiff: %d baseline benchmark(s) missing from the run — a dropped bench disarms the tripwire; regenerate with -update or pass -missing-ok for a deliberate subset\n", missing)
		fail = true
	}
	if fail {
		return 1
	}
	fmt.Fprintf(out, "benchdiff: %d benchmarks within %.1fx of baseline\n", len(names), *threshold)
	return 0
}

// parseBaseline reads a baseline document: benchmark name → entry.
func parseBaseline(raw []byte) (map[string]entry, error) {
	var out map[string]entry
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkResolve4kSerial-8  1  123456 ns/op  64 B/op  2 allocs/op".
// The -benchmem columns are optional, and custom ReportMetric columns may
// sit between ns/op and them.
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

// slotNodeCol matches the crowd benches' ns/slot-node ReportMetric column.
var slotNodeCol = regexp.MustCompile(`\s([0-9.]+(?:e[+-]?[0-9]+)?) ns/slot-node`)

// parseBench extracts name → {ns/op, allocs/op, ns/slot-node} from bench
// output, stripping the GOMAXPROCS suffix. Repeated entries (e.g. -count >
// 1) keep the minimum ns/op and ns/slot-node — the least-noisy estimate of
// the machine's capability — and the maximum allocs/op, the conservative
// side for a regression gate.
func parseBench(s string) map[string]entry {
	out := map[string]entry{}
	for _, m := range benchLine.FindAllStringSubmatchIndex(s, -1) {
		name := s[m[2]:m[3]]
		ns, err := strconv.ParseFloat(s[m[4]:m[5]], 64)
		if err != nil {
			continue
		}
		var allocs *float64
		if m[6] >= 0 {
			if a, err := strconv.ParseFloat(s[m[6]:m[7]], 64); err == nil {
				allocs = &a
			}
		}
		var slotNode *float64
		line := s[m[0]:m[1]]
		if end := strings.IndexByte(s[m[1]:], '\n'); end >= 0 {
			line = s[m[0] : m[1]+end]
		} else {
			line = s[m[0]:]
		}
		if sm := slotNodeCol.FindStringSubmatch(line); sm != nil {
			if v, err := strconv.ParseFloat(sm[1], 64); err == nil {
				slotNode = &v
			}
		}
		prev, seen := out[name]
		if !seen {
			out[name] = entry{NsOp: ns, AllocsOp: allocs, NsSlotNode: slotNode}
			continue
		}
		if ns < prev.NsOp {
			prev.NsOp = ns
		}
		if allocs != nil && (prev.AllocsOp == nil || *allocs > *prev.AllocsOp) {
			prev.AllocsOp = allocs
		}
		if slotNode != nil && (prev.NsSlotNode == nil || *slotNode < *prev.NsSlotNode) {
			prev.NsSlotNode = slotNode
		}
		out[name] = prev
	}
	return out
}
