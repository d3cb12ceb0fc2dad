// Command bench is the repository's end-to-end benchmark. For one workload
// it builds the deployment through the mcnet facade and repeats a complete
// operation — an Aggregate or Color run through all nine pipeline stages
// to a result, or a RunBatch of such runs — in a closed loop from a single
// process: one warm-up repetition, then timed repetitions until the
// measurement window has passed and at least -reps have run. It checks
// every repetition's output and prints each metric by name with its unit.
//
// With -trace 1 it reports the per-layer split instead: the same
// operation rebuilt from the layer packages, its wall time divided into
// node stepping (sim), fault filtering (fault) and SINR resolution (phy)
// and attributed to the pipeline's stage windows (core).
//
// Run it through the wrapper, which builds from source first:
//
//	bash bench/run.sh --workload crowd-agg --seed 1 --seconds 5 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. -list prints the workload and
// metric names; -spread reads such result lines from standard input and
// prints each metric's median and interquartile spread.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setup_s is measured in setupBursts bursts of setupBurst set-ups, spaced
// setupGap apart, and is the lowest burst median. A set-up takes tens of
// microseconds of single-threaded work; on a shared host a neighbour's load
// slows it by up to 1.5× for seconds to minutes at a time, far more than it
// slows the runs, and such load only ever adds time. Measured on a 2-vCPU
// VM (field-agg deployment, 8 processes), the median over all samples of a
// run ranged 16.3–21.3 µs, the lowest burst median 14.6–15.3 µs.
const (
	setupBursts = 30
	setupBurst  = 34
	setupGap    = 100 * time.Millisecond
)

// overheadFloor is the least share of the traced wall time the sim, phy and
// fault layers must account for; the rest is the probe's own counting.
const overheadFloor = 0.95

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// config is one invocation's measurement settings.
type config struct {
	seed        uint64
	window      time.Duration
	minReps     int
	setupBursts int
	setupGap    time.Duration
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the node values are drawn from")
	seconds := fs.Int("seconds", 5, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the traced per-layer split")
	reps := fs.Int("reps", 2, "least number of timed repetitions")
	list := fs.Bool("list", false, "print the workload and metric names and exit")
	spreadMode := fs.Bool("spread", false, "read result lines on standard input and print each metric's median and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *spreadMode:
		if err := printSpread(stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *reps <= 0 {
		fmt.Fprintf(stderr, "bench: -reps = %d must be a positive count (valid: 1, 2, ...)\n", *reps)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds = %d must be positive (valid: 1, 2, ...)\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace = %d (valid: 0, 1)\n", *trace)
		return 2
	}
	cfg := config{
		seed: *seed, window: time.Duration(*seconds) * time.Second, minReps: *reps,
		setupBursts: setupBursts, setupGap: setupGap,
	}
	measure := measureEndToEnd
	if *trace == 1 {
		measure = measureTraced
	}
	res, err := measure(context.Background(), w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "bench: check failed:", p)
	}
	fmt.Fprintln(stdout, machineLine(w.name, *trace, cfg, res.reps))
	return writeResult(stdout, res)
}

// result is one invocation's measurement, ready to print.
type result struct {
	attempted, failed int
	reps              int // timed repetitions behind the medians
	problems          []string
	metrics           map[string]float64
}

// tally adds one operation's check results to the result.
func (r *result) tally(o outcome) {
	r.attempted += o.runs
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}

// mismatch marks an operation whose transcript differs from the reference.
func (r *result) mismatch(o outcome, what string) {
	r.failed += o.runs - o.failed
	r.problems = append(r.problems, fmt.Sprintf("%s: digest %016x differs from the reference", what, o.digest))
}

// measureEndToEnd times the untraced operation and reports the end-to-end
// metrics.
func measureEndToEnd(ctx context.Context, w workload, cfg config, out io.Writer) (*result, error) {
	in, err := newInstance(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &result{}
	runtime.GC()
	ref, err := in.run(ctx, w.workers)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.tally(ref)
	setup, err := timeSetup(w, cfg)
	if err != nil {
		return nil, err
	}

	var times, allocs []float64
	var ms runtime.MemStats
	start := time.Now()
	for len(times) < cfg.minReps || time.Since(start) < cfg.window {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t := time.Now()
		o, err := in.run(ctx, w.workers)
		d := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", len(times)+1, err)
		}
		runtime.ReadMemStats(&ms)
		res.tally(o)
		if o.digest != ref.digest {
			res.mismatch(o, fmt.Sprintf("repetition %d", len(times)+1))
		}
		times = append(times, d.Seconds())
		allocs = append(allocs, float64(ms.TotalAlloc-before)/1e6)
	}
	res.reps = len(times)
	runS := median(times)
	res.metrics = map[string]float64{
		"run_s":            runS,
		"setup_s":          setup,
		"node_slots_per_s": ratio(float64(ref.nodeSlots), runS),
		"alloc_mb":         median(allocs),
		"slots":            float64(ref.slots),
		"correct_frac":     ratio(float64(ref.correct), float64(ref.judged)),
	}
	for _, d := range endToEnd {
		note := fmt.Sprintf("(median of %d)", len(times))
		switch d.Name {
		case "setup_s":
			note = fmt.Sprintf("(lowest median of %d bursts of %d)", cfg.setupBursts, setupBurst)
		case "slots", "correct_frac", "node_slots_per_s":
			note = ""
		}
		printMetric(out, d.Name, res.metrics[d.Name], note)
	}
	printInfo(out, w, ref, res)
	return res, nil
}

// printInfo prints the ungated outcome measures that apply to w.
func printInfo(out io.Writer, w workload, o outcome, res *result) {
	switch w.kind {
	case opAggregate:
		printMetric(out, "exact_frac", ratio(float64(o.exact), float64(o.nodes)), "")
	case opBatch:
		printMetric(out, "exact_frac", ratio(float64(o.exact), float64(o.nodes)), "")
		printMetric(out, "agree_frac", ratio(float64(o.agree), float64(o.alive)), "")
	case opColor:
		printMetric(out, "conflicts", float64(o.conflicts), "")
	}
	printMetric(out, "failed_frac", ratio(float64(res.failed), float64(res.attempted)), "")
}

// measureTraced runs the operation untraced as the reference, then traced,
// and reports the per-layer metrics. A batch first reruns its runs one at a
// time through the facade (batch.serial_s), which also warms up; a single
// run warms up with one repetition and is its own serial rerun.
func measureTraced(ctx context.Context, w workload, cfg config, out io.Writer) (*result, error) {
	in, err := newInstance(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &result{reps: 1}
	timed := func(workers int) (outcome, float64, error) {
		runtime.GC()
		t := time.Now()
		o, err := in.run(ctx, workers)
		d := time.Since(t).Seconds()
		if err == nil {
			res.tally(o)
		}
		return o, d, err
	}
	first, serialS, err := timed(1)
	if err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	ref, runS, err := timed(w.workers)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if ref.digest != first.digest {
		res.mismatch(ref, "reference run")
	}
	if w.kind != opBatch {
		serialS = runS
	}

	runtime.GC()
	got, led, err := in.runTraced(ctx)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if got.digest != ref.digest || got.slots != ref.slots || got.runs != ref.runs {
		got.fail("traced run (%d runs, %d slots) does not reproduce the facade transcript (%d runs, %d slots)",
			got.runs, got.slots, ref.runs, ref.slots)
	}
	if c := led.covered(); c < overheadFloor {
		got.fail("sim + phy + fault cover %.3f of the traced wall time, want ≥ %.2f", c, overheadFloor)
	}
	if len(got.problems) > 0 {
		got.failed = got.runs
	}
	res.tally(got)
	res.metrics = led.metrics(serialS, runS, w.workers)
	for _, d := range perLayer {
		printMetric(out, d.Name, res.metrics[d.Name], "")
	}
	return res, nil
}

// timeSetup returns setup_s in seconds: the lowest median over
// cfg.setupBursts bursts of setupBurst builds of every deployment of w
// through mcnet.New. Each burst starts after a GC and a few untimed builds.
func timeSetup(w workload, cfg config) (float64, error) {
	const untimed = 4
	best := math.Inf(1)
	samples := make([]float64, setupBurst)
	for b := range cfg.setupBursts {
		if b > 0 {
			time.Sleep(cfg.setupGap)
		}
		runtime.GC()
		for i := -untimed; i < setupBurst; i++ {
			t := time.Now()
			for _, s := range w.seeds {
				if _, err := w.deploy(s); err != nil {
					return 0, fmt.Errorf("deploy %s seed %d: %w", w.name, s, err)
				}
			}
			if i >= 0 {
				samples[i] = time.Since(t).Seconds()
			}
		}
		best = math.Min(best, median(samples))
	}
	return best, nil
}

// printMetric prints one human-readable metric line, with a note such as
// the sample count behind a median.
func printMetric(out io.Writer, name string, v float64, note string) {
	fmt.Fprintln(out, strings.TrimSpace(fmt.Sprintf("metric %-26s %-14.6g %s %s", name, v, unitOf(name), note)))
}

// machineLine records where and how the result was measured.
func machineLine(name string, trace int, cfg config, reps int) string {
	return fmt.Sprintf("machine goos=%s goarch=%s gomaxprocs=%d numcpu=%d cpu=%q go=%s revision=%s workload=%s trace=%d seed=%d reps=%d seconds=%g",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(),
		runtime.Version(), revision(), name, trace, cfg.seed, reps, cfg.window.Seconds())
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the VCS revision the binary was built from, marked +dirty
// for a modified tree, or "unknown" when built outside a repository.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// jsonValue is one metric of the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line: exactly these four keys.
type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func writeResult(out io.Writer, res *result) int {
	jr := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonValue, len(res.metrics)),
	}
	for name, v := range res.metrics {
		jr.Metrics[name] = jsonValue{Value: v, Unit: unitOf(name)}
	}
	b, err := json.Marshal(jr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	return 0
}

func printList(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-12s %s\n", w.name, w.why)
	}
	fmt.Fprintln(out, "end-to-end metrics (-trace 0):")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-26s %-6s %-6s bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(out, "per-layer metrics (-trace 1):")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-26s %-6s %s\n", d.Name, d.Unit, d.Better)
	}
	fmt.Fprintln(out, "printed, not gated:")
	for _, d := range infoDefs {
		fmt.Fprintf(out, "  %-26s %-6s %s\n", d.Name, d.Unit, d.Better)
	}
}

// printSpread reads result lines (other lines are skipped) and prints, per
// metric, the sample count, median, quartiles and interquartile spread as
// a share of the median.
func printSpread(in io.Reader, out io.Writer) error {
	values := map[string][]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var jr jsonResult
		if json.Unmarshal(sc.Bytes(), &jr) != nil || jr.Metrics == nil {
			continue
		}
		for name, v := range jr.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-26s %3s %14s %14s %14s %8s\n", "metric", "n", "median", "q1", "q3", "spread")
	for _, name := range names {
		xs := values[name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-26s %3d %14.6g %14.6g %14.6g %8.4f\n", name, len(xs), median(xs), q1, q3, spread(xs))
	}
	return nil
}
