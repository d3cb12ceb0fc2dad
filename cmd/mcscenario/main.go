// Command mcscenario sweeps fault-intensity grids over the multichannel
// aggregation pipeline: probabilistic message loss, adversarial channel
// jamming (oblivious, round-robin, reactive or adaptive), node churn and
// Byzantine node fractions, in every combination, with medians over seeded
// repetitions. Runs execute across a worker pool (-parallel; grid-point
// progress goes to stderr) and the sweep is deterministic — a fixed -seed
// emits a byte-identical table across runs and worker counts. SIGINT or
// SIGTERM cancels the sweep between runs with a non-zero exit.
//
// Usage:
//
//	mcscenario -n 96 -loss 0,0.05,0.1                 # loss sweep
//	mcscenario -jam 0,1,2 -jam-model roundrobin       # jamming sweep
//	mcscenario -churn 0,0.1,0.2 -seeds 3              # churn sweep, 3 seeds/point
//	mcscenario -byz 0,0.1,0.2 -byz-strategy equivocate # byzantine sweep
//	mcscenario -byz 0,0.2 -jam 1 -jam-model reactive  # byzantine × reactive jam
//	mcscenario -loss 0,0.1 -jam 0,1 -churn 0,0.1 -csv # full grid, CSV
//	mcscenario -loss 0,0.1 -seeds 8 -parallel 4       # 4 workers, same table
//
// Sweeps can also be described as JSON spec documents — the same format
// the mcserved daemon accepts — and either run locally or submitted to a
// running daemon:
//
//	mcscenario -spec sweep.json                        # run the document locally
//	mcscenario -spec sweep.json -submit http://:8357   # queue it on a daemon
//	mcscenario -loss 0,0.1 -submit http://:8357        # flags → spec → daemon
//
// Hot-path regressions can be profiled without editing code:
//
//	mcscenario -loss 0,0.1 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mcnet"
	"mcnet/cmd/internal/prof"
)

func main() { run(os.Args[1:], os.Stdout, os.Stderr, os.Exit) }

func run(args []string, out, errOut io.Writer, exit func(int)) {
	fs := flag.NewFlagSet("mcscenario", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		n          = fs.Int("n", 96, "node count (≥ 2)")
		kind       = fs.String("topo", "crowd", "topology: uniform|crowd|grid|line|ring")
		channels   = fs.Int("channels", 4, "number of radio channels, 1 to 1024 (0 = the spec default, 4)")
		seeds      = fs.Int("seeds", 1, "repetitions per grid point (≥ 1)")
		seed       = fs.Uint64("seed", 1, "base seed; repetition s runs with seed+s")
		loss       = fs.String("loss", "0", "comma-separated loss probabilities in [0, 1]")
		jam        = fs.String("jam", "0", "comma-separated jammed-channel counts")
		jamModel   = fs.String("jam-model", "oblivious", "jamming adversary: "+strings.Join(mcnet.JamModelNames(), "|"))
		churn      = fs.String("churn", "0", "comma-separated crash rates in [0, 1]")
		byz        = fs.String("byz", "0", "comma-separated byzantine node fractions in [0, 1]")
		byzStrat   = fs.String("byz-strategy", "corrupt", "byzantine strategy: "+strings.Join(mcnet.ByzStrategyNames(), "|"))
		name       = fs.String("name", "mcscenario", "report title")
		csv        = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		parallel   = fs.Int("parallel", 0, "worker-pool size for the sweep's runs (0 = GOMAXPROCS, 1 = serial)")
		quiet      = fs.Bool("quiet", false, "suppress grid-point progress on stderr")
		specFile   = fs.String("spec", "", "run this JSON scenario spec document instead of the grid flags")
		submit     = fs.String("submit", "", "submit the sweep to the mcserved daemon at this base URL instead of running locally")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		exit(2)
		return
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(errOut, "mcscenario: "+format+"\n", args...)
		exit(2)
	}
	if *parallel < 0 {
		fail("-parallel = %d must be ≥ 0 (0 = GOMAXPROCS)", *parallel)
		return
	}

	// SIGINT/SIGTERM cancel the sweep between runs: profiles still flush,
	// the exit is non-zero, and no partial table is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The sweep comes from a spec document (-spec) or from the grid flags;
	// either way it can run locally or be submitted to a daemon (-submit).
	var (
		sp  mcnet.ScenarioSpec
		doc []byte
	)
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fail("%v", err)
			return
		}
		if sp, err = mcnet.ParseScenarioSpec(data); err != nil {
			fail("%s: %v", *specFile, err)
			return
		}
		doc = data
	} else {
		if *n < 2 {
			fail("-n = %d must be ≥ 2", *n)
			return
		}
		if *seeds < 1 {
			fail("-seeds = %d must be ≥ 1", *seeds)
			return
		}
		lossGrid, err := parseFloats(*loss)
		if err != nil {
			fail("-loss: %v", err)
			return
		}
		jamGrid, err := parseInts(*jam)
		if err != nil {
			fail("-jam: %v", err)
			return
		}
		churnGrid, err := parseFloats(*churn)
		if err != nil {
			fail("-churn: %v", err)
			return
		}
		byzGrid, err := parseFloats(*byz)
		if err != nil {
			fail("-byz: %v", err)
			return
		}
		// Route flags through the spec document so the local run, the spec
		// file and the daemon all validate and execute identically.
		sp = mcnet.ScenarioSpec{
			Name:        *name,
			N:           *n,
			Topology:    *kind,
			Channels:    *channels,
			Loss:        lossGrid,
			Jam:         jamGrid,
			Churn:       churnGrid,
			Byz:         byzGrid,
			ByzStrategy: *byzStrat,
			JamModel:    *jamModel,
			Seeds:       *seeds,
			BaseSeed:    *seed,
		}
		if err = sp.Validate(); err != nil {
			fail("%v", err)
			return
		}
		if doc, err = json.Marshal(sp); err != nil {
			fail("encoding spec: %v", err)
			return
		}
	}

	if *submit != "" {
		if err := submitJob(ctx, *submit, doc, out); err != nil {
			fmt.Fprintln(errOut, "mcscenario:", err)
			exit(1)
		}
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(errOut, "mcscenario:", err)
		exit(2)
		return
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(errOut, "mcscenario:", err)
		}
	}()

	// Progress: one line per grid point's worth of completed runs, so long
	// sweeps show life on stderr without flooding it. Parallel workers
	// interleave runs from several grid points, so the point counter is the
	// completed-work equivalent (exact only for -parallel 1, where runs
	// finish in grid order).
	axis := func(k int) int {
		if k == 0 {
			return 1 // an empty axis sweeps the single zero-fault point
		}
		return k
	}
	points := axis(len(sp.Loss)) * axis(len(sp.Jam)) * axis(len(sp.Churn)) * axis(len(sp.Byz))
	reps := max(sp.Seeds, 1)
	bo := mcnet.BatchOptions{Workers: *parallel}
	if !*quiet {
		fmt.Fprintf(errOut, "mcscenario: sweeping %d grid points × %d seeds = %d runs\n",
			points, reps, points*reps)
		bo.Progress = func(done, total int) {
			if done%reps == 0 || done == total {
				fmt.Fprintf(errOut, "mcscenario: %d/%d runs (≈ %d/%d grid points)\n",
					done, total, done/reps, points)
			}
		}
	}
	tb, err := mcnet.RunScenario(ctx, sp, bo)
	if err != nil {
		fmt.Fprintln(errOut, "mcscenario:", err)
		// exit may be os.Exit, which skips defers — flush the profiles so
		// a failed sweep still leaves usable output (stopProf is
		// idempotent, so the deferred call stays harmless).
		if err := stopProf(); err != nil {
			fmt.Fprintln(errOut, "mcscenario:", err)
		}
		exit(1)
		return
	}
	if *csv {
		fmt.Fprintln(out, tb.CSV())
	} else {
		fmt.Fprintln(out, tb.Render())
	}
}

// submitJob posts the spec document to a running mcserved daemon and
// prints the accepted job's status document.
func submitJob(ctx context.Context, baseURL string, doc []byte, out io.Writer) error {
	url := strings.TrimSuffix(baseURL, "/") + "/v1/jobs"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("submitting to %s: %w", baseURL, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("submitting to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading response from %s: %w", baseURL, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("daemon refused the job: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = out.Write(body)
	return err
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
