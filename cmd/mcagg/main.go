// Command mcagg runs the experiment suite of the multichannel-aggregation
// reproduction and prints the resulting tables.
//
// Usage:
//
//	mcagg -exp e1            # one experiment (e1..e10, a1..a3)
//	mcagg -exp all -seeds 5  # the full suite, 5 seeds per point
//	mcagg -exp e3 -quick     # shrunken sweep for a fast look
//	mcagg -exp e1 -csv       # machine-readable output
//	mcagg -exp f4 -byz 0,0.1,0.3 -jam-model reactive  # byzantine sweep, pinned axes
//
// Hot-path regressions can be profiled without editing code:
//
//	mcagg -exp e1 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	fs := flag.NewFlagSet("mcagg", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		exp        = fs.String("exp", "all", "experiment id: e1..e10, a1..a3, f1..f6, c1..c3 or all")
		seeds      = fs.Int("seeds", 3, "repetitions per sweep point")
		byz        = fs.String("byz", "", "comma-separated byzantine fractions in [0, 1] overriding the f4/f6 sweep axis (default each experiment's axis)")
		jamModel   = fs.String("jam-model", "", "comma-separated jamming adversaries for the f4/f5 sweeps (default all relevant: "+strings.Join(mcnet.JamModelNames(), ",")+")")
		colorer    = fs.String("colorer", "", "comma-separated coloring backends for the c-series head-to-heads (default all: "+strings.Join(mcnet.ColorerNames(), ",")+")")
		quick      = fs.Bool("quick", false, "shrink sweeps for a fast run")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel   = fs.Int("parallel", 0, "worker-pool size for multi-seed sweeps (0 = GOMAXPROCS, 1 = serial)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		exit(2)
		return
	}
	if *seeds < 1 {
		fmt.Fprintf(errOut, "mcagg: -seeds = %d must be ≥ 1\n", *seeds)
		exit(2)
		return
	}
	if *parallel < 0 {
		fmt.Fprintf(errOut, "mcagg: -parallel = %d must be ≥ 0 (0 = GOMAXPROCS)\n", *parallel)
		exit(2)
		return
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(errOut, "mcagg:", err)
		exit(2)
		return
	}
	// exit may be os.Exit, which skips defers — fatal flushes the profiles
	// before every early exit so a failed run still leaves usable output;
	// the deferred call covers the success path (stopProf is idempotent).
	fatal := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(errOut, "mcagg:", err)
		}
		exit(code)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(errOut, "mcagg:", err)
		}
	}()
	// SIGINT/SIGTERM cancel the suite between runs: the current experiment
	// stops, profiles are still flushed by fatal, and the exit is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := mcnet.ExperimentOptions{Seeds: *seeds, Quick: *quick, Parallel: *parallel,
		Colorers: splitList(*colorer), JamModels: splitList(*jamModel)}
	for _, part := range splitList(*byz) {
		frac, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fmt.Fprintf(errOut, "mcagg: -byz: bad value %q\n", part)
			fatal(2)
			return
		}
		o.Byz = append(o.Byz, frac)
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(errOut, "mcagg:", err)
		fatal(2)
		return
	}
	var tables []*mcnet.Table
	if strings.EqualFold(*exp, "all") {
		ts, err := mcnet.AllExperimentsContext(ctx, o)
		if err != nil {
			fmt.Fprintln(errOut, "mcagg:", err)
			fatal(1)
			return
		}
		tables = ts
	} else {
		tb, err := mcnet.RunExperimentContext(ctx, *exp, o)
		if err != nil {
			if errors.Is(err, mcnet.ErrUnknownExperiment) {
				fmt.Fprintf(errOut, "mcagg: unknown experiment %q (valid: %s; use -exp all for the suite)\n",
					*exp, strings.Join(mcnet.ExperimentIDs(), ", "))
				fatal(2)
			} else {
				fmt.Fprintln(errOut, "mcagg:", err)
				fatal(1)
			}
			return
		}
		tables = []*mcnet.Table{tb}
	}
	for _, tb := range tables {
		if *csv {
			fmt.Fprintln(out, tb.CSV())
		} else {
			fmt.Fprintln(out, tb.Render())
		}
	}
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
