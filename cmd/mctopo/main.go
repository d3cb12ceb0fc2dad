// Command mctopo generates the experiment topologies and reports their
// communication-graph parameters (n, Δ, D, connectivity) under the default
// SINR model, optionally dumping positions as CSV.
//
// Usage:
//
//	mctopo -kind crowd -n 128
//	mctopo -kind corridor -n 80 -length 8
//	mctopo -kind chain -n 24 -dump
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"mcnet"
)

func main() { run(os.Args[1:], os.Stdout, os.Stderr, os.Exit) }

func run(args []string, out, errOut io.Writer, exit func(int)) {
	fs := flag.NewFlagSet("mctopo", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		kind   = fs.String("kind", "uniform", "uniform|crowd|grid|hotspot|line|chain|corridor|ring")
		n      = fs.Int("n", 128, "node count")
		seed   = fs.Uint64("seed", 1, "generator seed")
		degree = fs.Float64("degree", 12, "target average degree (uniform)")
		length = fs.Int("length", 6, "corridor length in communication radii")
		dump   = fs.Bool("dump", false, "print positions as CSV")
	)
	if err := fs.Parse(args); err != nil {
		exit(2)
		return
	}
	// Validate flag combinations up front: a clear exit 2 beats a panic (or
	// a silently clamped value) deep in the pipeline.
	if *n < 2 {
		fmt.Fprintf(errOut, "mctopo: -n = %d must be ≥ 2\n", *n)
		exit(2)
		return
	}
	if !(*degree > 0) || math.IsInf(*degree, 1) { // NaN included
		fmt.Fprintf(errOut, "mctopo: -degree = %v must be finite and > 0\n", *degree)
		exit(2)
		return
	}
	if *length < 1 {
		fmt.Fprintf(errOut, "mctopo: -length = %d must be ≥ 1\n", *length)
		exit(2)
		return
	}
	var topo mcnet.Topology
	switch *kind {
	case "uniform":
		topo = mcnet.Uniform(*degree)
	case "crowd":
		topo = mcnet.Crowd
	case "grid":
		topo = mcnet.Grid
	case "hotspot":
		topo = mcnet.Hotspot(max(*n/16, 1), 16, 6, 0.07)
	case "line":
		topo = mcnet.Line(0.7)
	case "chain":
		topo = mcnet.Chain
	case "corridor":
		topo = mcnet.Corridor(*length)
	case "ring":
		topo = mcnet.Ring(0.7)
	default:
		fmt.Fprintf(errOut, "mctopo: unknown topology kind %q\n", *kind)
		exit(2)
		return
	}
	net, err := mcnet.New(*n, mcnet.WithTopology(topo), mcnet.Channels(1), mcnet.Seed(*seed))
	if err != nil {
		fmt.Fprintln(errOut, "mctopo:", err)
		exit(1)
		return
	}
	g := net.Geometry()
	st := net.Stats()
	fmt.Fprintf(out, "kind=%s n=%d R_eps=%.3f r_c=%.4f\n", *kind, net.N(), g.CommRadius, g.ClusterRadius)
	fmt.Fprintf(out, "max_degree=%d avg_degree=%.2f connected=%v diameter~%d\n",
		st.MaxDegree, st.AvgDegree, st.Connected, st.Diameter)
	pi := net.Plan()
	fmt.Fprintf(out, "derived: DeltaHat=%d PhiMax=%d HopBound=%d (schedule %d slots)\n",
		pi.DeltaHat, pi.PhiMax, pi.HopBound, pi.BudgetSlots)
	if *dump {
		fmt.Fprintln(out, "x,y")
		for _, q := range net.Positions() {
			fmt.Fprintf(out, "%.6f,%.6f\n", q.X, q.Y)
		}
	}
}
