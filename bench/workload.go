package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"mcnet"
)

// opKind is the facade operation a workload repeats.
type opKind int

const (
	opAggregate opKind = iota // one Network.Aggregate(Sum)
	opColor                   // one Network.Color with the default sec7 backend
	opBatch                   // one RunBatch over deployments × fault cases
)

// workload is one set of inputs the benchmark runs. The deployments are
// fixed by the workload (seeds lists their mcnet.Seed values), so every
// run replays the same schedule and transcript shape; the benchmark's
// -seed draws the node values.
type workload struct {
	name, why string
	kind      opKind
	n         int
	channels  int
	topo      mcnet.Topology
	seeds     []uint64
	// cases are the fault settings a batch applies to every deployment
	// (Seed and Values are filled in per run); workers is its pool size.
	cases   []mcnet.RunSpec
	workers int
}

// workloads are the benchmark's workloads, in -list order.
var workloads = []workload{
	{
		name: "crowd-agg",
		why:  "one dense cluster (crowd, n=1024, F=8), one full Aggregate: node stepping dominates and the degenerate grid leaves the SINR resolver almost idle",
		kind: opAggregate, n: 1024, channels: 8, topo: mcnet.Crowd, seeds: []uint64{1},
	},
	{
		name: "field-agg",
		why:  "multi-cluster uniform field (degree 12, n=1024, F=8), one full Aggregate: the far-field resolver and the backbone stage carry real work",
		kind: opAggregate, n: 1024, channels: 8, topo: mcnet.Uniform(12), seeds: []uint64{1},
	},
	{
		name: "field-color",
		why:  "the field-agg deployment running one full sec7 Color: the paper's second claim through the same sim and phy with another protocol mix",
		kind: opColor, n: 1024, channels: 8, topo: mcnet.Uniform(12), seeds: []uint64{1},
	},
	{
		name: "fault-sweep",
		why:  "RunBatch of 32 small runs (n=128, F=4, 8 deployments x 4 fault cases, 2 workers): per-run fixed cost, the batch pool and the fault hooks dominate",
		kind: opBatch, n: 128, channels: 4, topo: mcnet.Uniform(12),
		seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, workers: 2,
		cases: []mcnet.RunSpec{
			{Faulted: true},
			{Loss: 0.05, Jam: 1, JamModel: mcnet.JamOblivious},
			{Churn: mcnet.ChurnSpec{Rate: 0.05}},
			{Byz: 0.05, ByzStrategy: mcnet.ByzCorrupt},
		},
	},
}

// workloadByName finds a workload, reporting whether it exists.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadNames lists the valid -workload values.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// baseOptions are the construction options every deployment of w shares.
func (w workload) baseOptions() []mcnet.Option {
	return []mcnet.Option{mcnet.Channels(w.channels), mcnet.WithTopology(w.topo)}
}

// deploy builds the deployment for one seed through the facade.
func (w workload) deploy(seed uint64) (*mcnet.Network, error) {
	return mcnet.New(w.n, append(w.baseOptions(), mcnet.Seed(seed))...)
}

// instance is a workload with its generated inputs: the deployments and
// one value vector per deployment.
type instance struct {
	w      workload
	nets   []*mcnet.Network
	values [][]int64
}

// maxValue bounds the generated node values: draws lie in [1, maxValue).
const maxValue = 1 << 20

// newInstance builds w's deployments and draws its node values from seed.
// The same seed always yields the same inputs.
func newInstance(w workload, seed uint64) (*instance, error) {
	in := &instance{w: w}
	r := rand.New(rand.NewSource(int64(seed)))
	for _, s := range w.seeds {
		nw, err := w.deploy(s)
		if err != nil {
			return nil, fmt.Errorf("deploy %s seed %d: %w", w.name, s, err)
		}
		vals := make([]int64, nw.N())
		for i := range vals {
			vals[i] = 1 + r.Int63n(maxValue-1)
		}
		in.nets = append(in.nets, nw)
		in.values = append(in.values, vals)
	}
	return in, nil
}

// specs expands a batch workload into its runs: every fault case on every
// deployment, deployment-major.
func (in *instance) specs() []mcnet.RunSpec {
	var out []mcnet.RunSpec
	for d, s := range in.w.seeds {
		for _, c := range in.w.cases {
			c.Seed, c.Values = s, in.values[d]
			out = append(out, c)
		}
	}
	return out
}

// outcome is one operation's result reduced to what the benchmark checks
// and reports.
type outcome struct {
	runs      int // facade runs the operation performed
	failed    int // runs that failed a check
	problems  []string
	slots     int64  // simulated slots, summed over runs
	nodeSlots int64  // Σ nodes × slots
	digest    uint64 // transcript digest: slots and every node's result
	// correct/judged is correct_frac: nodes holding the exact aggregate
	// (aggregation), honest survivors agreeing on the modal value (batch),
	// or colored nodes with no same-colored neighbour (coloring).
	correct, judged int
	exact, nodes    int // exact_frac = exact / nodes (aggregation)
	agree, alive    int // agree_frac = agree / alive (batch)
	conflicts       int // coloring conflicts (coloring)
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// run performs one operation through the facade and checks its outputs.
// A returned error means the operation did not complete.
func (in *instance) run(ctx context.Context, workers int) (outcome, error) {
	switch in.w.kind {
	case opColor:
		return in.runColor(ctx)
	case opBatch:
		return in.runBatch(ctx, workers)
	}
	res, err := in.nets[0].Aggregate(ctx, in.values[0], mcnet.Sum)
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	o.addAggregate(res, in.values[0])
	o.endRun(0)
	o.exact, o.nodes = res.Exact, len(res.Nodes)
	o.correct, o.judged = res.Exact, len(res.Nodes)
	return o, nil
}

// endRun counts the run just added as failed if it recorded a problem
// since problems held before entries.
func (o *outcome) endRun(before int) {
	if len(o.problems) > before {
		o.failed++
	}
}

// addAggregate folds one aggregation run into the outcome: the Value
// check, the slot counters and the transcript digest.
func (o *outcome) addAggregate(res *mcnet.AggregateResult, values []int64) {
	if want := sum(values); res.Value != want {
		o.fail("run %d: Value = %d, want Σ values = %d", o.runs, res.Value, want)
	}
	vals := make([]int64, len(res.Nodes))
	informed := make([]bool, len(res.Nodes))
	for i, nr := range res.Nodes {
		vals[i], informed[i] = nr.Value, nr.Informed
	}
	o.addRun(res.Slots, aggDigest(res.Slots, vals, informed), len(res.Nodes))
}

// addRun counts one run and folds its slot count and digest into the
// outcome.
func (o *outcome) addRun(slots int, digest uint64, nodes int) {
	o.runs++
	o.slots += int64(slots)
	o.nodeSlots += int64(slots) * int64(nodes)
	o.digest = o.digest*1099511628211 ^ digest
}

func (in *instance) runColor(ctx context.Context) (outcome, error) {
	nw := in.nets[0]
	res, err := nw.Color(ctx)
	if err != nil {
		return outcome{}, err
	}
	colors := res.Colors()
	var o outcome
	if res.Uncolored != 0 {
		o.fail("%d uncolored nodes", res.Uncolored)
	}
	conflicts, proper := colorConflicts(nw.Positions(), nw.Geometry().CommRadius, colors)
	if conflicts != res.Conflicts {
		o.fail("Conflicts = %d, recount at R_eps = %d", res.Conflicts, conflicts)
	}
	o.endRun(0)
	o.addRun(res.Slots, colorDigest(res.Slots, colors), len(colors))
	o.conflicts = res.Conflicts
	o.correct, o.judged = proper, len(colors)
	return o, nil
}

func (in *instance) runBatch(ctx context.Context, workers int) (outcome, error) {
	specs := in.specs()
	res, err := mcnet.RunBatch(ctx, in.w.n, in.w.baseOptions(), specs, mcnet.BatchOptions{Workers: workers})
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	for i, r := range res {
		before := len(o.problems)
		o.addAggregate(r, specs[i].Values)
		o.exact += r.Exact
		o.nodes += len(r.Nodes)
		if r.Faults == nil {
			o.fail("run %d: no fault report", i)
		} else {
			o.agree += r.Faults.SurvivorsAgreeing
			o.alive += r.Faults.Survivors
		}
		o.endRun(before)
	}
	o.correct, o.judged = o.agree, o.alive
	return o, nil
}

// colorConflicts recounts a coloring independently of the facade: the
// communication-graph edges (pairs within radius) whose endpoints share a
// color, and the colored nodes that have no such edge.
func colorConflicts(pos []mcnet.Point, radius float64, colors []int) (conflicts, proper int) {
	r2 := radius * radius
	bad := make([]bool, len(colors))
	for i := range colors {
		if colors[i] < 0 {
			continue
		}
		for j := i + 1; j < len(colors); j++ {
			if colors[j] != colors[i] {
				continue
			}
			dx, dy := pos[i].X-pos[j].X, pos[i].Y-pos[j].Y
			if dx*dx+dy*dy <= r2 {
				conflicts++
				bad[i], bad[j] = true, true
			}
		}
	}
	for i, c := range colors {
		if c >= 0 && !bad[i] {
			proper++
		}
	}
	return conflicts, proper
}

func sum(values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}

// aggDigest hashes an aggregation transcript: the slot count and every
// node's learned value and informed flag.
func aggDigest(slots int, values []int64, informed []bool) uint64 {
	words := make([]uint64, 0, 1+2*len(values))
	words = append(words, uint64(slots))
	for i, v := range values {
		flag := uint64(0)
		if informed[i] {
			flag = 1
		}
		words = append(words, uint64(v), flag)
	}
	return hashWords(words)
}

// colorDigest hashes a coloring transcript: the slot count and every
// node's color.
func colorDigest(slots int, colors []int) uint64 {
	words := make([]uint64, 0, 1+len(colors))
	words = append(words, uint64(slots))
	for _, c := range colors {
		words = append(words, uint64(c))
	}
	return hashWords(words)
}

// hashWords is the FNV-1a hash of words in little-endian byte order.
func hashWords(words []uint64) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	h.Write(buf)
	return h.Sum64()
}
