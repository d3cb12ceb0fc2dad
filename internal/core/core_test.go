package core

import (
	"context"
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// runPipeline executes the full pipeline and returns results plus the
// engine (for events).
func runPipeline(t *testing.T, pos []geo.Point, p model.Params, cfg Config, values []int64, op agg.Op, seed uint64) ([]Result, *sim.Engine, *Plan) {
	t.Helper()
	pl := NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	res, err := RunContext(context.Background(), e, pl, values, op, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res, e, pl
}

func TestPlanOffsetsMonotone(t *testing.T) {
	p := model.Default(8, 256)
	pl := NewPlan(p, DefaultConfig(p))
	o := pl.Offsets
	seq := []int{o.Dominate, o.Color, o.Announce, o.CSA, o.Elect, o.Followers, o.Tree, o.Backbone, o.Inform, o.End}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("offsets not strictly increasing: %+v", o)
		}
	}
}

func TestFv(t *testing.T) {
	p := model.Default(8, 256) // ln 256 ≈ 5.55
	pl := NewPlan(p, DefaultConfig(p))
	if got := pl.fv(0); got != 1 {
		t.Errorf("fv(0) = %d, want 1", got)
	}
	if got := pl.fv(3); got != 1 {
		t.Errorf("fv(3) = %d, want 1", got)
	}
	if got := pl.fv(50); got != 10-1 && got != 10 { // 50/5.55 ≈ 9.01 → 10 candidates, capped at 8
		if got != 8 {
			t.Errorf("fv(50) = %d, want 8 (capped)", got)
		}
	}
	if got := pl.fv(1000); got != 8 {
		t.Errorf("fv(1000) = %d, want cap 8", got)
	}
}

func TestSingleClusterSumExact(t *testing.T) {
	// One dense cluster: every node within r_c of the origin. The pipeline
	// must deliver the exact sum to every node.
	const n = 40
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i*3 + 1)
		want += values[i]
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	res, _, _ := runPipeline(t, pos, p, cfg, values, agg.Sum, 7)

	domCount := 0
	for i, r := range res {
		if r.IsDominator {
			domCount++
		}
		if !r.Ok {
			t.Errorf("node %d not informed", i)
			continue
		}
		if r.Value != want {
			t.Errorf("node %d value %d, want %d", i, r.Value, want)
		}
	}
	if domCount < 1 || domCount > 4 {
		t.Errorf("dominators = %d, want 1..4 for one dense patch", domCount)
	}
}

func TestSingleClusterMax(t *testing.T) {
	const n = 30
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(2))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	values := make([]int64, n)
	var want int64 = -1 << 30
	for i := range values {
		values[i] = int64(rnd.Intn(10000)) - 5000
		if values[i] > want {
			want = values[i]
		}
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	res, _, _ := runPipeline(t, pos, p, cfg, values, agg.Max, 3)
	for i, r := range res {
		if !r.Ok || r.Value != want {
			t.Errorf("node %d: ok=%v value=%d, want %d", i, r.Ok, r.Value, want)
		}
	}
}

func TestMultiClusterSparseField(t *testing.T) {
	// Connected sparse field spanning several clusters and backbone hops.
	if testing.Short() {
		t.Skip("multi-cluster integration is slow")
	}
	const n = 80
	p := model.Default(4, 128)
	rnd := rand.New(rand.NewSource(5))
	pos := topology.UniformDegree(rnd, n, p.REps(), 14)
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = 32
	cfg.HopBound = 14
	// Sparse fields have ~Δ·(R_{ε/2}/R_ε)² dominators inside a conflict
	// ball; the TDMA period must cover that to avoid color overflow.
	cfg.PhiMax = 24
	res, e, pl := runPipeline(t, pos, p, cfg, values, agg.Sum, 11)

	informed, exact := 0, 0
	for _, r := range res {
		if r.Ok {
			informed++
			if r.Value == want {
				exact++
			}
		}
	}
	if informed < n*95/100 {
		t.Errorf("only %d/%d nodes informed", informed, n)
	}
	// Sums can drop contributions only through rare losses; require the
	// informed majority to agree on the exact fold.
	if exact < informed*95/100 {
		t.Errorf("only %d/%d informed nodes have the exact sum %d", exact, informed, want)
	}
	// Structure sanity: every node has a dominator within r_c.
	rc := p.ClusterRadius()
	for i, r := range res {
		if r.Dominator < 0 || !res[r.Dominator].IsDominator {
			t.Errorf("node %d dominator invalid", i)
			continue
		}
		if pos[i].Dist(pos[r.Dominator]) > rc {
			t.Errorf("node %d dominator beyond r_c", i)
		}
	}
	// Events: someone must have reached the backbone-agg milestone before
	// the inform stage end.
	sawAgg := false
	for _, ev := range e.Events() {
		if ev.Name == "backbone-agg" && ev.Slot <= pl.Offsets.End {
			sawAgg = true
		}
	}
	if !sawAgg {
		t.Error("no backbone-agg event recorded")
	}
}

func TestScheduleAlignment(t *testing.T) {
	// Every node must consume exactly Offsets.End slots: the engine's slot
	// count equals the plan end.
	const n = 12
	p := model.Default(2, 64)
	rnd := rand.New(rand.NewSource(9))
	rc := p.ClusterRadius()
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{X: rnd.Float64() * rc, Y: rnd.Float64() * rc}
	}
	pl := NewPlan(p, DefaultConfig(p))
	e := sim.NewEngine(phy.NewField(p, pos), 13)
	slots := 0
	e.Trace = func(int, []phy.Tx, []phy.Rx, []phy.Reception) { slots++ }
	if _, err := RunContext(context.Background(), e, pl, make([]int64, n), agg.Sum, 13); err != nil {
		t.Fatal(err)
	}
	if slots != pl.Offsets.End {
		t.Errorf("pipeline consumed %d slots, plan says %d", slots, pl.Offsets.End)
	}
}

func TestDeltaHatClamped(t *testing.T) {
	p := model.Default(4, 64)
	cfg := DefaultConfig(p)
	cfg.DeltaHat = 10_000 // above n̂
	pl := NewPlan(p, cfg)
	if pl.Cfg.DeltaHat != 64 {
		t.Errorf("DeltaHat = %d, want clamped to 64", pl.Cfg.DeltaHat)
	}
	cfg.DeltaHat = 0
	pl = NewPlan(p, cfg)
	if pl.Cfg.DeltaHat != 64 {
		t.Errorf("DeltaHat = %d, want default 64", pl.Cfg.DeltaHat)
	}
}

func TestSingletonNetwork(t *testing.T) {
	p := model.Default(2, 64)
	cfg := DefaultConfig(p)
	res, _, _ := runPipeline(t, []geo.Point{{X: 0}}, p, cfg, []int64{42}, agg.Sum, 1)
	if !res[0].Ok || res[0].Value != 42 || !res[0].IsDominator {
		t.Errorf("singleton result = %+v", res[0])
	}
}

func TestTwoIsolatedNodes(t *testing.T) {
	// Two nodes out of range of each other: two singleton clusters, two
	// backbone components. Each must at least learn its own value.
	p := model.Default(2, 64)
	cfg := DefaultConfig(p)
	pos := []geo.Point{{X: 0}, {X: 50}}
	res, _, _ := runPipeline(t, pos, p, cfg, []int64{10, 20}, agg.Sum, 2)
	for i, r := range res {
		if !r.Ok {
			t.Errorf("node %d not informed", i)
			continue
		}
		want := []int64{10, 20}[i]
		if r.Value != want {
			t.Errorf("node %d value %d, want %d (own component)", i, r.Value, want)
		}
	}
}

func TestPipelineUnderManhattanMetric(t *testing.T) {
	// Footnote 1 of the paper: the results extend to fading metrics. The
	// protocols never touch coordinates — only received powers — so the
	// pipeline must aggregate exactly under an L1 world as well.
	const n = 28
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(23))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		// Keep the cluster within L1 radius r_c of the origin.
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 3,
			Y: (rnd.Float64()*2 - 1) * rc / 3,
		}
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(2*i + 1)
		want += values[i]
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(p, cfg)
	e := sim.NewEngine(phy.NewFieldMetric(p, pos, geo.Manhattan), 29)
	res, err := RunContext(context.Background(), e, pl, values, agg.Sum, 29)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Ok || r.Value != want {
			t.Errorf("L1 metric: node %d ok=%v value=%d want=%d", i, r.Ok, r.Value, want)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	// The entire pipeline must be a pure function of (seed, topology):
	// identical runs produce identical per-node results, regardless of
	// goroutine scheduling.
	const n = 24
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(41))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i)
	}
	run := func() []Result {
		cfg := DefaultConfig(p)
		cfg.DeltaHat = n
		cfg.PhiMax = 4
		cfg.HopBound = 2
		pl := NewPlan(p, cfg)
		e := sim.NewEngine(phy.NewField(p, pos), 99)
		res, err := RunContext(context.Background(), e, pl, values, agg.Sum, 99)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestPipelineUnderParameterUncertainty(t *testing.T) {
	// Sec. 2: nodes know only ranges for (α, β, N) and should use the
	// pessimistic ends. Here the physics run at (α=3, β=1.5, N=1) while
	// protocols believe the conservative (β=1.7, N=1.2): the plan is
	// compiled from the believed values, so every protocol-side threshold
	// (r_c, clear bounds, distance estimates) derives from them, and the
	// pipeline must still aggregate exactly.
	const n = 26
	truth := model.Default(4, 64)
	believed := truth
	believed.Beta = 1.7
	believed.Noise = 1.2

	// Cluster sized by the *believed* (smaller) radius so both views agree
	// that everyone is co-clustered.
	rcB := believed.ClusterRadius()
	rnd := rand.New(rand.NewSource(47))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rcB / 2,
			Y: (rnd.Float64()*2 - 1) * rcB / 2,
		}
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 3)
		want += values[i]
	}
	cfg := DefaultConfig(believed)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(believed, cfg)
	e := sim.NewEngine(phy.NewField(truth, pos), 49)
	res, err := RunContext(context.Background(), e, pl, values, agg.Sum, 49)
	if err != nil {
		t.Fatal(err)
	}
	informed, exact := 0, 0
	for _, r := range res {
		if r.Ok {
			informed++
			if r.Value == want {
				exact++
			}
		}
	}
	if informed != n || exact != n {
		t.Errorf("uncertainty run: informed %d/%d exact %d/%d", informed, n, exact, n)
	}
}

func TestPipelineWithJammedChannel(t *testing.T) {
	// One of four channels is jammed for the entire run (the disruption
	// setting of the paper's reference [9]). Followers re-pick channels
	// every round and the reporter-tree takeover bridges the dead channel,
	// so the pipeline must still conclude; values acknowledged only on the
	// jammed channel may be lost, so we require informed nodes and a
	// near-exact fold rather than perfection.
	const n = 32
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(53))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(p, cfg)
	field := phy.NewField(p, pos)
	field.Jam(2, true)
	e := sim.NewEngine(field, 57)
	res, err := RunContext(context.Background(), e, pl, values, agg.Sum, 57)
	if err != nil {
		t.Fatal(err)
	}
	informed := 0
	for _, r := range res {
		if !r.Ok {
			continue
		}
		informed++
		if r.Value > want || r.Value < want/2 {
			t.Errorf("implausible fold %d (true %d)", r.Value, want)
		}
	}
	if informed < n*9/10 {
		t.Errorf("only %d/%d informed with one jammed channel", informed, n)
	}
}
