package ruling

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/golden"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// stageDigest runs every node of pos through st and digests the run, each
// node's outcome hashed through enc.
func stageDigest[R any](t *testing.T, p model.Params, pos []geo.Point, st Stage, seed uint64, spec *fault.Spec, enc func(Outcome) R) golden.Digest {
	t.Helper()
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	if spec != nil {
		e.Faults = fault.NewInjector(*spec, seed+1, len(pos), p.Channels, 0)
	}
	rec := golden.NewRecorder()
	e.Trace = rec.Trace
	out := make([]Outcome, len(pos))
	if _, err := e.Run(rulingSteppers(st, out, nil)); err != nil {
		t.Fatal(err)
	}
	res := make([]R, len(out))
	for i, o := range out {
		res[i] = enc(o)
	}
	return rec.Digest(t, res)
}

// rulingResult is the ruling set's golden encoding of an outcome: members
// of S record DominatedBy −1.
type rulingResult struct {
	InSet       bool
	DominatedBy int
	JoinRound   int
}

func rulingResultOf(o Outcome) rulingResult {
	r := rulingResult{InSet: o.IsDominator, DominatedBy: o.Dominator, JoinRound: int(o.JoinRound)}
	if o.IsDominator {
		r.DominatedBy = -1
	}
	return r
}

// TestRulingGolden pins the ruling set's transcript and outcomes: an
// E5-style field with close twins, run clean and with crashes and loss.
func TestRulingGolden(t *testing.T) {
	// The E5 construction: constant areal density, one in eight nodes a
	// close twin of an earlier node.
	const r = 0.06
	n := 96
	rnd := rand.New(rand.NewSource(7))
	side := 0.35 * math.Sqrt(float64(n))
	var field []geo.Point
	for i := 0; i < n-n/8; i++ {
		field = append(field, geo.Point{X: rnd.Float64() * side, Y: rnd.Float64() * side})
	}
	for len(field) < n {
		base := field[rnd.Intn(len(field))]
		field = append(field, geo.Point{X: base.X + (rnd.Float64()*2-1)*r/3, Y: base.Y + (rnd.Float64()*2-1)*r/3})
	}
	p := model.Default(1, n)
	st := NewStage(p, phy.NewReach(p, r), 0)
	golden.Check(t, "field", stageDigest(t, p, field, st, 1, nil, rulingResultOf))

	spec := &fault.Spec{LossProb: 0.1, CrashAt: map[int]int{2: 0, 5: 7, 11: 40}}
	golden.Check(t, "faults", stageDigest(t, p, field, st, 3, spec, rulingResultOf))
}

// domResult is the dominating set's golden encoding of an outcome.
type domResult struct {
	IsDominator   bool
	Dominator     int
	SelfAppointed bool
}

// TestDominateGolden pins the dominating set by itself: an E9-style
// UniformDegree(12) field, run clean and under loss with three crashes.
func TestDominateGolden(t *testing.T) {
	const n = 96
	p := model.Default(4, n)
	pos := topology.UniformDegree(topology.LayoutRand(900*n), n, p.REps(), 12)
	st := NewDominatingStage(p, phy.NewReach(p, p.ClusterRadius()), 0)
	enc := func(o Outcome) domResult { return domResult{o.IsDominator, o.Dominator, o.SelfAppointed} }
	golden.Check(t, "field", stageDigest(t, p, pos, st, 41, nil, enc))
	spec := &fault.Spec{LossProb: 0.1, CrashAt: map[int]int{3: 0, 17: 60, 40: 200}}
	golden.Check(t, "faults", stageDigest(t, p, pos, st, 43, spec, enc))
}
