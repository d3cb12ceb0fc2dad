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
)

// rulingDigest runs node i with cfgs[i] over pos and digests the run.
func rulingDigest(t *testing.T, p model.Params, pos []geo.Point, cfgs []Config, seed uint64, spec *fault.Spec) golden.Digest {
	t.Helper()
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	if spec != nil {
		e.Faults = fault.NewInjector(*spec, seed+1, len(pos), p.Channels, 0)
	}
	rec := golden.NewRecorder()
	e.Trace = rec.Trace
	out := make([]Outcome, len(pos))
	if _, err := e.Run(rulingSteppers(cfgs, out, nil)); err != nil {
		t.Fatal(err)
	}
	return rec.Digest(t, out)
}

// TestRulingGolden pins the ruling-set protocol's transcript and outcomes:
// an E5-style field with close twins, two stride-interleaved groups on one
// patch, a run on a non-zero channel, and one with crashes and loss.
func TestRulingGolden(t *testing.T) {
	same := func(n int, cfg Config) []Config {
		cfgs := make([]Config, n)
		for i := range cfgs {
			cfgs[i] = cfg
		}
		return cfgs
	}

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
	golden.Check(t, "field", rulingDigest(t, model.Default(1, n), field, same(n, DefaultConfig(r, 0)), 1, nil))

	crowd := patch(rand.New(rand.NewSource(21)), 24, 0, 0, 0.02)
	strided := make([]Config, len(crowd))
	for i := range strided {
		strided[i] = DefaultConfig(0.04, 0)
		strided[i].Mu = 6
		strided[i].Stride, strided[i].Offset = 3, i%3
	}
	golden.Check(t, "stride", rulingDigest(t, model.Default(1, 64), crowd, strided, 9, nil))

	golden.Check(t, "channel", rulingDigest(t, model.Default(3, 64), crowd, same(len(crowd), DefaultConfig(0.04, 2)), 5, nil))

	spec := &fault.Spec{LossProb: 0.1, CrashAt: map[int]int{2: 0, 5: 7, 11: 40}}
	golden.Check(t, "faults", rulingDigest(t, model.Default(1, n), field, same(n, DefaultConfig(r, 0)), 3, spec))
}
