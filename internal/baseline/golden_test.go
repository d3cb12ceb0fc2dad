package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/golden"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

// digestRun runs one baseline on a fresh engine over pos and digests its
// transcript, events and results.
func digestRun(t *testing.T, p model.Params, pos []geo.Point, seed uint64, run func(e *sim.Engine) ([]SingleChannelResult, error)) golden.Digest {
	t.Helper()
	e := sim.NewEngine(phy.NewField(p, pos), seed)
	rec := golden.NewRecorder()
	e.Trace = rec.Trace
	out, err := run(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range e.Events() {
		rec.Event(ev.Slot, ev.Node, ev.Name, ev.Value)
	}
	return rec.Digest(t, out)
}

// TestSingleChannelTreeGolden pins SingleChannelTree's transcript, events
// and results on a line, a dense patch and a sparse field.
func TestSingleChannelTreeGolden(t *testing.T) {
	p := model.Default(1, 64)
	line := topology.Line(12, 0.5)
	rnd := rand.New(rand.NewSource(5))
	dense := make([]geo.Point, 30)
	for i := 1; i < 30; i++ {
		dense[i] = geo.Point{X: rnd.Float64() * 0.3, Y: rnd.Float64() * 0.3}
	}
	sparse := topology.UniformDegree(rand.New(rand.NewSource(8)), 40, p.REps(), 8)
	for _, tc := range []struct {
		name            string
		pos             []geo.Point
		op              agg.Op
		delta, hopBound int
		seed            uint64
	}{
		{"line", line, agg.Sum, 3, 12, 3},
		{"dense", dense, agg.Max, 30, 3, 7},
		{"sparse", sparse, agg.Sum, 8, 10, 11},
	} {
		values := make([]int64, len(tc.pos))
		for i := range values {
			values[i] = int64(7*i%23 + 1)
		}
		golden.Check(t, tc.name, digestRun(t, p, tc.pos, tc.seed, func(e *sim.Engine) ([]SingleChannelResult, error) {
			return SingleChannelTree(e, values, tc.op, tc.delta, tc.hopBound)
		}))
	}
}

// TestTDMASteppedIdentity pins TDMAByID's transcript and per-node results
// to the ones the goroutine engine produced on three uniform fields.
func TestTDMASteppedIdentity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		p := model.Default(1, 64)
		pos := topology.UniformDegree(rnd, 50, p.REps(), 10)
		values := make([]int64, 50)
		for i := range values {
			values[i] = int64(i*5 + 2)
		}
		golden.Check(t, fmt.Sprintf("seed=%d", seed), digestRun(t, p, pos, uint64(seed), func(e *sim.Engine) ([]SingleChannelResult, error) {
			return TDMAByID(e, pos, values, agg.Sum)
		}))
	}
}
