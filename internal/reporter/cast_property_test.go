package reporter

import (
	"math/rand"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// TestCastUpPropertyRandomSubsets checks the central invariant of the
// reporter tree with Appendix A takeovers: for ANY subset of present roles,
// the dominator's final value equals the fold of every present node's value
// — missing roles never lose a present node's contribution.
func TestCastUpPropertyRandomSubsets(t *testing.T) {
	const channels = 8
	for trial := 0; trial < 60; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial)))
		// Random subset of roles 1..channels; the dominator (role 0) is
		// always present.
		var roles []int
		roles = append(roles, 0)
		for k := 1; k <= channels; k++ {
			if rnd.Intn(2) == 0 {
				roles = append(roles, k)
			}
		}
		values := make([]int64, len(roles))
		var want int64
		for i := range values {
			values[i] = int64(rnd.Intn(1000) + 1)
			want += values[i]
		}

		// One node per present role, all inside a tiny disk.
		pos := make([]geo.Point, len(roles))
		for i := 1; i < len(pos); i++ {
			pos[i] = geo.Point{
				X: (rnd.Float64()*2 - 1) * 0.03,
				Y: (rnd.Float64()*2 - 1) * 0.03,
			}
		}
		p := model.Default(channels, 64)
		e := sim.NewEngine(phy.NewField(p, pos), uint64(trial)+1)
		states, _, _, _ := castRun(t, e, 1, 0, roles, values, agg.Sum, false)
		if got := states[0].Value; got != want {
			t.Errorf("trial %d roles %v: root value %d, want %d", trial, roles, got, want)
		}
	}
}

// TestCastDownPropertyRandomSubsets checks the distribution invariant: after
// an up pass with unit values, the down pass hands every present reporter a
// distinct index inside [0, count).
func TestCastDownPropertyRandomSubsets(t *testing.T) {
	const channels = 8
	for trial := 0; trial < 40; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial) + 500))
		roles := []int{0}
		for k := 1; k <= channels; k++ {
			if rnd.Intn(3) > 0 { // keep most roles so trees get deep
				roles = append(roles, k)
			}
		}
		values := make([]int64, len(roles))
		for i := 1; i < len(roles); i++ {
			values[i] = 1
		}
		pos := make([]geo.Point, len(roles))
		for i := 1; i < len(pos); i++ {
			pos[i] = geo.Point{
				X: (rnd.Float64()*2 - 1) * 0.03,
				Y: (rnd.Float64()*2 - 1) * 0.03,
			}
		}
		p := model.Default(channels, 64)
		e := sim.NewEngine(phy.NewField(p, pos), uint64(trial)+7)
		ups, payloads, oks, _ := castRun(t, e, 1, 0, roles, values, agg.Sum, true)
		rootTotal := ups[0].Value
		reporters := len(roles) - 1
		if rootTotal != int64(reporters) {
			t.Errorf("trial %d: root total %d, want %d", trial, rootTotal, reporters)
			continue
		}
		seen := map[int64]bool{}
		for i := 1; i < len(roles); i++ {
			if !oks[i] {
				t.Errorf("trial %d roles %v: role %d got no payload", trial, roles, roles[i])
				continue
			}
			start := payloads[i][0]
			if start < 0 || start >= int64(reporters) {
				t.Errorf("trial %d: role %d start %d outside [0, %d)", trial, roles[i], start, reporters)
			}
			if seen[start] {
				t.Errorf("trial %d roles %v: duplicate index %d", trial, roles, start)
			}
			seen[start] = true
		}
	}
}
