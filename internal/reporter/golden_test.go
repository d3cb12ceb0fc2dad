package reporter

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
)

// TestCastDownFragMatchesRunCastDown pins the up and down passes on random
// role sets with missing roles: every node's up-pass state and
// self-interval, the transcript and the slot count (2·SlotBudget) match
// the golden the goroutine engine recorded. Across the trials the role sets
// must produce left-child stand-ins, right-child takeovers and absent
// subtrees, so every Appendix A path of the retrace is covered.
func TestCastDownFragMatchesRunCastDown(t *testing.T) {
	const channels = 8
	var standIns, takeovers, absent int
	for trial := 0; trial < 80; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial) + 900))
		roles := []int{0}
		present := map[int]bool{0: true}
		for k := 1; k <= channels; k++ {
			if rnd.Intn(2) == 0 {
				roles = append(roles, k)
				present[k] = true
			}
		}
		for k := 1; k <= channels; k++ {
			for _, c := range []int{2 * k, 2*k + 1} {
				if present[k] && c <= channels && !subtreePresent(c, channels, present) {
					absent++
				}
			}
		}
		values := make([]int64, len(roles))
		for i := range values {
			values[i] = int64(rnd.Intn(5) + 1)
		}
		pos := make([]geo.Point, len(roles))
		for i := 1; i < len(pos); i++ {
			pos[i] = geo.Point{X: (rnd.Float64()*2 - 1) * 0.03, Y: (rnd.Float64()*2 - 1) * 0.03}
		}
		p := model.Default(channels, 64)
		cfg := DefaultCastConfig(channels, 0.14)
		if trial%2 == 1 {
			cfg.Stride, cfg.Offset = 3, trial%3 // exercise the TDMA idles
		}
		seed := uint64(trial) + 1

		e := sim.NewEngine(phy.NewField(p, pos), seed)
		rec := golden.NewRecorder()
		e.Trace = rec.Trace
		ups, selves, oks, slots := castRun(t, e, cfg, roles, values, agg.Sum, true)
		if want := 2 * cfg.SlotBudget(); slots != want {
			t.Fatalf("trial %d: %d slots, want 2·SlotBudget = %d", trial, slots, want)
		}
		golden.Check(t, fmt.Sprintf("trial=%02d", trial), rec.Digest(t, struct {
			Selves [][2]int64
			Oks    []bool
			Ups    []CastState
		}{selves, oks, ups}))
		for i, st := range ups {
			if roles[i] < 1 || len(st.Chain) < 2 {
				continue
			}
			if roles[i]%2 == 0 {
				standIns++
			} else {
				takeovers++
			}
		}
	}
	if standIns == 0 || takeovers == 0 || absent == 0 {
		t.Fatalf("role sets missed a path: %d stand-ins, %d right-child takeovers, %d absent subtrees",
			standIns, takeovers, absent)
	}
}

// subtreePresent reports whether any role in the heap subtree rooted at k
// (roles ≤ f) is present.
func subtreePresent(k, f int, present map[int]bool) bool {
	if k > f {
		return false
	}
	return present[k] || subtreePresent(2*k, f, present) || subtreePresent(2*k+1, f, present)
}
