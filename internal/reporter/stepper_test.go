package reporter

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// castStepper chains an up pass and a down pass as one sim.Stepper, the way
// the coloring stepper does.
type castStepper struct {
	up   CastUpFrag
	down *CastDownFrag
	cfg  CastConfig
}

func (s *castStepper) Step(sc *sim.StepCtx) {
	for {
		if s.down == nil {
			if !s.up.Feed(sc) {
				return
			}
			s.down = &CastDownFrag{
				Cfg: s.cfg, Role: s.up.Role, Dom: s.up.Dom, St: s.up.St,
				Root: [2]int64{0, s.up.St.Value}, Split: coloringSplit,
			}
			continue
		}
		if !s.down.Feed(sc) {
			return
		}
		sc.Done()
		return
	}
}

// TestCastDownFragMatchesRunCastDown is the differential test of the down
// pass: on random role sets with missing roles, CastDownFrag (after
// CastUpFrag) hands every node the same self-interval as RunCastDown (after
// RunCastUp), over the same transcript and slot count. Across the trials
// the role sets must produce left-child stand-ins, right-child takeovers and
// absent subtrees, so every Appendix A path of the retrace is compared.
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

		run := func(stepped bool) (selves [][2]int64, oks []bool, ups []CastState, slots int, transcript []string) {
			e := sim.NewEngine(phy.NewField(p, pos), seed)
			e.Trace = func(slot int, txs []phy.Tx, _ []phy.Rx, _ []phy.Reception) {
				transcript = append(transcript, fmt.Sprintf("%d:%v", slot, txs))
			}
			selves = make([][2]int64, len(roles))
			oks = make([]bool, len(roles))
			ups = make([]CastState, len(roles))
			var err error
			if stepped {
				steppers := make([]sim.Stepper, len(roles))
				arena := make([]castStepper, len(roles))
				for i := range arena {
					arena[i] = castStepper{up: CastUpFrag{Cfg: cfg, Role: roles[i], Value: values[i], Op: agg.Sum}, cfg: cfg}
					steppers[i] = &arena[i]
				}
				slots, err = e.RunSteppers(steppers)
				for i := range arena {
					ups[i] = arena[i].up.St
					if d := arena[i].down; d != nil {
						selves[i], oks[i] = d.Self, d.Ok
					}
				}
			} else {
				progs := make([]sim.Program, len(roles))
				for i := range progs {
					i := i
					progs[i] = func(ctx *sim.Ctx) {
						ups[i] = RunCastUp(ctx, cfg, roles[i], 0, values[i], agg.Sum)
						root := [2]int64{0, ups[i].Value}
						selves[i], oks[i] = RunCastDown(ctx, cfg, roles[i], 0, ups[i], root, coloringSplit)
					}
				}
				slots, err = e.Run(progs)
			}
			if err != nil {
				t.Fatal(err)
			}
			return selves, oks, ups, slots, transcript
		}
		gSelf, gOk, gUp, gSlots, gTr := run(false)
		sSelf, sOk, _, sSlots, sTr := run(true)

		if want := 2 * cfg.SlotBudget(); gSlots != want || sSlots != want {
			t.Fatalf("trial %d: slots goroutine %d, stepped %d, want 2·SlotBudget = %d", trial, gSlots, sSlots, want)
		}
		if !reflect.DeepEqual(gSelf, sSelf) || !reflect.DeepEqual(gOk, sOk) {
			t.Fatalf("trial %d roles %v: self-intervals differ\n goroutine %v %v\n stepped   %v %v",
				trial, roles, gSelf, gOk, sSelf, sOk)
		}
		if !reflect.DeepEqual(gTr, sTr) {
			t.Fatalf("trial %d roles %v: transcripts differ", trial, roles)
		}
		for i, st := range gUp {
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
