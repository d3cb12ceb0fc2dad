package baseline

import (
	"sort"

	"mcnet/internal/agg"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/sim"
)

// tdmaSchedule is TDMAByID's centralized round-robin plan: BFS parents plus
// each node's up- and down-pass slot.
type tdmaSchedule struct {
	n                int
	parent, dist     []int
	upSlot, downSlot []int
}

func buildTDMASchedule(pos []geo.Point, radius float64) tdmaSchedule {
	n := len(pos)
	g := graph.Build(pos, radius)
	dist := g.BFS(0)
	parent := bfsParents(g, dist)

	// Reverse-BFS order for the up pass; BFS order for the down pass.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := dist[order[a]], dist[order[b]]
		if da == -1 {
			da = 1 << 30
		}
		if db == -1 {
			db = 1 << 30
		}
		return da > db
	})
	upSlot := make([]int, n)
	downSlot := make([]int, n)
	for t, node := range order {
		upSlot[node] = t
		downSlot[node] = 2*n - 1 - t
	}
	return tdmaSchedule{n: n, parent: parent, dist: dist, upSlot: upSlot, downSlot: downSlot}
}

// tdmaStepper is one TDMAByID node: it transmits in its own up- and
// down-pass slots and listens in every other. No randomness is involved.
// It reads only decoded receptions, so each listen runs as one ListenFor
// to its next own slot or the end of the pass (the sim batch rule).
type tdmaStepper struct {
	sched *tdmaSchedule
	op    agg.Op
	out   []SingleChannelResult

	have      int64
	result    int64
	gotResult bool
	await     uint8 // 0 none, 1 up-pass listen, 2 down-pass listen
}

// Step implements sim.Stepper.
func (s *tdmaStepper) Step(sc *sim.StepCtx) {
	i := sc.ID()
	switch s.await {
	case 1:
		if m, ok := sc.Prev().Msg.(upMsg); ok && m.To == i {
			s.have = s.op.Combine(s.have, m.Value)
		}
	case 2:
		if m, ok := sc.Prev().Msg.(downMsg); ok && !s.gotResult {
			s.result, s.gotResult = m.Value, true
		}
	}
	s.await = 0
	sd := s.sched
	t := sc.Slot()
	if t >= 2*sd.n {
		if i == 0 && !s.gotResult {
			s.result, s.gotResult = s.have, true
		}
		if !s.gotResult {
			s.result = s.have // disconnected: own component partial
			s.gotResult = true
		}
		s.out[i] = SingleChannelResult{Value: s.result, Done: s.gotResult}
		sc.Done()
		return
	}
	switch {
	case t == sd.upSlot[i] && sd.parent[i] >= 0:
		sc.Transmit(0, upMsg{To: sd.parent[i], Value: s.have})
	case t == sd.downSlot[i] && (s.gotResult || (i == 0 && sd.dist[i] == 0)):
		if i == 0 {
			s.result, s.gotResult = s.have, true
		}
		sc.Transmit(0, downMsg{Value: s.result})
	case t < sd.n:
		sc.ListenFor(0, until(t, sd.upSlot[i], sd.n))
		s.await = 1
	default:
		sc.ListenFor(0, until(t, sd.downSlot[i], 2*sd.n))
		s.await = 2
	}
}

// until returns the slots from t to the node's own slot in the current
// pass if that is still ahead, else to the pass's end.
func until(t, own, end int) int {
	if own > t {
		return own - t
	}
	return end - t
}
