// TDMA substrate shared by the dplus1 and hsb backends.
//
// Both algorithms need a reliable local-broadcast primitive — every node
// periodically tells its communication-graph neighborhood something — which
// the paper's Sec. 7 procedures obtain from the aggregation structure. The
// alternative backends skip structure construction and instead schedule
// announcements by node ID: time is divided into sweeps of n̂ slots, node v
// transmits in sweep slot v mod n̂ on channel (v mod n̂) mod F, and every
// other node listens on that slot's channel. With n̂ ≥ n at most one node
// transmits per slot network-wide, so every in-range announcement decodes
// (single-transmitter SINR is noise-limited inside R_T) and each sweep is a
// deterministic full neighborhood exchange in n̂ slots — the information-
// theoretic Δ lower bound for local broadcast up to the n̂/Δ slack.
//
// All nodes execute whole sweeps, so they stay slot-aligned without any
// shared state: a node in sweep k is at global slot k·n̂ + s regardless of
// which protocol phase it is in, and nodes in different phases simply ignore
// each other's message types until they catch up. When n̂ < n (a deliberately
// lying NEstimate), announcement slots collide and the backends degrade to
// best-effort — the same contract the Sec. 7 procedures have.
package coloring

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// hello is the discovery-sweep announcement.
type hello struct {
	From int
}

// trialMsg is one node's per-epoch coloring announcement: a tentative
// candidate (Final false, with the epoch's symmetry-breaking rank) or a
// committed color (Final true).
type trialMsg struct {
	From  int
	Rank  uint64
	Color int
	Final bool
}

// misMsg is one node's per-epoch maximal-independent-set announcement for
// the hsb backend's symmetry-breaking phase.
type misMsg struct {
	From  int
	Rank  uint64
	State uint8 // misUndecided, misLeader or misCovered
}

const (
	misUndecided uint8 = iota
	misLeader
	misCovered
)

// sweepLen is the TDMA sweep length: the node-ID size estimate, the only
// global quantity nodes are allowed to know.
func sweepLen(p model.Params) int {
	c := p.NEstimate
	if c < 2 {
		c = 2
	}
	return c
}

// sweep is the TDMA substrate compiled once per run: the sweep length, the
// channel count and the R_ε reception filter.
type sweep struct {
	cycle, channels int
	reach           phy.Reach
}

func newSweep(p model.Params) *sweep {
	return &sweep{cycle: sweepLen(p), channels: p.Channels, reach: phy.NewReach(p, p.REps())}
}

// trialEpochCap bounds a node's trial epochs: logarithmic in n̂ for the
// expected O(log n) convergence of rank-based trials, plus the node's
// degree to cover the deterministic at-least-one-commit-per-epoch worst
// case among palette-starved neighborhoods.
func (sw *sweep) trialEpochCap(deg int) int {
	return 24 + 8*bits.Len(uint(sw.cycle)) + deg
}

// hearer consumes the messages a sweep delivers.
type hearer interface {
	hear(rec phy.Reception)
}

// sweepFrag is one TDMA sweep as a sim.Frag: the node transmits msg in its
// own sweep slot and listens on every other slot's channel, passing each
// message decoded from within the communication radius R_ε to h. It
// consumes exactly sw.cycle slots, keeping all nodes sweep-aligned.
type sweepFrag struct {
	sw  *sweep
	msg any
	h   hearer

	s     int
	await bool
}

// Feed implements sim.Frag.
func (f *sweepFrag) Feed(sc *sim.StepCtx) bool {
	if f.await {
		f.await = false
		if rec := sc.Prev(); f.sw.reach.Within(rec) {
			f.h.hear(rec)
		}
	}
	if f.s >= f.sw.cycle {
		return true
	}
	s := f.s
	f.s++
	ch := s % f.sw.channels
	if s == sc.ID()%f.sw.cycle {
		sc.Transmit(ch, f.msg)
		return false
	}
	sc.Listen(ch)
	f.await = true
	return false
}

// discovery is the hello sweep that learns a node's neighborhood: with
// n̂ ≥ n it is collision-free, so nbs ends as the node's exact
// communication-graph neighborhood. Call sorted once the sweep is over.
type discovery struct {
	sweepFrag
	seen map[int]bool
	nbs  []int
}

func newDiscovery(id int, sw *sweep) *discovery {
	d := &discovery{seen: make(map[int]bool)}
	d.sweepFrag = sweepFrag{sw: sw, msg: hello{From: id}, h: d}
	return d
}

func (d *discovery) hear(rec phy.Reception) {
	if m, ok := rec.Msg.(hello); ok && !d.seen[m.From] {
		d.seen[m.From] = true
		d.nbs = append(d.nbs, m.From)
	}
}

// sorted returns the discovered neighbor IDs in ascending order.
func (d *discovery) sorted() []int {
	sort.Ints(d.nbs)
	return d.nbs
}

// epochProto is one epoch-structured protocol phase: begin opens an epoch
// and returns the node's announcement for its sweep; hear observes the
// sweep's messages; end closes the epoch and reports whether the phase is
// over.
type epochProto interface {
	hearer
	begin(sc *sim.StepCtx) any
	end(sc *sim.StepCtx) bool
}

// epochLoop drives an epochProto through whole-sweep epochs, at most cap of
// them; epoch is the number started so far.
type epochLoop struct {
	sw         *sweep
	cap, epoch int
	sweep      sweepFrag
	inSweep    bool
}

// feed advances p by one slot, like sim.Frag.Feed.
func (l *epochLoop) feed(sc *sim.StepCtx, p epochProto) bool {
	for {
		if l.inSweep {
			if !l.sweep.Feed(sc) {
				return false
			}
			l.inSweep = false
			if p.end(sc) {
				return true
			}
		}
		if l.epoch >= l.cap {
			return true
		}
		l.epoch++
		l.sweep = sweepFrag{sw: l.sw, msg: p.begin(sc), h: p}
		l.inSweep = true
	}
}

// trialFrag runs rank-based palette trial epochs until the node has
// committed a color and heard a commitment from every neighbor — the point
// at which leaving the air cannot strand anyone — or until the epoch cap.
// r.Color may arrive pre-committed (the hsb leaders). Once Feed returns
// true, epochLoop.epoch is the number of epochs executed.
type trialFrag struct {
	epochLoop
	id  int
	nbs []int
	r   *Result
	// taken accumulates the colors neighbors have committed, finals the
	// neighbors that committed.
	taken, finals map[int]bool
	// deg sizes the palette {0..deg}: the discovered neighbors plus every
	// undiscovered one heard committing. A lossy discovery sweep can miss a
	// neighbor whose commitment still arrives later, and counting it keeps
	// a free color in the palette.
	deg int

	wasFinal  bool
	candidate int
	rank      uint64
	lost      bool
}

// newTrialFrag returns node id's trial loop over its discovered neighbors
// nbs, capped at trialEpochCap epochs.
func newTrialFrag(id int, sw *sweep, nbs []int, r *Result) *trialFrag {
	return &trialFrag{
		epochLoop: epochLoop{sw: sw, cap: sw.trialEpochCap(len(nbs))},
		id:        id, nbs: nbs, r: r, deg: len(nbs),
		taken:  make(map[int]bool, len(nbs)),
		finals: make(map[int]bool, len(nbs)),
	}
}

// Feed implements sim.Frag.
func (f *trialFrag) Feed(sc *sim.StepCtx) bool { return f.feed(sc, f) }

// begin announces the node's state as of the epoch start: a commitment
// only counts as heard once a full sweep carried it, so the exit in end
// never strands a neighbor still waiting for it.
func (f *trialFrag) begin(sc *sim.StepCtx) any {
	f.wasFinal = f.r.Color >= 0
	f.candidate, f.rank, f.lost = f.r.Color, 0, false
	if !f.wasFinal {
		f.candidate = pickFree(sc.Rand, f.deg, f.taken)
		f.rank = sc.Rand.Uint64()
	}
	return trialMsg{From: f.id, Rank: f.rank, Color: f.candidate, Final: f.wasFinal}
}

func (f *trialFrag) end(sc *sim.StepCtx) bool {
	if !f.wasFinal && !f.lost {
		f.r.Color = f.candidate
		sc.Emit(EventColored, f.r.Color)
	}
	return f.wasFinal && allMarked(f.nbs, f.finals)
}

func (f *trialFrag) hear(rec phy.Reception) {
	m, ok := rec.Msg.(trialMsg)
	if !ok {
		return // a neighbor still in another protocol phase
	}
	if m.Final {
		if _, discovered := slices.BinarySearch(f.nbs, m.From); !discovered && !f.finals[m.From] {
			f.deg++
		}
		f.finals[m.From] = true
		f.taken[m.Color] = true
		if !f.wasFinal && m.Color == f.candidate {
			f.lost = true
		}
		return
	}
	if !f.wasFinal && m.Color == f.candidate &&
		(m.Rank < f.rank || (m.Rank == f.rank && m.From < f.id)) {
		f.lost = true
	}
}

// pickFree draws a uniformly random color from {0..deg} minus the colors
// already committed by neighbors. Each of the at most deg committed
// neighbors takes one color, so the free set is never empty — the
// degree+1 list-coloring invariant.
func pickFree(rnd *rand.Rand, deg int, taken map[int]bool) int {
	free := make([]int, 0, deg+1)
	for c := 0; c <= deg; c++ {
		if !taken[c] {
			free = append(free, c)
		}
	}
	return free[rnd.Intn(len(free))]
}

// allMarked reports whether every listed neighbor is marked in m.
func allMarked(nbs []int, m map[int]bool) bool {
	for _, v := range nbs {
		if !m[v] {
			return false
		}
	}
	return true
}

// backendRun drives one Stepper per node of a sweep backend over the
// substrate compiled for the engine's field, and returns the per-node
// results, which start uncolored (-1 everywhere) so a node that crashes
// before acting reports no color.
func backendRun(goctx context.Context, e *sim.Engine, mk func(id int, sw *sweep, r *Result, epochs *int) sim.Stepper) ([]Result, []int, error) {
	n := e.Field().N()
	sw := newSweep(e.Field().Params())
	res := make([]Result, n)
	epochs := make([]int, n)
	steppers := make([]sim.Stepper, n)
	for i := range res {
		res[i].Color, res[i].Index, res[i].ClusterColor = -1, -1, -1
		steppers[i] = mk(i, sw, &res[i], &epochs[i])
	}
	if _, err := e.RunContext(goctx, steppers); err != nil {
		return nil, nil, err
	}
	return res, epochs, nil
}
