// Package coloring implements the node-coloring algorithm of Sec. 7: using
// the aggregation structure, every node receives a color such that no two
// communication-graph neighbors share one, with O(Δ) colors total, in
// O(Δ/F + log n log log n) rounds beyond structure construction
// (Theorem 24).
//
// Per cluster, four procedures run on the structure:
//
//  1. Followers deliver their IDs to reporters (the Sec. 6 follower
//     procedure), attaching each follower to exactly one reporter.
//  2. Reporters convergecast subtree sizes (1 + #followers) up the reporter
//     tree to the dominator.
//  3. The dominator distributes disjoint color-index ranges back down the
//     tree; each reporter receives an interval covering itself and its
//     followers.
//  4. Reporters announce one color index per follower on their channel.
//
// A node with index k in a cluster of color i takes the final color
// k·φ + i (the paper's color sequence {kφ + i}), so clusters within
// interference range use disjoint palettes and no two neighbors collide.
package coloring

import (
	"context"
	"math"
	"sort"

	"mcnet/internal/agg"
	"mcnet/internal/core"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// Assign announces a follower's color index within a cluster.
type Assign struct {
	Dom, To, Index int
}

// EventColored fires when a node learns its final color.
const EventColored = "colored"

// Config parameterizes the coloring run on top of a core.Plan.
type Config struct {
	// AssignCycles is how many times each reporter cycles through its
	// follower list in procedure 4.
	AssignCycles int
	// AssignSlackFactor adds ceil(factor·ln n̂) extra assignment rounds.
	AssignSlackFactor float64
}

// DefaultConfig returns the standard coloring configuration.
func DefaultConfig() Config {
	return Config{AssignCycles: 3, AssignSlackFactor: 8}
}

// Result is the per-node outcome.
type Result struct {
	// Color is the final color, or -1 if the node ended uncolored.
	Color int
	// Index is the within-cluster color index.
	Index int
	// ClusterColor is the cluster's TDMA color.
	ClusterColor int
	// IsDominator and IsReporter describe the node's structure role.
	IsDominator, IsReporter bool
}

// AssignRounds returns the length of procedure 4 in TDMA blocks.
func AssignRounds(pl *core.Plan, cfg Config) int {
	perChannel := int(math.Ceil(float64(pl.Cfg.DeltaHat) / float64(pl.Params.Channels)))
	return cfg.AssignCycles*perChannel + int(math.Ceil(cfg.AssignSlackFactor*pl.Params.LogN()))
}

// Run executes structure construction followed by the four coloring
// procedures, returning per-node colors. All protocol randomness flows from
// the engine's seed through the per-node ctx.Rand streams, so there is no
// separate coloring seed.
func Run(e *sim.Engine, pl *core.Plan, cfg Config) ([]Result, error) {
	return RunContext(context.Background(), e, pl, cfg)
}

// RunContext is like Run but aborts promptly with ctx.Err() when ctx is
// cancelled mid-run.
//
// The plan's Cfg.Exec decides how the node code executes, as in
// core.RunContext: goroutine programs, or — the default — the
// goroutine-free Stepper form (runStepped). The transcript is bit-identical
// either way.
func RunContext(ctx context.Context, e *sim.Engine, pl *core.Plan, cfg Config) ([]Result, error) {
	if pl.Cfg.Exec.Stepped() {
		return runStepped(ctx, e, pl, cfg)
	}
	n := e.Field().N()
	res := make([]Result, n)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		progs[i] = program(pl, cfg, i, res)
	}
	if _, err := e.RunContext(ctx, progs); err != nil {
		return nil, err
	}
	return res, nil
}

func program(pl *core.Plan, cfg Config, i int, res []Result) sim.Program {
	return func(ctx *sim.Ctx) {
		r := &res[i]
		r.Color, r.Index = -1, -1
		p := pl.Params

		// Structure construction (Sec. 5).
		st := pl.BuildStage(ctx)
		r.ClusterColor = st.Color
		r.IsDominator = st.IsDominator()

		// Procedure 1: followers send IDs to reporters.
		got, ackedOn := pl.FollowerStage(ctx, st, int64(ctx.ID()))
		r.IsReporter = st.IsReporter()

		followers := sortedFollowers(got)

		// Procedure 2: subtree counts up the reporter tree.
		cast := pl.CastConfig(st.Off)
		var up reporter.CastState
		subtree := int64(1 + len(followers))
		if st.Role >= 1 {
			up = reporter.RunCastUp(ctx, cast, st.Role, st.Dom.Dominator, subtree, agg.Sum)
		} else if st.Role == 0 {
			up = reporter.RunCastUp(ctx, cast, 0, st.Dom.Dominator, 0, agg.Sum)
		} else {
			reporter.IdleCast(ctx, cast)
		}

		// Procedure 3: color-index ranges down the reporter tree.
		var block [2]int64
		haveBlock := false
		if st.Role >= 0 {
			root := [2]int64{0, up.Value}
			block, haveBlock = reporter.RunCastDown(ctx, cast, st.Role, st.Dom.Dominator, up, root, indexSplit(subtree))
		} else {
			reporter.IdleCast(ctx, cast)
		}

		// Procedure 4: reporters announce follower indices; followers listen
		// on the channel whose reporter acknowledged them.
		var (
			stride  = pl.Cfg.PhiMax
			rounds  = AssignRounds(pl, cfg)
			memberR = pl.ClusterRadius()
		)
		switch {
		case st.Role == 0:
			// The dominator's index is one past the member total.
			r.Index = int(up.Value)
			colorOf(r, pl)
			ctx.Emit(EventColored, r.Color)
		case st.Role >= 1 && haveBlock:
			r.Index = int(block[0])
			colorOf(r, pl)
			ctx.Emit(EventColored, r.Color)
		}
		for round := 0; round < rounds; round++ {
			ctx.IdleFor(st.Off)
			switch {
			case st.Role >= 1 && haveBlock && len(followers) > 0:
				k := round % len(followers)
				ctx.Transmit(st.Role-1, Assign{
					Dom:   st.Dom.Dominator,
					To:    followers[k],
					Index: int(block[0]) + 1 + k,
				})
			case st.Role < 0 && r.Color < 0 && ackedOn >= 0:
				rec := ctx.Listen(ackedOn)
				if m, ok := rec.Msg.(Assign); ok && m.Dom == st.Dom.Dominator &&
					m.To == ctx.ID() && phy.SenderWithin(rec, p, memberR) {
					r.Index = m.Index
					colorOf(r, pl)
					ctx.Emit(EventColored, r.Color)
				}
			default:
				ctx.Idle()
			}
			ctx.IdleFor(stride - 1 - st.Off)
		}
	}
}

// sortedFollowers lists a reporter's followers in ascending ID order:
// procedure 4's announcement order must be deterministic.
func sortedFollowers(got map[int]int64) []int {
	followers := make([]int, 0, len(got))
	for id := range got {
		followers = append(followers, id)
	}
	sort.Ints(followers)
	return followers
}

// indexSplit is procedure 3's payload split for a node whose own subtree
// count is subtree: a reporter's own block covers itself plus its
// followers, its children's blocks follow in order, and the dominator
// consumes nothing here (it takes the index one past the total).
func indexSplit(subtree int64) reporter.SplitFunc {
	return func(j int, base bool, payload [2]int64, cv [2]int64, cs [2]bool) (self, left, right [2]int64) {
		lo := payload[0]
		if base && j != 0 {
			self = [2]int64{lo, subtree}
			lo += subtree
		}
		if cs[0] {
			left = [2]int64{lo, cv[0]}
			lo += cv[0]
		}
		if cs[1] {
			right = [2]int64{lo, cv[1]}
		}
		return self, left, right
	}
}

// colorOf finalizes the color k·φ + i from the within-cluster index and the
// cluster color.
func colorOf(r *Result, pl *core.Plan) {
	r.Color = paletteColor(pl, r.Index, r.ClusterColor)
}

// paletteColor is the color k·φ + i of within-cluster index k in a cluster
// of color clusterColor.
func paletteColor(pl *core.Plan, index, clusterColor int) int {
	phi := pl.Cfg.PhiMax
	cc := clusterColor % phi
	if cc < 0 {
		cc = 0
	}
	return index*phi + cc
}

// Validate checks a coloring against the communication graph: it returns
// the number of conflicting edges (neighbors sharing a color), the number
// of uncolored nodes, and the palette size (distinct colors).
func Validate(pos []geo.Point, radius float64, res []Result) (conflicts, uncolored, palette int) {
	g := graph.Build(pos, radius)
	seen := map[int]bool{}
	for i, r := range res {
		if r.Color < 0 {
			uncolored++
			continue
		}
		seen[r.Color] = true
		for _, j := range g.Neighbors(i) {
			if int(j) > i && res[j].Color == r.Color {
				conflicts++
			}
		}
	}
	return conflicts, uncolored, len(seen)
}
