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

	"mcnet/internal/core"
	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/model"
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

// RunContext executes structure construction followed by the four coloring
// procedures, returning per-node colors, and aborts promptly with ctx.Err()
// when ctx is cancelled mid-run. All protocol randomness flows from the
// engine's seed through the per-node ctx.Rand streams, so there is no
// separate coloring seed.
func RunContext(ctx context.Context, e *sim.Engine, pl *core.Plan, cfg Config) ([]Result, error) {
	n := e.Field().N()
	rounds := AssignRounds(pl, cfg)
	steppers := make([]sim.Stepper, n)
	arena := make([]sec7Stepper, n) // one allocation for all nodes
	for i := 0; i < n; i++ {
		// Procedure 1 delivers IDs, so a node's follower value is its ID.
		arena[i] = sec7Stepper{build: core.BuildFrag{Pl: pl, Value: int64(i)}, rounds: rounds}
		steppers[i] = &arena[i]
	}
	if _, err := e.RunContext(ctx, steppers); err != nil {
		return nil, err
	}
	res := make([]Result, n)
	for i := range arena {
		arena[i].result(&res[i])
	}
	return res, nil
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

// VerifyTDMA uses colors as a single-channel TDMA broadcast schedule — in
// cycle slot t, the nodes with color t transmit — and resolves every slot
// over the SINR layer. It returns how many directed communication-graph
// links (at R_ε) decoded their neighbor's broadcast, and how many such
// links there are. Nodes with a negative color are unscheduled: they only
// listen, so their outgoing links cannot deliver. A proper coloring
// delivers every link in one cycle.
func VerifyTDMA(pos []geo.Point, p model.Params, colors []int) (delivered, links int) {
	g := graph.Build(pos, p.REps())
	field := phy.NewField(p.WithChannels(1), pos)
	// Only slots that schedule at least one transmitter can deliver, so
	// resolve the distinct colors rather than every slot of the cycle: a
	// sparse palette (or one stray huge color) costs per color in use
	// instead of per cycle slot.
	var slots []int
	inUse := make(map[int]bool, len(colors))
	for _, c := range colors {
		if c >= 0 && !inUse[c] {
			inUse[c] = true
			slots = append(slots, c)
		}
	}
	sort.Ints(slots)
	for _, slot := range slots {
		var txs []phy.Tx
		var rxs []phy.Rx
		for i, c := range colors {
			if c == slot {
				txs = append(txs, phy.Tx{Node: i, Channel: 0, Msg: i})
			} else {
				rxs = append(rxs, phy.Rx{Node: i, Channel: 0})
			}
		}
		for k, rec := range field.Resolve(txs, rxs) {
			if !rec.Decoded {
				continue
			}
			for _, nb := range g.Neighbors(rxs[k].Node) {
				if int(nb) == rec.From {
					delivered++
				}
			}
		}
	}
	for i := range pos {
		links += g.Degree(i)
	}
	return delivered, links
}
