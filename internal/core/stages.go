package core

import (
	"mcnet/internal/dominate"
	"mcnet/internal/reporter"
)

// Structure is a node's place in the aggregation structure after the build
// stages (Sec. 5): clustering, cluster color, size estimate, and channel
// role.
type Structure struct {
	// Dom is the dominating-set outcome (cluster head assignment).
	Dom dominate.Outcome
	// Color is the cluster's TDMA color; Off = Color mod PhiMax is the
	// node's TDMA offset.
	Color, Off int
	// Est is the cluster-size estimate from CSA.
	Est int
	// Fv is the number of channels the cluster uses.
	Fv int
	// Role is the node's reporter-tree role: 0 = dominator, ≥ 1 = reporter
	// on channel Role-1, -1 = follower.
	Role int
	// Channel is the channel the node chose at election (-1 for
	// dominators).
	Channel int
}

// IsDominator reports whether the node heads its cluster.
func (s Structure) IsDominator() bool { return s.Role == 0 }

// IsReporter reports whether the node is a channel reporter.
func (s Structure) IsReporter() bool { return s.Role >= 1 }

// CastConfig returns the reporter-tree cast configuration for the node's
// TDMA offset.
func (pl *Plan) CastConfig(off int) reporter.CastConfig {
	cast := reporter.DefaultCastConfig(pl.Params.Channels, pl.ClusterRadius())
	cast.Stride, cast.Offset = pl.Cfg.PhiMax, off
	return cast
}
