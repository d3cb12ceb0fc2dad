package mcnet

import (
	"fmt"
	"math"
	"math/rand"

	"mcnet/internal/geo"
	"mcnet/internal/graph"
	"mcnet/internal/topology"
)

// Point is a node position in the plane.
type Point struct {
	X, Y float64
}

// Geometry exposes the radii derived from the SINR parameters that topology
// generators and sizing heuristics need.
type Geometry struct {
	// TransmissionRange is R_T: the maximum decoding distance absent
	// interference.
	TransmissionRange float64
	// CommRadius is R_ε = (1-ε)·R_T: the communication-graph link radius.
	CommRadius float64
	// ClusterRadius is r_c: the dominating-set radius of the aggregation
	// structure (Sec. 5.1.1).
	ClusterRadius float64
}

// Defaults are the pipeline sizing parameters a topology derives for an
// n-node instance: New takes Δ̂, φ and the hop bound from here and nowhere
// else. Zero fields mean "no opinion" and fall back to generic values.
type Defaults struct {
	// DeltaHat bounds cluster sizes (the paper's Δ̂), sizing the CSA and
	// follower stages.
	DeltaHat int
	// PhiMax is the TDMA period: an upper bound on cluster colors in use.
	PhiMax int
	// HopBound bounds the backbone hop diameter, sizing backbone budgets.
	HopBound int
}

// Topology produces node placements and derives pipeline sizing for them.
// Implementations must be deterministic functions of (n, seed, geometry).
//
// The built-in topologies (Crowd, Uniform, Grid, Line, Chain, Corridor,
// Ring, Hotspot, Positions) cover the paper's experiment workloads; custom
// implementations plug in the same way.
type Topology interface {
	// Name identifies the topology in reports.
	Name() string
	// Layout returns the node positions. It may return a different count
	// than n when the shape dictates one (e.g. Hotspot's clusters×size);
	// the network then uses len(result) nodes.
	Layout(n int, seed uint64, g Geometry) []Point
	// Defaults derives pipeline sizing for an n-node instance.
	Defaults(n int, g Geometry) Defaults
}

// topologyValidator lets parameterized built-ins reject out-of-range
// constructor arguments from New with a descriptive error instead of
// silently substituting a geometry.
type topologyValidator interface{ validate() error }

// layoutRand is the shared layout-stream derivation, so facade layouts
// match experiment-suite layouts for equal seeds.
func layoutRand(seed uint64) *rand.Rand { return topology.LayoutRand(seed) }

func fromGeo(pts []geo.Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{X: p.X, Y: p.Y}
	}
	return out
}

func toGeo(pts []Point) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return out
}

// Crowd is the paper's motivating dense workload: every node inside one
// cluster radius (Δ = n-1), isolating the Δ/F aggregation term. It is the
// default topology of New.
var Crowd Topology = crowdTopo{}

type crowdTopo struct{}

func (crowdTopo) Name() string { return "crowd" }

func (crowdTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.Crowd(layoutRand(seed), n, g.ClusterRadius))
}

func (crowdTopo) Defaults(n int, g Geometry) Defaults {
	// One dense cluster: the cluster can hold everyone, few cluster colors
	// are in use, and the backbone is a single hop neighborhood.
	return Defaults{DeltaHat: n, PhiMax: 4, HopBound: 2}
}

// Uniform places nodes uniformly in a square sized for the given expected
// communication-graph degree: the constant-density workhorse workload.
func Uniform(targetDegree float64) Topology { return uniformTopo{deg: targetDegree} }

type uniformTopo struct{ deg float64 }

func (t uniformTopo) Name() string { return "uniform" }

func (t uniformTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.UniformDegree(layoutRand(seed), n, g.CommRadius, t.deg))
}

func (t uniformTopo) Defaults(n int, g Geometry) Defaults {
	// The same side/degree computation the layout uses, so sizing cannot
	// drift from placement.
	side, deg := topology.UniformSide(n, g.CommRadius, t.deg)
	// Cluster sizes track local density; leave slack over the expectation.
	deltaHat := clampInt(int(math.Ceil(4*deg)), 2, n)
	// Hop diameter tracks the square's diagonal in communication radii.
	hops := int(math.Ceil(side * math.Sqrt2 / g.CommRadius))
	return Defaults{DeltaHat: deltaHat, PhiMax: 10, HopBound: hops + 4}
}

// Grid places nodes on a √n × √n grid with spacing half the communication
// radius, jittered by ±10% of the radius.
var Grid Topology = gridTopo{}

type gridTopo struct{}

func (gridTopo) Name() string { return "grid" }

func (gridTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.PerturbedGrid(layoutRand(seed), n, 0.5*g.CommRadius, 0.1*g.CommRadius))
}

func (gridTopo) Defaults(n int, g Geometry) Defaults {
	// Spacing 0.5·R_ε puts ~π·2² ≈ 12 grid points within one radius.
	side := math.Ceil(math.Sqrt(float64(n))) * 0.5 * g.CommRadius
	hops := int(math.Ceil(side * math.Sqrt2 / g.CommRadius))
	return Defaults{DeltaHat: clampInt(16, 2, n), PhiMax: 10, HopBound: hops + 4}
}

// Line places nodes on the x-axis spaced by the given fraction (in (0, 1])
// of the communication radius: the maximum-diameter connected workload.
func Line(spacingFrac float64) Topology { return lineTopo{frac: spacingFrac} }

type lineTopo struct{ frac float64 }

func (t lineTopo) Name() string { return "line" }

func (t lineTopo) validate() error {
	if t.frac <= 0 || t.frac > 1 {
		return fmt.Errorf("mcnet: Line spacing fraction = %v must be in (0, 1]", t.frac)
	}
	return nil
}

func (t lineTopo) spacing(g Geometry) float64 { return t.frac * g.CommRadius }

func (t lineTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.Line(n, t.spacing(g)))
}

func (t lineTopo) Defaults(n int, g Geometry) Defaults {
	s := t.spacing(g)
	perRadius := int(math.Ceil(2*g.CommRadius/s)) + 1
	hops := int(math.Ceil(float64(n) * s / g.CommRadius))
	return Defaults{
		DeltaHat: clampInt(perRadius, 2, n),
		PhiMax:   10,
		HopBound: hops + 4,
	}
}

// Chain is the exponential chain x_i = 2^i: the Sec. 1 lower-bound instance
// on which sink-directed transmissions serialize. It is intended for
// topology inspection and the E8 experiment; the aggregation pipeline
// assumes connectivity this instance lacks under default power.
var Chain Topology = chainTopo{}

type chainTopo struct{}

func (chainTopo) Name() string { return "chain" }

func (chainTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.ExponentialChain(n, 1))
}

func (chainTopo) Defaults(n int, g Geometry) Defaults {
	return Defaults{DeltaHat: n, PhiMax: 4, HopBound: max(2, n)}
}

// Corridor places nodes uniformly in a strip of the given length (in
// communication radii) and width 0.6 radii: the growing-diameter workload
// for the D term of Theorem 22.
func Corridor(lengthRadii int) Topology { return corridorTopo{length: lengthRadii} }

type corridorTopo struct{ length int }

func (t corridorTopo) Name() string { return "corridor" }

func (t corridorTopo) validate() error {
	if t.length < 1 {
		return fmt.Errorf("mcnet: Corridor length = %d must be ≥ 1 communication radius", t.length)
	}
	return nil
}

func (t corridorTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.Corridor(layoutRand(seed), n, float64(t.length)*g.CommRadius, 0.6*g.CommRadius))
}

func (t corridorTopo) Defaults(n int, g Geometry) Defaults {
	// The E10 sizing: narrow strips keep clusters small, need one cluster
	// color per corridor cell, and the backbone walks the strip.
	return Defaults{
		DeltaHat: clampInt(24, 2, n),
		PhiMax:   24,
		HopBound: 3*t.length + 6,
	}
}

// Ring places nodes evenly on a circle with the given spacing as a fraction
// (in (0, 1]) of the communication radius.
func Ring(spacingFrac float64) Topology { return ringTopo{frac: spacingFrac} }

type ringTopo struct{ frac float64 }

func (t ringTopo) Name() string { return "ring" }

func (t ringTopo) validate() error {
	if t.frac <= 0 || t.frac > 1 {
		return fmt.Errorf("mcnet: Ring spacing fraction = %v must be in (0, 1]", t.frac)
	}
	return nil
}

func (t ringTopo) spacing(g Geometry) float64 { return t.frac * g.CommRadius }

func (t ringTopo) Layout(n int, seed uint64, g Geometry) []Point {
	radius := float64(n) * t.spacing(g) / (2 * math.Pi)
	return fromGeo(topology.Ring(n, radius))
}

func (t ringTopo) Defaults(n int, g Geometry) Defaults {
	s := t.spacing(g)
	perRadius := int(math.Ceil(2*g.CommRadius/s)) + 1
	hops := int(math.Ceil(float64(n)*s/g.CommRadius))/2 + 1
	return Defaults{
		DeltaHat: clampInt(perRadius, 2, n),
		PhiMax:   10,
		HopBound: hops + 4,
	}
}

// Hotspot places clusters of Gaussian blobs: centers uniform in a
// span × span square (in communication radii), members with the given
// standard deviation (also in radii). The node count is
// clusters × perCluster regardless of the n passed to New.
func Hotspot(clusters, perCluster int, spanRadii, stddevRadii float64) Topology {
	return hotspotTopo{clusters: clusters, per: perCluster, span: spanRadii, stddev: stddevRadii}
}

type hotspotTopo struct {
	clusters, per int
	span, stddev  float64
}

func (t hotspotTopo) Name() string { return "hotspot" }

func (t hotspotTopo) validate() error {
	switch {
	case t.clusters < 1 || t.per < 1:
		return fmt.Errorf("mcnet: Hotspot needs ≥ 1 cluster of ≥ 1 node, got %d × %d", t.clusters, t.per)
	case t.span <= 0:
		return fmt.Errorf("mcnet: Hotspot span = %v must be positive", t.span)
	case t.stddev < 0:
		return fmt.Errorf("mcnet: Hotspot stddev = %v must be ≥ 0", t.stddev)
	}
	return nil
}

func (t hotspotTopo) Layout(n int, seed uint64, g Geometry) []Point {
	return fromGeo(topology.Hotspot(layoutRand(seed), t.clusters, t.per,
		t.span*g.CommRadius, t.stddev*g.CommRadius))
}

func (t hotspotTopo) Defaults(n int, g Geometry) Defaults {
	// Centers spread over a span × span square (in radii): the backbone
	// walks at most its diagonal.
	hops := int(math.Ceil(math.Max(t.span, 1) * math.Sqrt2))
	return Defaults{
		DeltaHat: clampInt(2*t.per, 2, t.clusters*t.per),
		PhiMax:   10,
		HopBound: hops + 4,
	}
}

// Positions wraps explicit node coordinates as a Topology. The pipeline
// sizing is measured from the induced communication graph (max degree and
// approximate diameter), so callers need not guess DeltaHat or HopBound for
// irregular deployments.
func Positions(pts []Point) Topology { return positionsTopo{pts: pts} }

type positionsTopo struct{ pts []Point }

func (t positionsTopo) Name() string { return "positions" }

func (t positionsTopo) Layout(n int, seed uint64, g Geometry) []Point {
	out := make([]Point, len(t.pts))
	copy(out, t.pts)
	return out
}

func (t positionsTopo) Defaults(n int, g Geometry) Defaults {
	if len(t.pts) == 0 {
		return Defaults{}
	}
	gr := graph.Build(toGeo(t.pts), g.CommRadius)
	diam := gr.DiameterApprox()
	if diam < 0 { // disconnected: bound by the node count
		diam = len(t.pts)
	}
	return Defaults{
		DeltaHat: clampInt(gr.MaxDegree()+1, 2, len(t.pts)),
		PhiMax:   10,
		HopBound: diam + 4,
	}
}

func clampInt(v, lo, hi int) int { return min(max(v, lo), hi) }
