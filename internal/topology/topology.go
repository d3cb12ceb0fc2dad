// Package topology generates node placements for the experiment suite.
//
// All generators are deterministic functions of their explicit *rand.Rand
// (or parameter-free), so experiments are reproducible from a seed.
package topology

import (
	"math"
	"math/rand"

	"mcnet/internal/geo"
	"mcnet/internal/rng"
)

// LayoutRand derives the topology-generation stream from a run seed, kept
// separate from the protocol seed space. Both the experiment suite and the
// public facade use it, so equal seeds yield equal layouts everywhere.
func LayoutRand(seed uint64) *rand.Rand {
	return rng.New(rng.Mix(seed, 0x70706f6c6f6779)) // "topology"
}

// Uniform places n points uniformly at random in a width × height rectangle.
func Uniform(r *rand.Rand, n int, width, height float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: r.Float64() * width, Y: r.Float64() * height}
	}
	return pts
}

// UniformSide returns the square side that gives an expected targetDegree
// radius-neighbors for n uniform points, plus the sanitized degree actually
// used (out-of-range targets fall back to min(12, n-1)).
func UniformSide(n int, radius, targetDegree float64) (side, degree float64) {
	if targetDegree <= 0 || targetDegree > float64(n-1) {
		targetDegree = math.Min(12, float64(n-1))
	}
	area := float64(n) * math.Pi * radius * radius / targetDegree
	return math.Sqrt(area), targetDegree
}

// UniformDegree places n points uniformly in a square sized so that the
// expected number of radius-neighbors of an interior point is approximately
// targetDegree. It is the workhorse topology for aggregation experiments:
// fixing targetDegree keeps Δ roughly constant as n grows.
func UniformDegree(r *rand.Rand, n int, radius, targetDegree float64) []geo.Point {
	side, _ := UniformSide(n, radius, targetDegree)
	return Uniform(r, n, side, side)
}

// PerturbedGrid places n points on a √n × √n grid with the given spacing,
// each jittered uniformly by ±jitter in both axes.
func PerturbedGrid(r *rand.Rand, n int, spacing, jitter float64) []geo.Point {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pts := make([]geo.Point, n)
	for i := range pts {
		x := float64(i%cols) * spacing
		y := float64(i/cols) * spacing
		pts[i] = geo.Point{
			X: x + (r.Float64()*2-1)*jitter,
			Y: y + (r.Float64()*2-1)*jitter,
		}
	}
	return pts
}

// Crowd places n points inside one square of half-width rc/2 around the
// origin (node 0 sits at the origin): a single-cluster, Δ = n-1 workload
// isolating the Δ/F term when rc is the model's cluster radius.
func Crowd(r *rand.Rand, n int, rc float64) []geo.Point {
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (r.Float64()*2 - 1) * rc / 2,
			Y: (r.Float64()*2 - 1) * rc / 2,
		}
	}
	return pos
}

// Hotspot places clusters of points: centers uniform in a span × span square,
// members Gaussian around their center with the given standard deviation.
// It produces the high-Δ, uneven-density workloads that stress cluster-size
// approximation.
func Hotspot(r *rand.Rand, clusters, perCluster int, span, stddev float64) []geo.Point {
	pts := make([]geo.Point, 0, clusters*perCluster)
	for c := 0; c < clusters; c++ {
		center := geo.Point{X: r.Float64() * span, Y: r.Float64() * span}
		for i := 0; i < perCluster; i++ {
			pts = append(pts, geo.Point{
				X: center.X + r.NormFloat64()*stddev,
				Y: center.Y + r.NormFloat64()*stddev,
			})
		}
	}
	return pts
}

// Line places n points on the x-axis with the given spacing. With spacing
// slightly below the communication radius it yields diameter n-1.
func Line(n int, spacing float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: float64(i) * spacing}
	}
	return pts
}

// Corridor places n points uniformly in a length × width strip; with width
// below the communication radius it produces large-diameter topologies with
// nontrivial local density, for the D-term experiment.
func Corridor(r *rand.Rand, n int, length, width float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: r.Float64() * length, Y: r.Float64() * width}
	}
	return pts
}

// ExponentialChain places points at x_i = scale·2^i, i = 0..n-1: the paper's
// lower-bound instance (Sec. 1), on which uniform power admits at most one
// successful reception per slot when β ≥ 2^{1/α}. Beware of float overflow:
// n must be at most 1000 or so.
func ExponentialChain(n int, scale float64) []geo.Point {
	pts := make([]geo.Point, n)
	x := scale
	for i := range pts {
		pts[i] = geo.Point{X: x}
		x *= 2
	}
	return pts
}

// Ring places n points evenly on a circle of the given radius.
func Ring(n int, radius float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geo.Point{X: radius * math.Cos(a), Y: radius * math.Sin(a)}
	}
	return pts
}
