// Package geo provides plane geometry primitives used throughout the
// simulator: points, distance computations, and radius queries over a
// spatial grid.
//
// All coordinates are in abstract distance units; the SINR model layer
// (internal/model) decides what one unit means relative to the transmission
// range.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons against a squared radius.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns the translation of p by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the translation of p by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// BoundingBox returns the min and max corners of the axis-aligned bounding
// box of pts. It returns zero points for an empty slice.
func BoundingBox(pts []Point) (min, max Point) {
	if len(pts) == 0 {
		return Point{}, Point{}
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return min, max
}

// MaxBallCount returns, for a set of points and radius r, the maximum number
// of points contained in any r-ball centered at one of the points. This is
// the "density" measure used by the paper for dominating sets (with centers
// restricted to the point set itself, which bounds the continuous density to
// within a constant factor).
func MaxBallCount(pts []Point, r float64) int {
	g := NewGrid(pts, r)
	best := 0
	for _, p := range pts {
		n := 0
		g.ForNeighbors(p, r, func(int) bool {
			n++
			return true
		})
		if n > best {
			best = n
		}
	}
	return best
}
