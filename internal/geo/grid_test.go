package geo

import (
	"math/rand"
	"testing"
)

// TestGridCellBoundaryPoints: points landing exactly on cell edges (exact
// multiples of the cell size) must be binned consistently with cellCoord
// and stay findable by neighbor queries at exactly-touching radii — the
// inclusive ≤ r contract, with no point lost between two cells.
func TestGridCellBoundaryPoints(t *testing.T) {
	const cell = 0.5
	var pts []Point
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pts = append(pts, Point{X: float64(i) * cell, Y: float64(j) * cell})
		}
	}
	g := NewGrid(pts, cell)
	// Every point is found at radius 0 from itself.
	for i, p := range pts {
		found := false
		g.ForNeighbors(p, 0, func(k int) bool {
			if k == i {
				found = true
			}
			return true
		})
		if !found {
			t.Fatalf("point %d on a cell boundary lost by its own grid", i)
		}
	}
	// A query radius exactly equal to the spacing includes the 4-neighbors
	// (inclusive contract) — the center of the lattice has 4 at distance
	// exactly cell plus itself.
	center := Point{X: 2 * cell, Y: 2 * cell}
	if got := g.CountNeighbors(center, cell); got != 5 {
		t.Errorf("boundary-radius query found %d points, want 5 (self + 4 touching)", got)
	}
	// cellCoord is consistent with the binning: querying each point's own
	// cell coordinate never goes out of range.
	for _, p := range pts {
		c, r := g.cellCoord(p)
		if c < 0 || c >= g.cols || r < 0 || r >= g.rows {
			t.Fatalf("cellCoord(%v) = (%d, %d) outside %dx%d", p, c, r, g.cols, g.rows)
		}
	}
}

// TestGridAllColocated: a degenerate deployment with every node at the
// same position collapses to a 1×1 grid that still answers queries.
func TestGridAllColocated(t *testing.T) {
	pts := make([]Point, 64)
	for i := range pts {
		pts[i] = Point{X: 3.25, Y: -1.5}
	}
	g := NewGrid(pts, 0.5)
	if g.cols != 1 || g.rows != 1 {
		t.Errorf("colocated grid dims = %dx%d, want 1x1", g.cols, g.rows)
	}
	if got := g.CountNeighbors(pts[0], 0); got != len(pts) {
		t.Errorf("radius-0 query found %d, want all %d colocated points", got, len(pts))
	}
	if got := g.CountNeighbors(Point{X: 100, Y: 100}, 1); got != 0 {
		t.Errorf("distant query found %d, want 0", got)
	}
}

// TestGridMaxCornerClamp: the point at the exact top-right corner of the
// bounding box sits on the boundary of a cell that would be out of range;
// cellCoord clamps it into the last cell instead of dropping it.
func TestGridMaxCornerClamp(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 2}}
	g := NewGrid(pts, 1) // corner point lands exactly on a cell edge
	for i, p := range pts {
		if got := g.CountNeighbors(p, 0); got < 1 {
			t.Errorf("point %d (%v) unreachable: %d", i, p, got)
		}
	}
	if got := g.CountNeighbors(Point{X: 2, Y: 2}, 1.5); got != 2 {
		t.Errorf("corner query found %d, want 2", got)
	}
}

// TestGridBoundaryBruteForce is a randomized cross-check biased to the
// awkward cases: points snapped to cell boundaries, duplicated points, and
// query radii at exact multiples of the cell size.
func TestGridBoundaryBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		const cell = 0.25
		n := 40 + r.Intn(80)
		pts := make([]Point, n)
		for i := range pts {
			// Half the points snap to exact cell boundaries.
			x, y := r.Float64()*4, r.Float64()*4
			if r.Intn(2) == 0 {
				x = float64(int(x/cell)) * cell
				y = float64(int(y/cell)) * cell
			}
			pts[i] = Point{X: x, Y: y}
		}
		// Sprinkle exact duplicates.
		for i := 0; i < n/8; i++ {
			pts[r.Intn(n)] = pts[r.Intn(n)]
		}
		g := NewGrid(pts, cell)
		for q := 0; q < 20; q++ {
			query := pts[r.Intn(n)]
			radius := float64(r.Intn(5)) * cell // exact multiples incl. 0
			want := 0
			for _, p := range pts {
				if p.Dist2(query) <= radius*radius {
					want++
				}
			}
			if got := g.CountNeighbors(query, radius); got != want {
				t.Fatalf("trial %d: radius %v from %v: grid %d vs brute force %d",
					trial, radius, query, got, want)
			}
		}
	}
}
