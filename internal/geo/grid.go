package geo

import "math"

// Grid is a uniform spatial hash over a fixed point set, supporting
// radius-bounded neighbor enumeration in expected O(1 + k) time per query
// for query radii on the order of the cell size.
//
// The point set is immutable after construction; indices into the original
// slice are returned by queries.
type Grid struct {
	pts    []Point
	cell   float64
	origin Point
	cols   int
	rows   int
	// buckets[r*cols+c] lists point indices in cell (c, r).
	buckets [][]int32
}

// maxGridCells bounds the bucket allocation; point sets whose extent is
// huge relative to the cell size (e.g. the exponential chain) get coarser
// cells, which stays correct — queries just scan more candidates.
const maxGridCells = 1 << 21

// NewGrid builds a grid over pts with the given cell size. Cell size must be
// positive; it is typically the most common query radius. Every point must
// have finite coordinates.
func NewGrid(pts []Point, cell float64) *Grid {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		panic("geo: grid cell size must be positive and finite")
	}
	min, max := BoundingBox(pts)
	if w, h := max.X-min.X, max.Y-min.Y; math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(h) || math.IsInf(h, 0) {
		// The cell-doubling loop below would never end.
		panic("geo: grid bounding box must be finite")
	}
	for {
		c := (max.X-min.X)/cell + 1
		r := (max.Y-min.Y)/cell + 1
		if c*r <= maxGridCells {
			break
		}
		cell *= 2
	}
	cols := int((max.X-min.X)/cell) + 1
	rows := int((max.Y-min.Y)/cell) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	g := &Grid{
		pts:     pts,
		cell:    cell,
		origin:  min,
		cols:    cols,
		rows:    rows,
		buckets: make([][]int32, cols*rows),
	}
	for i, p := range pts {
		idx := g.cellIndex(p)
		g.buckets[idx] = append(g.buckets[idx], int32(i))
	}
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

func (g *Grid) cellCoord(p Point) (int, int) {
	c := int((p.X - g.origin.X) / g.cell)
	r := int((p.Y - g.origin.Y) / g.cell)
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return c, r
}

func (g *Grid) cellIndex(p Point) int {
	c, r := g.cellCoord(p)
	return r*g.cols + c
}

// ForNeighbors calls fn for the index of every point within distance r of q
// (inclusive), in unspecified order. Iteration stops early if fn returns
// false. The query point itself is included when it is part of the set.
func (g *Grid) ForNeighbors(q Point, r float64, fn func(i int) bool) {
	if r < 0 {
		return
	}
	span := int(math.Ceil(r/g.cell)) + 1
	qc, qr := g.cellCoord(q)
	r2 := r * r
	for row := qr - span; row <= qr+span; row++ {
		if row < 0 || row >= g.rows {
			continue
		}
		for col := qc - span; col <= qc+span; col++ {
			if col < 0 || col >= g.cols {
				continue
			}
			for _, i := range g.buckets[row*g.cols+col] {
				if g.pts[i].Dist2(q) <= r2 {
					if !fn(int(i)) {
						return
					}
				}
			}
		}
	}
}

// Neighbors returns the indices of all points within distance r of q.
func (g *Grid) Neighbors(q Point, r float64) []int {
	var out []int
	g.ForNeighbors(q, r, func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
