package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1.5, 0}, Point{0, 2}, 2.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.q.Dist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist not symmetric for %v, %v", c.p, c.q)
		}
		if got := c.p.Dist2(c.q); math.Abs(got-c.want*c.want) > 1e-9 {
			t.Errorf("Dist2(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -4}
	if got := p.Add(q); got != (Point{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
}

func TestBoundingBox(t *testing.T) {
	min, max := BoundingBox(nil)
	if min != (Point{}) || max != (Point{}) {
		t.Error("empty bounding box should be zero")
	}
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	min, max = BoundingBox(pts)
	if min != (Point{-2, -1}) || max != (Point{4, 5}) {
		t.Errorf("BoundingBox = %v, %v", min, max)
	}
}

func randPoints(r *rand.Rand, n int, span float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * span, r.Float64() * span}
	}
	return pts
}

func bruteNeighbors(pts []Point, q Point, r float64) map[int]bool {
	out := map[int]bool{}
	for i, p := range pts {
		if p.Dist(q) <= r {
			out[i] = true
		}
	}
	return out
}

func TestGridMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		pts := randPoints(r, n, 100)
		cell := 1 + r.Float64()*20
		g := NewGrid(pts, cell)
		for q := 0; q < 10; q++ {
			query := Point{r.Float64() * 120, r.Float64() * 120}
			radius := r.Float64() * 40
			want := bruteNeighbors(pts, query, radius)
			got := map[int]bool{}
			for _, i := range g.Neighbors(query, radius) {
				got[i] = true
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: grid %d neighbors, brute %d (n=%d cell=%v r=%v)",
					trial, len(got), len(want), n, cell, radius)
			}
			for i := range want {
				if !got[i] {
					t.Fatalf("trial %d: grid missed neighbor %d", trial, i)
				}
			}
		}
	}
}

func TestGridQuickProperty(t *testing.T) {
	// Property: for any random configuration, Neighbors finds as many
	// points as the brute-force scan.
	f := func(seed int64, nRaw uint8, cellRaw, radiusRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%100
		pts := randPoints(r, n, 50)
		cell := 0.5 + float64(cellRaw%100)/10
		radius := float64(radiusRaw%300) / 10
		g := NewGrid(pts, cell)
		q := Point{r.Float64() * 60, r.Float64() * 60}
		return len(g.Neighbors(q, radius)) == len(bruteNeighbors(pts, q, radius))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGridEarlyStop(t *testing.T) {
	pts := []Point{{0, 0}, {0.1, 0}, {0.2, 0}, {5, 5}}
	g := NewGrid(pts, 1)
	calls := 0
	g.ForNeighbors(Point{0, 0}, 1, func(int) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop made %d calls, want 1", calls)
	}
}

func TestGridNegativeRadius(t *testing.T) {
	g := NewGrid([]Point{{0, 0}}, 1)
	if got := len(g.Neighbors(Point{0, 0}, -1)); got != 0 {
		t.Errorf("negative radius returned %d neighbors", got)
	}
}

func TestGridPanicsOnBadCell(t *testing.T) {
	for _, cell := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(cell=%v) did not panic", cell)
				}
			}()
			NewGrid([]Point{{0, 0}}, cell)
		}()
	}
}

func TestMaxBallCount(t *testing.T) {
	// Three points within radius 1 of the first, one far away.
	pts := []Point{{0, 0}, {0.5, 0}, {0, 0.5}, {10, 10}}
	if got := MaxBallCount(pts, 1); got != 3 {
		t.Errorf("MaxBallCount = %d, want 3", got)
	}
	if got := MaxBallCount(pts, 0.1); got != 1 {
		t.Errorf("MaxBallCount small radius = %d, want 1", got)
	}
}
