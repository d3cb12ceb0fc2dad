package topology

import (
	"math"
	"math/rand"
	"testing"

	"mcnet/internal/geo"
)

func TestUniformInBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := Uniform(r, 500, 10, 5)
	if len(pts) != 500 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X > 10 || p.Y < 0 || p.Y > 5 {
			t.Fatalf("point out of bounds: %v", p)
		}
	}
}

func TestUniformDegreeCalibration(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const n, radius, target = 2000, 1.0, 12.0
	pts := UniformDegree(r, n, radius, target)
	g := geo.NewGrid(pts, radius)
	total := 0
	for _, p := range pts {
		total += len(g.Neighbors(p, radius)) - 1
	}
	avg := float64(total) / n
	// Boundary effects pull the mean below target; accept a wide band.
	if avg < target/2 || avg > target*1.5 {
		t.Errorf("avg degree = %v, want ≈ %v", avg, target)
	}
}

func TestUniformDegreeBadTarget(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := UniformDegree(r, 50, 1, -5) // falls back to a sane default
	if len(pts) != 50 {
		t.Fatal("bad target should still generate")
	}
}

func TestPerturbedGrid(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := PerturbedGrid(r, 100, 2, 0.1)
	if len(pts) != 100 {
		t.Fatalf("len = %d", len(pts))
	}
	// Each point stays within jitter of its lattice site.
	for i, p := range pts {
		lx := float64(i%10) * 2
		ly := float64(i/10) * 2
		if math.Abs(p.X-lx) > 0.1+1e-12 || math.Abs(p.Y-ly) > 0.1+1e-12 {
			t.Fatalf("point %d strayed: %v vs (%v,%v)", i, p, lx, ly)
		}
	}
}

func TestHotspotCount(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := Hotspot(r, 7, 13, 50, 0.5)
	if len(pts) != 7*13 {
		t.Fatalf("len = %d, want %d", len(pts), 7*13)
	}
}

func TestLine(t *testing.T) {
	pts := Line(4, 2.5)
	for i, p := range pts {
		if p.Y != 0 || p.X != 2.5*float64(i) {
			t.Fatalf("point %d = %v", i, p)
		}
	}
}

func TestExponentialChain(t *testing.T) {
	pts := ExponentialChain(10, 1)
	for i, p := range pts {
		want := math.Pow(2, float64(i))
		if math.Abs(p.X-want) > 1e-9 {
			t.Fatalf("x_%d = %v, want %v", i, p.X, want)
		}
	}
	// Consecutive gaps double: d(i, i+1) = 2^i.
	for i := 0; i+1 < len(pts); i++ {
		if got := pts[i].Dist(pts[i+1]); math.Abs(got-math.Pow(2, float64(i))) > 1e-9 {
			t.Fatalf("gap %d = %v", i, got)
		}
	}
}

func TestRing(t *testing.T) {
	pts := Ring(8, 3)
	for i, p := range pts {
		if math.Abs(p.Dist(geo.Point{})-3) > 1e-9 {
			t.Fatalf("point %d not on circle: %v", i, p)
		}
	}
	// Evenly spaced: all consecutive gaps equal.
	gap := pts[0].Dist(pts[1])
	for i := 1; i < 8; i++ {
		if math.Abs(pts[i].Dist(pts[(i+1)%8])-gap) > 1e-9 {
			t.Fatal("uneven ring spacing")
		}
	}
}

func TestDeterministicGenerators(t *testing.T) {
	a := Uniform(rand.New(rand.NewSource(9)), 50, 10, 10)
	b := Uniform(rand.New(rand.NewSource(9)), 50, 10, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce placement")
		}
	}
}
